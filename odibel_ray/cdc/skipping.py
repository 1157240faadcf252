"""Zone-map data skipping over published tables.

The reference re-scans the whole TKG for every filtered report
(``eval/PropertyEval.scala:40-60`` and the other ``eval/*.scala`` jobs each
re-read the full table and filter in the job); here a conjunctive ``where``
on :func:`odibel_ray.cdc.sink.read_published` prunes at THREE levels before
any data moves:

1. **file level** — each manifested bucket file's Parquet footer statistics
   (min/max/null-count per column, already written by every publish path)
   are checked on the driver; files that cannot contain a matching row are
   never opened. Footer reads are metadata-only — ``load_manifests``
   already pays one per file for the row-count audit.
2. **row-group level** — surviving files are scanned with the predicate
   pushed into the PyArrow scan (``filter=``), which applies the same
   min/max check per row group inside the read task.
3. **row level** — the scan (or, for merge-on-read buckets, a post-merge
   Arrow mask) applies the exact predicate with SQL NULL semantics.

Pruning only BITES when the table layout correlates with the predicate
column: hash-bucketed CDC tables spread every value range across every
bucket (by design — upserts need the hash), so serving copies meant for
range predicates should be published with
``publish_dataset(cluster_by="col")`` — a range-clustered, read-optimized
layout (the Delta ``OPTIMIZE ... ZORDER BY`` / Iceberg sort-order analog)
whose bucket boundaries come from a bounded distributed sample and whose
bucket files are sorted by the cluster column so row-group stats stay
tight.

The ``where`` spec is the same conjunctive tuple language as
``odibel_ray.cdc.derived``: ``(col, op, value)`` with ops ``== != < <= >
>= in not_in is_null not_null``; every comparison fails on NULL (SQL
WHERE). All three levels agree on that semantics: a row a footer check
keeps but the predicate rejects is dropped by the scan filter, never
returned.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import pyarrow as pa
import pyarrow.parquet as pq

_OPS = {"==", "!=", "<", "<=", ">", ">=", "in", "not_in", "is_null", "not_null"}


def check_where(where: Sequence[Sequence]) -> list[tuple]:
    """Validate a conjunctive where spec; returns normalized 3-tuples."""
    out = []
    for cond in where:
        if len(cond) == 2:
            col, op, val = cond[0], cond[1], None
        else:
            col, op, val = cond
        if op not in _OPS:
            raise ValueError(f"unsupported where op {op!r} (have {sorted(_OPS)})")
        if op in ("in", "not_in") and not isinstance(val, (list, tuple, set)):
            raise ValueError(f"where op {op!r} needs a list value")
        if val is None and op not in ("is_null", "not_null", "in", "not_in"):
            # a comparison against NULL is NULL for every row (SQL), i.e. a
            # clause that never matches — as an expectation it would pass
            # everything; reject instead of storing a vacuous constraint
            raise ValueError(
                f"where clause ({col!r}, {op!r}) has no value; comparisons "
                "against NULL never match — use is_null/not_null"
            )
        out.append((col, op, list(val) if op in ("in", "not_in") else val))
    return out


def where_expr(where: Sequence[Sequence]):
    """The spec as a ``pyarrow.dataset`` expression for scan pushdown (the
    scanner prunes row groups by statistics, then filters rows; NULL
    comparisons evaluate to null, which the scanner drops — SQL WHERE)."""
    import pyarrow.dataset as pds

    e = None
    for col, op, val in check_where(where):
        f = pds.field(col)
        if op == "==":
            c = f == val
        elif op == "!=":
            c = f != val
        elif op == "<":
            c = f < val
        elif op == "<=":
            c = f <= val
        elif op == ">":
            c = f > val
        elif op == ">=":
            c = f >= val
        elif op == "in":
            c = f.isin(val)
        elif op == "not_in":
            # SQL: NULL NOT IN (...) is NULL (row dropped); pyarrow's is_in
            # maps NULL to false, which would invert to kept
            c = f.is_valid() & ~f.isin(val)
        elif op == "is_null":
            c = f.is_null()
        else:  # not_null
            c = f.is_valid()
        e = c if e is None else e & c
    return e


def filter_table(t: pa.Table, where: Sequence[Sequence]) -> pa.Table:
    """Exact row-level filter over an in-memory table (the merge-on-read
    path applies the predicate AFTER the LWW merge — pushing it into the
    base/delta file reads would let a superseded base row win)."""
    from odibel_ray.cdc.derived import _where_mask

    return t.filter(_where_mask(t, check_where(where)))


def _rg_may_match(stats, op: str, val) -> bool:
    """Can any row of a row group satisfy one conjunct, judging only by its
    column statistics? True when undecidable (missing stats, type
    mismatch) — pruning must never drop a possible match."""
    if stats is None:
        return True
    nulls = stats.null_count if stats.has_null_count else None
    n_vals = stats.num_values  # non-null count
    if op == "is_null":
        return nulls is None or nulls > 0
    if op == "not_null":
        return n_vals is None or n_vals > 0
    # every remaining op fails on NULL, so a row group of only nulls never
    # matches
    if n_vals == 0:
        return False
    if not stats.has_min_max:
        return True
    lo, hi = stats.min, stats.max
    try:
        if op == "==":
            return lo <= val <= hi
        if op == "!=":
            return not (lo == hi == val)
        if op == "<":
            return lo < val
        if op == "<=":
            return lo <= val
        if op == ">":
            return hi > val
        if op == ">=":
            return hi >= val
        if op == "in":
            return any(lo <= v <= hi for v in val)
        # not_in: pruned only when the group is a single value inside the set
        return not (lo == hi and lo in val)
    except TypeError:
        return True  # incomparable literal (e.g. str vs int stats)


def file_may_match(path: str, where: Sequence[Sequence], metadata=None) -> bool:
    """Can any row of one Parquet file satisfy the whole conjunction? A file
    survives if ANY row group may match ALL conjuncts. Footer-only — no
    data pages are read. Conjuncts on columns the file lacks (schema
    evolution) are undecidable for old files only when the reader would
    null-fill them: a missing column reads as NULL, so value comparisons
    cannot match but ``is_null`` can."""
    where = check_where(where)
    md = metadata if metadata is not None else pq.read_metadata(path)
    cols = {md.schema.column(i).path: i for i in range(md.num_columns)}
    per_col = {}
    for col, op, val in where:
        if col not in cols:
            # absent column null-fills: only null-ops can match
            if op not in ("is_null",):
                return False
            continue
        per_col.setdefault(cols[col], []).append((op, val))
    if not per_col:
        return True
    for rg in range(md.num_row_groups):
        g = md.row_group(rg)
        ok = True
        for idx, conds in per_col.items():
            stats = g.column(idx).statistics
            if not all(_rg_may_match(stats, op, val) for op, val in conds):
                ok = False
                break
        if ok:
            return True
    return False


def _thin_list(vals: list, cap: int) -> list:
    import numpy as np

    if len(vals) <= cap:
        return vals
    idx = np.linspace(0, len(vals) - 1, cap).astype(np.int64)
    return [vals[int(i)] for i in idx]


def bounded_column_sample(ds, cols: list[str], cap: int = 262144) -> dict[str, list]:
    """Bounded uniform sample of each column via a distributed tree
    aggregation: every accumulator (block-side AND every pairwise merge) is
    thinned back to ``cap`` values per column, so memory is O(cap) at every
    node and on the driver REGARDLESS of block count — a plain
    collect-then-thin grows with the number of blocks and dies at 100 TB.
    One column-pruned streaming pass; returns per-column value lists
    (uniform subsamples, unsorted)."""
    import pickle

    from ray.data.aggregate import AggregateFn

    per_block = max(64, cap // 64)
    # accumulators ride Ray Data's aggregate machinery as Arrow blocks, so
    # the state is pickled bytes (Arrow binary), not Python containers
    empty = pickle.dumps([[] for _ in cols])

    def acc_block(a, t):
        state = pickle.loads(a or empty)
        for i, c in enumerate(cols):
            col = t.column(c).combine_chunks().drop_null()
            state[i].extend(_thin_list(col.to_pylist(), per_block))
            if len(state[i]) > cap:
                state[i] = _thin_list(state[i], cap)
        return pickle.dumps(state)

    def merge(a, b):
        sa, sb = pickle.loads(a or empty), pickle.loads(b or empty)
        return pickle.dumps(
            [_thin_list(sa[i] + sb[i], cap) for i in range(len(cols))]
        )

    agg = AggregateFn(
        init=lambda k: empty,
        merge=merge,
        accumulate_block=acc_block,
        name="sample",
    )
    out = ds.select_columns(cols).aggregate(agg) or {}
    acc = pickle.loads(out.get("sample") or empty)
    return {c: acc[i] for i, c in enumerate(cols)}


def cluster_bounds(ds, cluster_by: str, num_buckets: int, sample_cap: int = 262144) -> list:
    """Range-bucket boundaries for a clustered publish: approximate
    quantiles of ``cluster_by`` from a bounded uniform sample
    (:func:`bounded_column_sample` — memory O(sample_cap) everywhere, any
    table size)."""
    vals = sorted(bounded_column_sample(ds, [cluster_by], sample_cap)[cluster_by])
    if not vals:
        return []
    # num_buckets-1 interior split points (deduplicated — skewed columns
    # collapse to fewer, larger buckets rather than empty ones)
    pos = [int(round(q * (len(vals) - 1))) for q in
           (i / num_buckets for i in range(1, num_buckets))]
    bounds = []
    for p in pos:
        v = vals[p]
        if not bounds or v > bounds[-1]:
            bounds.append(v)
    return bounds


def bucket_of_range(t: pa.Table, cluster_by: str, bounds: list) -> "np.ndarray":
    """Range-bucket assignment: ``searchsorted`` over the pinned boundaries
    (bucket b holds bounds[b-1] < v <= bounds[b]); NULLs land in bucket 0."""
    import numpy as np

    col = t.column(cluster_by).combine_chunks()
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    vals = col.to_numpy(zero_copy_only=False)
    b = np.zeros(len(t), dtype=np.int64)
    if bounds and valid.any():
        arr = np.asarray(bounds, dtype=object)
        b[valid] = np.searchsorted(arr, vals[valid], side="left")
    return b


# ---------------------------------------------------------------------------
# Z-order (multi-column) clustering: the Delta OPTIMIZE ZORDER analog.
# Each column is rank-quantized against a sampled quantile reference
# (2^Z_BITS levels), the per-column ranks are bit-interleaved into one
# z-value, and the table range-buckets + sorts on that z-value. Files then
# hold small hyper-rectangles of the multi-column space, so footer stats
# prune on EVERY clustered column (the read side needs no changes —
# file_may_match already consults per-column min/max).
# ---------------------------------------------------------------------------

Z_BITS = 10  # 1024 rank levels per column


def bounded_row_sample(ds, cols: list[str], cap: int = 262144) -> list[tuple]:
    """Bounded uniform sample of aligned ROWS (same tree-thinned aggregation
    as :func:`bounded_column_sample`, memory O(cap) everywhere) — for
    statistics that need the columns jointly, like z-value quantiles."""
    import pickle

    import numpy as np

    from ray.data.aggregate import AggregateFn

    per_block = max(64, cap // 64)
    empty = pickle.dumps([])

    def acc_block(a, t):
        t = t.combine_chunks()
        n = len(t)
        if n > per_block:
            idx = np.linspace(0, n - 1, per_block).astype(np.int64)
            t = t.take(pa.array(idx))
        state = pickle.loads(a or empty)
        state.extend(zip(*(t.column(c).to_pylist() for c in cols)))
        return pickle.dumps(_thin_list(state, cap))

    def merge(a, b):
        return pickle.dumps(
            _thin_list(pickle.loads(a or empty) + pickle.loads(b or empty), cap)
        )

    agg = AggregateFn(
        init=lambda k: empty,
        merge=merge,
        accumulate_block=acc_block,
        name="rows",
    )
    out = ds.select_columns(cols).aggregate(agg) or {}
    return pickle.loads(out.get("rows") or empty)


def _zref_from_rows(rows: list[tuple], cols: list[str]) -> dict[str, list]:
    """Per-column quantile reference vectors from the joint row sample."""
    import numpy as np

    zref = {}
    levels = 1 << Z_BITS
    for i, c in enumerate(cols):
        vals = sorted(r[i] for r in rows if r[i] is not None)
        if not vals:
            zref[c] = []
            continue
        pos = np.linspace(0, len(vals) - 1, min(levels - 1, len(vals))).astype(np.int64)
        ref = []
        for p in pos:
            v = vals[int(p)]
            if not ref or v > ref[-1]:
                ref.append(v)
        zref[c] = ref
    return zref


def _rank_of(col: pa.ChunkedArray, ref: list) -> "np.ndarray":
    import numpy as np

    n = len(col)
    out = np.zeros(n, dtype=np.int64)
    if not ref:
        return out
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    vals = col.combine_chunks().to_numpy(zero_copy_only=False)
    arr = np.asarray(ref, dtype=object)
    out[valid] = np.searchsorted(arr, vals[valid], side="left")
    # scale to the FULL bit range: a low-cardinality column (few quantile
    # levels) must still populate the HIGH interleave bits, or it never
    # influences file boundaries and its predicates stop pruning
    levels = 1 << Z_BITS
    out = (out * (levels - 1)) // max(len(ref), 1)
    return np.minimum(out, levels - 1)


def zvalue_of(t: pa.Table, cols: list[str], zref: dict[str, list]) -> "np.ndarray":
    """Bit-interleaved z-value per row (vectorized: Z_BITS × len(cols)
    shift-and-mask passes, no Python per-row work)."""
    import numpy as np

    k = len(cols)
    z = np.zeros(len(t), dtype=np.int64)
    ranks = [_rank_of(t.column(c), zref[c]) for c in cols]
    for b in range(Z_BITS):
        for i, r in enumerate(ranks):
            z |= ((r >> b) & 1) << (b * k + i)
    return z


def zorder_layout(ds, cols: list[str], num_buckets: int) -> dict:
    """ONE bounded row-sample pass builds both the rank reference and the
    z-value bucket bounds (pinned in ``_layout.json`` before staging, like
    1-D clustering). The sample aggregation is tree-thinned, so layout
    construction is O(sample cap) memory at any table size."""
    import numpy as np

    for c in cols:
        f = ds.schema().base_schema.field(c)
        if not (pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
                or pa.types.is_string(f.type) or pa.types.is_large_string(f.type)):
            raise ValueError(
                f"zorder column {c!r} has type {f.type}; numeric and string "
                "columns are supported"
            )
    rows = bounded_row_sample(ds, cols)
    zref = _zref_from_rows(rows, cols)
    st = pa.table({c: [r[i] for r in rows] for i, c in enumerate(cols)})
    zs = np.sort(zvalue_of(st, cols, zref)) if len(st) else np.array([], np.int64)
    bounds = []
    for i in range(1, num_buckets):
        v = int(zs[int(round(i / num_buckets * (len(zs) - 1)))]) if len(zs) else 0
        if not bounds or v > bounds[-1]:
            bounds.append(v)
    return {"zref": zref, "bounds": bounds}


# ---------------------------------------------------------------------------
# Bloom filters — equality skipping where zone maps can't bite
# ---------------------------------------------------------------------------
#
# Footer min/max prunes RANGE predicates on layout-correlated columns; an
# equality probe on a high-cardinality column that the layout does NOT sort
# or bucket by (a content hash, an event id, an exact text) matches almost
# every file's [min, max] span and zone maps keep nothing out. The Delta
# answer is a per-file Bloom filter index; pyarrow 16 exposes no Parquet
# bloom writer, so every bucket write stores one in the file's manifest
# entry (``key_filter``, JSON: per indexed column — the first key column,
# then the layout's ``bloom_cols`` — a bit array + double-hash params over
# the file's DISTINCT values). The filter is published and swept with its
# manifest entry; a file without one just gets no pruning, never a wrong
# answer, and Bloom semantics guarantee no false negatives: the owning file
# of a probed value is never skipped.

#: second hash key (pd.util.hash_array) for Kirsch–Mitzenmacher double
#: hashing: h_i = h1 + i * (h2 | 1)
_BLOOM_KEY2 = "fedcba9876543210"
_BITS_PER_VALUE = 10  # ~1% false-positive rate at k = 7


def _bloom_hashes(values) -> tuple:
    import numpy as np
    import pandas as pd

    h1 = pd.util.hash_array(values, categorize=False)
    h2 = pd.util.hash_array(values, hash_key=_BLOOM_KEY2, categorize=False)
    return h1, h2 | np.uint64(1)


def bloom_filter(
    t: pa.Table, cols: Sequence[str], bits_per_value: int = _BITS_PER_VALUE,
) -> dict:
    """The one Bloom encoder: per column, the table's distinct non-null values
    (``==`` never matches NULL under SQL WHERE, so nulls need no bits)
    hashed k ways into an m-bit array. Returns ``{col: entry}``, the layout
    of a manifest entry's ``key_filter``."""
    import base64

    import numpy as np

    meta = {}
    for c in cols:
        vals = t[c].combine_chunks().unique().drop_null()
        arr = vals.to_numpy(zero_copy_only=False)
        n = max(len(arr), 1)
        m = max(64, ((n * bits_per_value + 7) // 8) * 8)
        k = max(1, int(round(0.693 * m / n)))
        on = np.zeros(m, dtype=bool)
        if len(arr):
            h1, h2 = _bloom_hashes(arr)
            ks = np.arange(k, dtype=np.uint64)
            on[((h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(m)).astype(np.int64)] = True
        # bit i of the filter is bit (i & 7) of byte i >> 3
        bits = np.packbits(on, bitorder="little")
        meta[c] = {
            "m": int(m),
            "k": int(k),
            "dtype": arr.dtype.str if len(arr) else "empty",
            "bits": base64.b64encode(bits.tobytes()).decode(),
        }
    return meta


class Bloom(NamedTuple):
    """One :func:`bloom_filter` entry, decoded: ``m`` bits, ``k`` hashes,
    the stored dtype (``"empty"``: a filter over no value) and the bits
    (bit i is bit ``i & 7`` of byte ``i >> 3``)."""

    m: int
    k: int
    dtype: str
    bits: bytes


def decode_bloom(entry: dict) -> Bloom:
    import base64

    return Bloom(int(entry["m"]), int(entry["k"]), entry["dtype"],
                 base64.b64decode(entry["bits"]))


def decode_blooms(meta: dict | None) -> dict[str, Bloom] | None:
    """Every column entry of a :func:`bloom_filter` result, decoded."""
    return {c: decode_bloom(e) for c, e in meta.items()} if meta else None


class BloomProbe:
    """The values one probe asks about, hashed once per stored dtype: a read
    hashes a key once, whatever the number of filters it probes. NULL
    values get no hash (the probe admits them)."""

    def __init__(self, values):
        import numpy as np

        self.values = list(values)
        self.known = np.array([v is not None for v in self.values], dtype=bool)
        self.unknown = ~self.known
        self.n_known = int(self.known.sum())
        self._slots: dict = {}

    def slots(self, dtype: str, k: int) -> "np.ndarray | list[int] | None":
        """``h1 + i * h2`` for ``i < k`` (uint64, one row per non-null
        value), the Bloom positions before the modulo by a filter's size: a
        list of Python ints when there is one value, else an array. None
        when a value does not fit ``dtype``."""
        import numpy as np

        if (dtype, k) not in self._slots:
            try:
                h1, h2 = _bloom_hashes(np.array([v for v in self.values if v is not None],
                                                dtype=np.dtype(dtype)))
            except (TypeError, ValueError, OverflowError):
                self._slots[dtype, k] = None
            else:
                ks = np.arange(k, dtype=np.uint64)
                slots = h1[:, None] + ks[None, :] * h2[:, None]
                self._slots[dtype, k] = slots[0].tolist() if len(slots) == 1 else slots
        return self._slots[dtype, k]


def _bloom_contains(bloom: Bloom, probe: BloomProbe) -> "np.ndarray":
    """The one Bloom probe: per value, may the filter's set hold it? A NULL
    probe always may (the set holds only non-null values, so it cannot
    speak for NULL). Raises ValueError when a value does not fit the stored
    dtype."""
    import numpy as np

    out = probe.unknown.copy()
    if bloom.dtype == "empty" or not probe.n_known:
        return out
    slots = probe.slots(bloom.dtype, bloom.k)
    if slots is None:
        raise ValueError(f"probe values do not fit the filter's dtype {bloom.dtype}")
    m, bits = bloom.m, bloom.bits
    if isinstance(slots, list):
        # one value, a point lookup: Python ints cost less than numpy calls
        out[probe.known] = all(bits[(i := s % m) >> 3] >> (i & 7) & 1 for s in slots)
        return out
    idx = slots % np.uint64(m)
    on = np.frombuffer(bits, dtype=np.uint8)[idx >> 3] >> (idx & 7)
    out[probe.known] = (on & 1).all(axis=1)
    return out


def bloom_probes(where: Sequence[Sequence]) -> list[tuple[str, BloomProbe]]:
    """One probe per ``==``/``in`` clause of a normalized where list."""
    return [(col, BloomProbe([val] if op == "==" else val))
            for col, op, val in where if op in ("==", "in")]


def blooms_admit(blooms: dict[str, Bloom] | None, probes) -> bool:
    """False only when a probe (:func:`bloom_probes`) on a column ``blooms``
    covers provably excludes every candidate value (conjunctive predicate:
    one impossible clause rules the file out). True without ``blooms`` —
    filters only ever ADD pruning — and when a probe value does not fit
    the stored dtype."""
    if not blooms:
        return True
    for col, probe in probes:
        bloom = blooms.get(col)
        if bloom is None:
            continue
        try:
            if not _bloom_contains(bloom, probe).any():
                return False
        except ValueError:
            continue  # probe value doesn't fit the stored dtype: no pruning
    return True


def bloom_admits(meta: dict | None, where: Sequence[Sequence]) -> bool:
    """:func:`blooms_admit` over one raw :func:`bloom_filter` result and a
    where list."""
    return blooms_admit(decode_blooms(meta), bloom_probes(where))

