"""Joins, dedup, sampling, top-k — Ray-Data-native (SURVEY.md §2.4, §2.6, §2.7).

Join strategy: the reference's joins are Spark shuffle joins
(``/root/reference/src/pyodibel/operations/rdf/rdf2.py:105-156``, hash-join
build/probe at ``src/pyodibel/operations/base/entity_ops.py:89-140``). At 100 TB
the small side of almost every join here (dimension tables, distinct key sets)
fits in memory, so we **broadcast**: materialize the small side once, ``ray.put``
it into the object store, and probe inside ``map_batches`` with zero-copy Arrow
kernels — no all-to-all shuffle at all. Each worker reads the broadcast object
from its node's object store (one copy per node, not per task).

Large-large joins (both sides >> memory) go through :func:`odibel_ray.cdc.lww.outer_diff`'s
tag-union-shuffle pattern or Ray Data's native ``Dataset.join``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

_KNUTH = np.uint64(2654435761)


def load_table(sf_dir: str, name: str, columns: Sequence[str] | None = None):
    """``read_parquet`` one test table with column pruning at the read
    (SURVEY.md "prune at the read")."""
    import ray.data as rd

    path = os.path.join(sf_dir, f"{name}.parquet")
    return rd.read_parquet(path, columns=list(columns) if columns else None)


#: Driver-memory guard for broadcast-join build sides. A build side whose
#: Arrow bytes exceed this is NOT collected to the driver — the join falls
#: back to the shuffle-based :func:`bucketed_join` automatically. Override
#: per-process with ``ODIBEL_BROADCAST_LIMIT_BYTES``.
DEFAULT_BROADCAST_LIMIT = int(
    os.environ.get("ODIBEL_BROADCAST_LIMIT_BYTES", str(512 << 20))
)


def _empty_like(ds) -> pa.Table:
    """Zero-row Arrow table CARRYING the dataset's schema — a bare
    ``pa.table({})`` has no columns, so a downstream ``Table.join`` against
    it fails with 'no match for key field' instead of joining empty."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", None) if schema is not None else None
    return base.empty_table() if base is not None else pa.table({})


def _small_table(obj) -> pa.Table:
    """Materialize a small side to one Arrow table (Dataset | Table).

    Unguarded — only for sides small by construction (e.g. a top-k query
    matrix). Join build sides go through :func:`_collect_small` instead.
    """
    if isinstance(obj, pa.Table):
        return obj.combine_chunks()
    import ray

    tables = [ray.get(r) for r in obj.to_arrow_refs()]
    if not tables:
        return _empty_like(obj)
    return pa.concat_tables(tables, promote_options="default").combine_chunks()


def _collect_small(obj, max_bytes: int | None):
    """Collect a join build side to the driver, guarding driver memory.

    Returns ``(table, None)`` when the side fits under ``max_bytes`` Arrow
    bytes, else ``(None, fallback_dataset)`` — a Dataset over the blocks that
    were already materialized in the OBJECT STORE (``from_arrow_refs``: no
    pipeline re-execution), so the caller can shuffle-join instead. Driver
    heap usage is bounded by ``max_bytes`` either way: collection stops at
    the first block that crosses the limit.

    A caller-provided ``pyarrow.Table`` is trusted (it already lives on the
    driver; refusing to broadcast it would not reclaim the memory).
    """
    if isinstance(obj, pa.Table):
        return obj.combine_chunks(), None
    import ray
    import ray.data as rd

    refs = obj.to_arrow_refs()
    tables: list[pa.Table] = []
    total = 0
    for r in refs:
        t: pa.Table = ray.get(r)
        total += t.nbytes
        if max_bytes is not None and total > max_bytes:
            del tables
            return None, rd.from_arrow_refs(refs)
        tables.append(t)
    if not tables:
        return _empty_like(obj), None
    return pa.concat_tables(tables, promote_options="default").combine_chunks(), None


def _broadcast(obj):
    """``ray.put`` once; returns the ObjectRef (read per-node, not per-task)."""
    import ray

    return ray.put(obj)


def _deref(obj):
    """Resolve a broadcast ObjectRef inside a UDF — ``ray.get`` on a local
    object is zero-copy for Arrow buffers; ``map_batches`` ``fn_args`` are not
    auto-dereferenced."""
    import ray

    return ray.get(obj) if isinstance(obj, ray.ObjectRef) else obj


def broadcast_semi_join(
    ds: "ray.data.Dataset",
    small,
    on: Sequence[str] | str,
    *,
    anti: bool = False,
    batch_size: int = 65536,
    max_broadcast_bytes: int | None = None,
    ds_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Semi-join (``anti=False``) or anti-join (``anti=True``) of ``ds`` against
    the key set of ``small`` — the reference's ``filter_triples_by_s_type``
    semi-join (``rdf2.py:105-137``) and ``left_anti`` sampling exclusion
    (``rdf2.py:347-352``), via a broadcast key set + ``pc.is_in`` mask.

    Scale guard: the build side is key-projected and per-batch distincted
    DISTRIBUTEDLY (a combiner — each block ships only its distinct keys, so a
    fact-table build side collapses to its key cardinality before any byte
    reaches the driver). If the combined distinct key set still exceeds
    ``max_broadcast_bytes`` (default :data:`DEFAULT_BROADCAST_LIMIT`), the join
    falls back to the shuffle-based :func:`bucketed_join` semi/anti mode — no
    driver materialization at all. Pass ``ds_schema`` when ``ds`` is a lazy
    pipeline so the fallback doesn't execute it just to infer column types.
    """
    on = [on] if isinstance(on, str) else list(on)
    limit = DEFAULT_BROADCAST_LIMIT if max_broadcast_bytes is None else max_broadcast_bytes

    if isinstance(small, pa.Table):
        small_keys = small.select(on)
    else:
        # distributed combiner: project to the key columns and distinct each
        # block where it lives; only distinct key tuples move to the driver
        def _batch_distinct(t: pa.Table) -> pa.Table:
            return t.select(on).combine_chunks().group_by(on).aggregate([])

        small_keys = small.map_batches(
            _batch_distinct, batch_format="pyarrow", batch_size=batch_size
        )
    small_t, fallback = _collect_small(small_keys, limit)
    if fallback is not None:
        return bucketed_join(
            ds,
            fallback,
            on,
            how="anti" if anti else "semi",
            batch_size=batch_size,
            left_schema=ds_schema,
            right_schema=fallback.schema().base_schema,
        )
    if len(on) == 1:
        key_set = pc.unique(small_t[on[0]])
    else:
        # composite key: broadcast the distinct key-tuple table and use Arrow's
        # exact hash semi/anti join per batch (a combined-hash prefilter would
        # silently keep/drop rows on 64-bit collisions)
        key_set = _first_per_key(small_t.combine_chunks(), on, None)
    ref = _broadcast(key_set)

    def probe(t: pa.Table, keys) -> pa.Table:
        keys = _deref(keys)
        t = t.combine_chunks()
        if len(on) == 1:
            mask = pc.is_in(t[on[0]], value_set=keys)
            if anti:
                mask = pc.invert(pc.fill_null(mask, False))
            return t.filter(pc.fill_null(mask, False))
        join_type = "left anti" if anti else "left semi"
        return t.join(keys, keys=on, join_type=join_type)

    return ds.map_batches(
        probe, fn_args=[ref], batch_format="pyarrow", batch_size=batch_size
    )


def broadcast_anti_join(ds, small, on, **kw):
    return broadcast_semi_join(ds, small, on, anti=True, **kw)


def broadcast_hash_join(
    ds: "ray.data.Dataset",
    small,
    on: Sequence[str] | str,
    *,
    how: str = "inner",
    suffix: str = "_r",
    batch_size: int = 65536,
    max_broadcast_bytes: int | None = None,
    ds_schema: pa.Schema | None = None,
    small_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Join ``ds`` (probe, streaming) with a small build side, broadcast once.

    Pass ``small_schema`` when the build side is a lazy pipeline that can
    produce ZERO rows — an executed-empty pipeline reports no schema, and a
    column-less build table would fail the per-batch join instead of joining
    empty (left rows keep null right columns).

    The per-batch probe is ``pyarrow.Table.join`` (vectorized hash join inside
    Arrow). ``how`` ∈ {'inner', 'left'} — the two modes of the reference's
    ``JoinOperation`` (``entity_ops.py:89-140``).

    Scale guard: if the build side exceeds ``max_broadcast_bytes`` Arrow bytes
    (default :data:`DEFAULT_BROADCAST_LIMIT`) it is NOT collected to the
    driver — the join falls back to :func:`bucketed_join` over the
    already-materialized blocks. Pass ``ds_schema`` when ``ds`` is a lazy
    pipeline so the fallback doesn't execute it just to infer column types.
    """
    on = [on] if isinstance(on, str) else list(on)
    limit = DEFAULT_BROADCAST_LIMIT if max_broadcast_bytes is None else max_broadcast_bytes
    small_t, fallback = _collect_small(small, limit)
    if small_t is not None and small_t.num_columns == 0 and small_schema is not None:
        small_t = small_schema.empty_table()
    if fallback is not None:
        return bucketed_join(
            ds,
            fallback,
            on,
            how=how,
            suffix=suffix,
            batch_size=batch_size,
            left_schema=ds_schema,
            right_schema=fallback.schema().base_schema,
        )
    ref = _broadcast(small_t)
    join_type = {"inner": "inner", "left": "left outer"}[how]

    def probe(t: pa.Table, build: pa.Table) -> pa.Table:
        build = _deref(build)
        return t.combine_chunks().join(
            build, keys=on, join_type=join_type, right_suffix=suffix
        )

    return ds.map_batches(
        probe, fn_args=[ref], batch_format="pyarrow", batch_size=batch_size
    )


def shuffle_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str] | str,
    *,
    how: str = "inner",
    num_partitions: int | None = None,
    right_on: Sequence[str] | str | None = None,
    right_suffix: str = "_r",
) -> "ray.data.Dataset":
    """Large-large distributed hash join (Ray Data's native shuffle join) —
    for when NEITHER side fits in memory and broadcast
    (:func:`broadcast_hash_join`) doesn't apply. Both sides hash-partition on
    the key (one all-to-all each); prefer the broadcast path whenever one side
    is dimension-sized."""
    on = (on,) if isinstance(on, str) else tuple(on)
    if right_on is not None:
        right_on = (right_on,) if isinstance(right_on, str) else tuple(right_on)
    if num_partitions is None:
        try:
            import ray

            num_partitions = max(8, int(ray.cluster_resources().get("CPU", 8)))
        except Exception:
            num_partitions = 16
    jt = {"inner": "inner", "left": "left_outer", "outer": "full_outer"}.get(how, how)
    return left.join(
        right, join_type=jt, num_partitions=num_partitions, on=on,
        right_on=right_on, right_suffix=right_suffix,
    )


def bucketed_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str] | str,
    *,
    how: str = "inner",
    num_buckets: int | None = None,
    suffix: str = "_r",
    batch_size: int = 65536,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    left_distinct: Sequence[str] | None = None,
    left_distinct_max: Sequence[str] | None = None,
) -> "ray.data.Dataset":
    """Distributed hash join without broadcast and without Ray Data's
    hash-shuffle join actors: tag-union both sides, sort-shuffle groupby on a
    key-hash bucket, then a vectorized ``pyarrow.Table.join`` inside each
    bucket. Each side moves exactly once; all matching keys co-locate because
    the bucket is a pure function of the join key.

    ``left_distinct``: dedup the left side on these columns inside each
    bucket before joining. Correct only when the columns include the join
    key (all copies of a row then land in the same bucket); it fuses an
    upstream ``exact_dedup`` exchange into the join — e.g. LSH candidate
    pairs duplicated across bands are deduped here for free instead of
    paying a dedicated all-to-all. Which copy survives is otherwise
    arbitrary (shuffle arrival order); ``left_distinct_max`` names columns
    to aggregate by per-group MAX across the copies instead, making flags
    like ``capped`` deterministic (True wins when any copy carries it).

    ``how`` ∈ {'inner', 'left', 'outer', 'semi', 'anti'} ('outer' is full
    outer — decomposable per bucket because every copy of a key lands in one
    bucket, so unmatched rows of either side surface exactly once;
    'semi'/'anti' keep only
    ``left``'s columns — the shuffle analog of
    :func:`broadcast_semi_join` / :func:`broadcast_anti_join`, and their
    automatic fallback when the key set outgrows the broadcast limit).
    Non-key columns of ``right`` that collide with
    ``left`` get ``suffix``. Use when NEITHER side is dimension-sized (else
    :func:`broadcast_hash_join`); compared to ``Dataset.join`` this rides the
    same task-based shuffle as every groupby in the engine, which behaves
    predictably under tight CPU budgets.

    Pass ``left_schema``/``right_schema`` when the side is a lazy pipeline —
    ``Dataset.schema()`` on an unexecuted pipeline EXECUTES it to infer the
    schema (a full upstream shuffle, twice, just for column types).
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    from odibel_ray.cdc.lww import bucket_of_keys

    on = [on] if isinstance(on, str) else list(on)
    l_schema: pa.Schema = left_schema or left.schema().base_schema
    r_schema: pa.Schema = right_schema or right.schema().base_schema
    l_cols = list(l_schema.names)
    r_cols = list(r_schema.names) if how not in ("semi", "anti") else list(on)
    all_cols = l_cols + [c for c in r_cols if c not in l_cols]

    def _tag(side: int, schema_self: pa.Schema, schema_other: pa.Schema):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            cols = {}
            for c in all_cols:
                if c in t.column_names:
                    cols[c] = t[c]
                else:
                    typ = (
                        schema_other.field(c).type
                        if schema_other.get_field_index(c) >= 0
                        else pa.null()
                    )
                    cols[c] = pa.nulls(len(t), typ)
            out = pa.table(cols)
            out = out.append_column(
                "_side", pa.array(np.full(len(t), side, np.int8))
            )
            b = bucket_of_keys(out, on, num_buckets)
            return out.append_column("_jbucket", pa.array(b, pa.int64()))

        return f

    tagged_l = left.map_batches(
        _tag(0, l_schema, r_schema), batch_format="pyarrow", batch_size=batch_size
    )
    tagged_r = right.map_batches(
        _tag(1, r_schema, l_schema), batch_format="pyarrow", batch_size=batch_size
    )
    join_type = {
        "inner": "inner",
        "left": "left outer",
        "outer": "full outer",
        "semi": "left semi",
        "anti": "left anti",
    }[how]

    def merge(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        lt = g.filter(pa.array(side == 0)).select(l_cols)
        rt = g.filter(pa.array(side == 1)).select(r_cols)
        if how in ("semi", "anti"):
            # only key existence matters; distinct the probe set first
            rt = rt.group_by(on).aggregate([])
        if left_distinct and len(lt) > 1:
            keys = np.column_stack(
                [lt[c].to_numpy(zero_copy_only=False) for c in left_distinct]
            )
            order = np.lexsort(keys.T[::-1])
            srt = keys[order]
            first = np.ones(len(lt), dtype=bool)
            first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
            if left_distinct_max:
                # keep rows in group order so reduceat output aligns 1:1
                starts = np.flatnonzero(first)
                agg = {
                    c: np.maximum.reduceat(
                        lt[c].to_numpy(zero_copy_only=False)[order], starts
                    )
                    for c in left_distinct_max
                }
                lt = lt.take(pa.array(order[first]))
                for c, v in agg.items():
                    lt = lt.set_column(
                        lt.schema.get_field_index(c), c, pa.array(v)
                    )
            else:
                lt = lt.take(pa.array(np.sort(order[first])))
        return lt.join(rt, keys=on, join_type=join_type, right_suffix=suffix)

    return tagged_l.union(tagged_r).groupby("_jbucket").map_groups(
        merge, batch_format="pyarrow"
    )


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str] | str,
    ts_col: str,
    *,
    value_cols: Sequence[str],
    num_buckets: int | None = None,
    batch_size: int = 65536,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """As-of join (latest right row with ``right.ts <= left.ts`` per key) —
    the temporal lookup Ray Data lacks, DuckDB ``ASOF LEFT JOIN`` semantics.

    Both sides hash-bucket on the key and co-locate in one sort-shuffle; the
    per-bucket kernel sorts the union by (key, ts, side — right first at
    ties), forward-propagates the last right row index with
    ``np.maximum.accumulate``, and gathers ``value_cols`` for left rows (null
    when the key has no right row at or before the timestamp). Right rows must
    be unique per (key, ts).
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    from odibel_ray.cdc.lww import bucket_of_keys

    on = [on] if isinstance(on, str) else list(on)
    value_cols = list(value_cols)
    l_schema: pa.Schema = left_schema or left.schema().base_schema
    r_schema: pa.Schema = right_schema or right.schema().base_schema
    l_cols = list(l_schema.names)

    def _tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            cols = {}
            for c in on + [ts_col]:
                cols[c] = t[c]
            for c in value_cols:
                cols[c] = (
                    t[c] if c in t.column_names
                    else pa.nulls(len(t), r_schema.field(c).type)
                )
            for c in l_cols:
                if c in cols:
                    continue
                cols[c] = (
                    t[c] if c in t.column_names
                    else pa.nulls(len(t), l_schema.field(c).type)
                )
            out = pa.table(cols)
            out = out.append_column("_side", pa.array(np.full(len(t), side, np.int8)))
            b = bucket_of_keys(out, on, num_buckets)
            return out.append_column("_abucket", pa.array(b, pa.int64()))

        return f

    tagged = left.map_batches(
        _tag(1), batch_format="pyarrow", batch_size=batch_size
    ).union(
        right.map_batches(_tag(0), batch_format="pyarrow", batch_size=batch_size)
    )

    def merge(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        sort_keys = [(k, "ascending") for k in on] + [
            (ts_col, "ascending"),
            ("_side", "ascending"),  # right (0) before left (1) at equal ts
        ]
        g = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        n = len(g)
        side = g["_side"].to_numpy(zero_copy_only=False)
        is_right = side == 0
        idx = np.arange(n, dtype=np.int64)
        last_right = np.maximum.accumulate(np.where(is_right, idx, -1))
        key_change = np.ones(n, dtype=bool)
        for k in on:
            eq = pc.equal(g[k].slice(1), g[k].slice(0, n - 1))
            key_change[1:] &= ~pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
        key_start = np.maximum.accumulate(np.where(key_change, idx, 0))
        valid = last_right >= key_start
        lmask = ~is_right
        out = g.filter(pa.array(lmask)).select(l_cols)
        take = pa.array(np.maximum(last_right[lmask], 0), pa.int64())
        ok = pa.array(valid[lmask])
        for c in value_cols:
            vals = pc.if_else(ok, g[c].take(take), pa.nulls(int(lmask.sum()), g[c].type))
            out = out.append_column(c, vals)
        return out

    return tagged.groupby("_abucket").map_groups(merge, batch_format="pyarrow")


def _lex_insertion_index(
    pk: np.ndarray, pts_ts: np.ndarray, qk: np.ndarray, qv: np.ndarray
) -> np.ndarray:
    """Vectorized two-column searchsorted: for each query ``(qk[j], qv[j])``
    the count of points with ``(pk, ts)`` lexicographically < the query —
    i.e. the ``side='left'`` insertion index into the (key, ts)-sorted point
    array. One merge-lexsort over points + queries; no 64-bit key/ts packing
    (which would overflow int64)."""
    n, m = len(pk), len(qk)
    keys = np.concatenate([pk, qk])
    vals = np.concatenate([pts_ts, qv])
    # on ties a query slots BEFORE equal points (side='left')
    side = np.concatenate([np.ones(n, np.int8), np.zeros(m, np.int8)])
    order = np.lexsort((side, vals, keys))
    is_pt = (side[order] == 1).astype(np.int64)
    before = np.cumsum(is_pt) - is_pt  # points strictly before each slot
    rank = np.empty(n + m, np.int64)
    rank[order] = np.arange(n + m, dtype=np.int64)
    return before[rank[n:]]


def _same_key_pairs(
    a: pa.Table, a_idx: np.ndarray, b: pa.Table, b_idx: np.ndarray, on: Sequence[str]
) -> np.ndarray:
    """``keep[j]`` = row ``a_idx[j]`` of ``a`` and row ``b_idx[j]`` of ``b``
    have equal ``on`` columns (null == null, as the key hash has it). Run
    after a kernel expands candidates by a 62-bit key hash, so a hash
    collision between two keys never pairs their rows."""
    keep = np.ones(len(a_idx), dtype=bool)
    for k in on:
        x, y = a[k].take(pa.array(a_idx)), b[k].take(pa.array(b_idx))
        eq = pc.or_(pc.fill_null(pc.equal(x, y), False), pc.and_(pc.is_null(x), pc.is_null(y)))
        keep &= eq.to_numpy(zero_copy_only=False)
    return keep


def range_join(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    on: Sequence[str] | str,
    ts_col: str,
    start_col: str,
    end_col: str,
    *,
    payload_cols: Sequence[str],
    num_buckets: int | None = None,
    batch_size: int = 65536,
    points_schema: pa.Schema | None = None,
    intervals_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Keyed range join: every point row pairs with every interval of the same
    key whose ``[start, end)`` contains its timestamp (inequality-join
    semantics Ray Data lacks).

    Both sides co-locate in one key-hash shuffle; the per-bucket kernel sorts
    points by (key, ts) once, then resolves ALL intervals to contiguous point
    spans with two batched lexicographic searchsorted passes
    (:func:`_lex_insertion_index`) and emits the spans — no point×interval
    comparison and no per-interval Python loop. Assumes a key's points+intervals fit one
    worker (the same group-locality contract as every ``map_groups`` kernel;
    at corpus scale add a coarse time-bucket to the key like
    :func:`odibel_ray.ops.aggregates.sliding_window_counts`).
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    from odibel_ray.cdc.lww import bucket_of_keys

    on = [on] if isinstance(on, str) else list(on)
    payload_cols = list(payload_cols)
    p_schema: pa.Schema = points_schema or points.schema().base_schema
    i_schema: pa.Schema = intervals_schema or intervals.schema().base_schema
    p_cols = list(p_schema.names)
    all_cols = on + [c for c in p_cols if c not in on]

    def _tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            cols = {}
            for c in all_cols:
                cols[c] = (
                    t[c] if c in t.column_names
                    else pa.nulls(len(t), p_schema.field(c).type)
                )
            for c in [start_col, end_col] + payload_cols:
                cols[c] = (
                    t[c] if c in t.column_names
                    else pa.nulls(len(t), i_schema.field(c).type)
                )
            out = pa.table(cols)
            out = out.append_column("_side", pa.array(np.full(len(t), side, np.int8)))
            b = bucket_of_keys(out, on, num_buckets)
            return out.append_column("_rbucket", pa.array(b, pa.int64()))

        return f

    tagged = points.map_batches(
        _tag(0), batch_format="pyarrow", batch_size=batch_size
    ).union(
        intervals.map_batches(_tag(1), batch_format="pyarrow", batch_size=batch_size)
    )

    def merge(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        pts = g.filter(pa.array(side == 0)).select(p_cols)
        ivs = g.filter(pa.array(side == 1)).select(on + [start_col, end_col] + payload_cols)
        empty = pa.table(
            {
                **{c: pa.chunked_array([[]], p_schema.field(c).type) for c in p_cols},
                **{
                    c: pa.chunked_array([[]], i_schema.field(c).type)
                    for c in payload_cols
                },
            }
        )
        if len(pts) == 0 or len(ivs) == 0:
            return empty
        # sort points by (key, ts) once; per interval two searchsorted probes
        sort_keys = [(k, "ascending") for k in on] + [(ts_col, "ascending")]
        pts = pts.take(pc.sort_indices(pts, sort_keys=sort_keys))
        pts_ts = pts[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # key runs are delimited by a 62-bit key hash on both sides; a
        # same-bucket hash collision merges two keys' runs, so the expanded
        # pairs are checked against the real key tuple below
        pk = bucket_of_keys(pts, on, 1 << 62)
        ik = bucket_of_keys(ivs, on, 1 << 62)
        # keys sorted ascending ⇒ (pk, ts) lexicographic within the bucket
        order = np.lexsort((pts_ts, pk))
        pts = pts.take(pa.array(order))
        pts_ts = pts_ts[order]
        pk = pk[order]
        starts = ivs[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ends = ivs[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # batched lexicographic searchsorted: every interval endpoint resolves
        # to its insertion index in the (key, ts)-sorted point array in ONE
        # merge-lexsort over points + endpoints — no per-interval Python loop,
        # so interval tables the size of the fact table stay vectorized
        a = _lex_insertion_index(pk, pts_ts, ik, starts)
        b = _lex_insertion_index(pk, pts_ts, ik, ends)
        counts = b - a  # a == b when the interval's key has no points in range
        total = int(counts.sum())
        if total == 0:
            return empty
        i_idx_np = np.repeat(np.arange(len(ivs), dtype=np.int64), counts)
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        p_idx_np = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg_starts, counts)
            + np.repeat(a, counts)
        )
        keep = _same_key_pairs(pts, p_idx_np, ivs, i_idx_np, on)
        p_idx = pa.array(p_idx_np[keep])
        i_idx = pa.array(i_idx_np[keep])
        out = pts.take(p_idx)
        for c in payload_cols:
            out = out.append_column(c, ivs[c].take(i_idx))
        return out

    return tagged.groupby("_rbucket").map_groups(merge, batch_format="pyarrow")


def interval_overlap_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str] | str,
    *,
    start_col: str = "start",
    end_col: str = "end",
    left_payload: Sequence[str] = (),
    right_payload: Sequence[str] = (),
    suffix: str = "_r",
    num_buckets: int | None = None,
    batch_size: int = 65536,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> "ray.data.Dataset":
    """Keyed interval-OVERLAP join (interval × interval — the inequality
    join neither Ray Data nor :func:`range_join` covers): every pair of a
    left and a right interval with the same key and
    ``l.start < r.end AND r.start < l.end`` (half-open ``[start, end)``
    overlap). Output: key cols + left ``start``/``end``/payloads + right
    columns with ``suffix``.

    Shape mirrors :func:`range_join`: one key-hash shuffle co-locates both
    sides; the per-bucket kernel sorts LEFT by (key, start) once, resolves
    every right interval's candidate run with two batched searchsorted
    passes (key-run start; ``l.start < r.end`` bound via
    :func:`_lex_insertion_index`) and filters the expanded candidates on
    ``l.end > r.start`` — vectorized end to end. Per-key cost is
    O(candidate pairs): bounded for time-clustered intervals; for dense
    always-overlapping keys the OUTPUT itself is quadratic, and the
    standard mitigation is a coarse time-bucket appended to the key (same
    note as :func:`range_join`)."""
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    from odibel_ray.cdc.lww import bucket_of_keys

    on = [on] if isinstance(on, str) else list(on)
    left_payload = list(left_payload)
    right_payload = list(right_payload)
    l_schema: pa.Schema = left_schema or left.schema().base_schema
    r_schema: pa.Schema = right_schema or right.schema().base_schema
    l_cols = on + [start_col, end_col] + left_payload
    r_cols = on + [start_col, end_col] + right_payload
    all_cols = on + [start_col, end_col] + [
        c for c in left_payload + right_payload
    ]

    def _tag(side: int, schema: pa.Schema):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            cols = {}
            for c in all_cols:
                if c in t.column_names:
                    cols[c] = t[c]
                else:
                    other = r_schema if side == 0 else l_schema
                    typ = (
                        other.field(c).type
                        if other.get_field_index(c) >= 0
                        else pa.null()
                    )
                    cols[c] = pa.nulls(len(t), typ)
            out = pa.table(cols)
            out = out.append_column(
                "_side", pa.array(np.full(len(t), side, np.int8))
            )
            b = bucket_of_keys(out, on, num_buckets)
            return out.append_column("_obucket", pa.array(b, pa.int64()))

        return f

    tagged = left.map_batches(
        _tag(0, l_schema), batch_format="pyarrow", batch_size=batch_size
    ).union(
        right.map_batches(_tag(1, r_schema), batch_format="pyarrow",
                          batch_size=batch_size)
    )

    out_names = (
        l_cols
        + [start_col + suffix, end_col + suffix]
        + [c + suffix for c in right_payload]
    )

    def merge(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        lt = g.filter(pa.array(side == 0)).select(l_cols)
        rt = g.filter(pa.array(side == 1)).select(r_cols)
        empty_cols = {}
        for c in l_cols:
            empty_cols[c] = pa.chunked_array([[]], l_schema.field(c).type)
        for c in [start_col, end_col] + right_payload:
            empty_cols[c + suffix] = pa.chunked_array(
                [[]], r_schema.field(c).type
            )
        empty = pa.table(empty_cols)
        if len(lt) == 0 or len(rt) == 0:
            return empty
        lk = bucket_of_keys(lt, on, 1 << 62)
        ls = lt[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ls, lk))
        lt = lt.take(pa.array(order))
        lk, ls = lk[order], ls[order]
        le = lt[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        rk = bucket_of_keys(rt, on, 1 << 62)
        rs = rt[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        re_ = rt[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo = np.searchsorted(lk, rk, side="left")
        hi = _lex_insertion_index(lk, ls, rk, re_)  # l.start < r.end bound
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return empty
        r_idx = np.repeat(np.arange(len(rt), dtype=np.int64), counts)
        seg = np.concatenate(([0], np.cumsum(counts)[:-1]))
        l_idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg, counts)
            + np.repeat(lo, counts)
        )
        keep = le[l_idx] > rs[r_idx]  # the second overlap bound
        l_idx, r_idx = l_idx[keep], r_idx[keep]
        keep = _same_key_pairs(lt, l_idx, rt, r_idx, on)  # a hash collision
        l_idx, r_idx = l_idx[keep], r_idx[keep]
        out = lt.take(pa.array(l_idx))
        for c in [start_col, end_col] + right_payload:
            out = out.append_column(c + suffix, rt[c].take(pa.array(r_idx)))
        return out.rename_columns(out_names)

    return tagged.groupby("_obucket").map_groups(merge, batch_format="pyarrow")


def bag_set_op(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    cols: Sequence[str],
    *,
    op: str = "intersect",
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """SQL ``INTERSECT ALL`` / ``EXCEPT ALL`` — multiset (bag) semantics over
    the ``cols`` tuples: intersect keeps each tuple ``min(cnt_l, cnt_r)``
    times, except keeps it ``max(cnt_l − cnt_r, 0)`` times (the DISTINCT
    variants are :func:`exact_dedup` compositions).

    Scale shape: each side collapses to per-batch (tuple, count) partials
    BEFORE the one shared groupby exchange (combiner-first, like
    :func:`exact_dedup`), and the output multiplicity is re-expanded with a
    vectorized ``repeat`` inside the per-group kernel — no row ever moves
    more than once.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"unknown bag set op: {op!r}")
    cols = list(cols)

    def _count_side(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.select(cols).combine_chunks()
            g = t.group_by(cols).aggregate([([], "count_all")])
            g = g.rename_columns(cols + ["cnt"])
            n = len(g)
            return g.append_column("_side", pa.array(np.full(n, side, np.int64)))
        return f

    tagged = left.map_batches(
        _count_side(0), batch_format="pyarrow", batch_size=batch_size
    ).union(right.map_batches(
        _count_side(1), batch_format="pyarrow", batch_size=batch_size
    ))

    def _resolve(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        tup = g.select(cols).slice(0, 1)  # the group IS one distinct tuple
        cl = int(cnt[side == 0].sum())
        cr = int(cnt[side == 1].sum())
        k = min(cl, cr) if op == "intersect" else max(cl - cr, 0)
        if k == 0:
            return tup.slice(0, 0)
        return tup.take(pa.array(np.zeros(k, np.int64)))

    return tagged.groupby(cols).map_groups(_resolve, batch_format="pyarrow")


def exact_dedup(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    *,
    tie_break: str | Sequence[str] | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Exact dedup: one representative row per distinct ``keys`` value —
    hash-shuffle then per-group first (``distinct``/``dropDuplicates`` analog,
    SURVEY.md §2.7 D3). ``tie_break`` picks the lexicographic min of those
    column(s) as the representative (deterministic); default is min over all
    non-key columns' sort order.

    Pre-compaction: each batch first dedups locally (combiner), so the shuffle
    moves one row per (batch, key) instead of every row.
    """
    from odibel_ray.cdc.lww import bucket_of_keys

    keys = list(keys)

    def local(t: pa.Table) -> pa.Table:
        t = _first_per_key(t.combine_chunks(), keys, tie_break)
        b = bucket_of_keys(t, keys, 64)
        return t.append_column("_bucket", pa.array(b, pa.int64()))

    def final(t: pa.Table) -> pa.Table:
        return _first_per_key(t.combine_chunks(), keys, tie_break).drop_columns(["_bucket"])

    ds = ds.map_batches(local, batch_format="pyarrow", batch_size=batch_size)
    return ds.groupby("_bucket").map_groups(final, batch_format="pyarrow")


def _first_per_key(
    t: pa.Table, keys: Sequence[str], tie_break: str | Sequence[str] | None
) -> pa.Table:
    if len(t) <= 1:
        return t
    ties = [tie_break] if isinstance(tie_break, str) else list(tie_break or [])
    sort_cols = list(keys) + [c for c in ties if c not in keys]
    t = t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in sort_cols]))
    n = len(t)
    same_prev = np.ones(n, dtype=bool)
    same_prev[0] = False
    for k in keys:
        eq = pc.equal(t[k].slice(1), t[k].slice(0, n - 1))
        same_prev[1:] &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
    return t.filter(pa.array(~same_prev))


def deterministic_sample(
    ds: "ray.data.Dataset",
    key_col: str,
    pct: int,
    *,
    modulus: int = 100,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Deterministic pseudo-random sample: keep rows where
    ``(key * 2654435761) mod 2^32 mod modulus < pct``. Replaces the reference's
    non-reproducible ``orderBy(rand(seed)).limit(n)`` (``rdf2.py:413-414``) with
    a seedable arithmetic filter that an SQL oracle can replicate exactly and
    that is stable under retries/repartitioning (SURVEY.md §2.6 O5)."""

    def f(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = ((k * _KNUTH) % np.uint64(2**32)) % np.uint64(modulus) < pct
        return t.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def stratified_sample(
    ds: "ray.data.Dataset",
    key_col: str,
    group_col: str,
    rates: dict,
    *,
    default_pct: int = 100,
    modulus: int = 100,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Per-group deterministic sampling — the data-MIXING primitive of a
    training corpus (keep 100% of the rare language, 25% of the dominant
    one): a row survives when its :func:`deterministic_sample` hash falls
    under ITS GROUP's rate. Same arithmetic rule as the flat sampler, so an
    SQL oracle replicates it with a CASE expression, and the choice is
    stable under retries/repartitioning (no RNG state). One vectorized
    pass: group→rate resolves via ``pc.index_in`` against the rate table,
    never a Python per-row lookup."""
    keys = list(rates.keys())
    pcts = np.array([int(rates[k]) for k in keys] + [int(default_pct)], dtype=np.int64)

    def f(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((k * _KNUTH) % np.uint64(2**32)) % np.uint64(modulus)
        idx = pc.index_in(t[group_col], value_set=pa.array(keys))
        idx = pc.fill_null(idx, len(keys)).to_numpy(zero_copy_only=False)
        keep = h.astype(np.int64) < pcts[idx]
        return t.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def rarity_first_sample(
    ds: "ray.data.Dataset",
    type_col: str,
    key_col: str,
    per_type: int,
    *,
    max_types: int | None = None,
) -> "ray.data.Dataset":
    """O7 rarity-first type-target sampling (``rdf2.py:259-392``),
    deterministic and fully distributed — no per-type dataset re-scans, no
    driver key sets:

    1. type frequencies (one groupby; the type list is dimension-sized, so
       ranking it rarest-first on the driver and broadcasting the rank map is
       legitimate);
    2. each distinct key is assigned to its RAREST type (min-rank dedup —
       rarer types get first claim on shared keys);
    3. per type, the ``per_type`` smallest assigned keys are selected.

    The reference's loop anti-joined against an accumulating driver-side
    selection and used non-reproducible ``rand()`` sampling; this rule is one
    pass + two key shuffles and exactly SQL-replicable (window functions)."""
    freq = sorted(
        ((r[type_col], r["n"]) for r in _group_count(ds, type_col).take_all()),
        key=lambda x: (x[1], str(x[0])),
    )
    if max_types:
        freq = freq[:max_types]
    types_arr = pa.array([t for t, _ in freq])  # position == rarity rank

    def add_rank(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        idx = pc.index_in(t[type_col], value_set=types_arr)
        keep = pc.is_valid(idx)  # types beyond max_types are dropped
        t = t.filter(keep)
        idx = pc.cast(pc.index_in(t[type_col], value_set=types_arr), pa.int64())
        return t.append_column("_rank", idx)

    keyed = exact_dedup(ds.select_columns([type_col, key_col]), [type_col, key_col])
    ranked = keyed.map_batches(add_rank, batch_format="pyarrow")
    assigned = exact_dedup(ranked, [key_col], tie_break="_rank")
    picks = topk_per_group(
        assigned, [type_col], key_col, per_type, descending=False
    )
    return picks.select_columns([type_col, key_col])


def _group_count(ds, key):
    from ray.data.aggregate import Count

    return ds.groupby(key).aggregate(Count(alias_name="n"))


def topk(
    ds: "ray.data.Dataset",
    key: str,
    k: int,
    *,
    descending: bool = True,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Global top-k by ``key`` (``orderBy(desc).limit(k)`` analog, §2.6 O2).

    Each batch keeps its local top-k (combiner) before the global sort+limit, so
    the sort sees ≤ k rows per batch, not the full table.
    """
    order = "descending" if descending else "ascending"

    def local(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if len(t) <= k:
            return t
        idx = pc.select_k_unstable(t, k, sort_keys=[(key, order)])
        return t.take(idx)

    ds = ds.map_batches(local, batch_format="pyarrow", batch_size=batch_size)
    return ds.sort(key, descending=descending).limit(k)


def topk_per_group(
    ds: "ray.data.Dataset",
    group_keys: Sequence[str],
    order_key: str,
    k: int,
    *,
    descending: bool = True,
    tie_break: Sequence[str] = (),
) -> "ray.data.Dataset":
    """Per-group top-k (window ``row_number() <= k`` analog, ``rdf2.py:370-380``).
    Deterministic: ties broken by ``tie_break`` columns ascending."""
    group_keys = list(group_keys)
    order = "descending" if descending else "ascending"

    def pick(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        sort_keys = (
            [(g, "ascending") for g in group_keys]
            + [(order_key, order)]
            + [(c, "ascending") for c in tie_break]
        )
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        n = len(t)
        rank = np.zeros(n, dtype=np.int64)
        if n > 1:
            same_prev = np.ones(n - 1, dtype=bool)
            for g in group_keys:
                eq = pc.equal(t[g].slice(1), t[g].slice(0, n - 1))
                same_prev &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
            # rank[i] = rank[i-1]+1 where same group else 0: segmented cumsum
            idx = np.arange(n)
            seg_start = np.concatenate(([0], idx[1:][~same_prev]))
            starts = np.zeros(n, dtype=np.int64)
            starts[seg_start] = seg_start
            starts = np.maximum.accumulate(starts)
            rank = idx - starts
        return t.filter(pa.array(rank < k))

    return ds.groupby(group_keys[0] if len(group_keys) == 1 else group_keys).map_groups(
        pick, batch_format="pyarrow"
    )
