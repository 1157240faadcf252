"""Key-generic LWW replay kernels — the transcript-agnostic core of the engine.

The transcript pipeline (:mod:`odibel_ray.cdc.apply`) binds these semantics to
the ``(conv_id, turn_idx)`` key and the schema-evolution timeline; this module
exposes the same per-key last-writer-wins machinery for *any* key columns and
LSN column, so any ordered change stream (e.g. the ``events`` test table
re-interpreted as a binlog) replays through the identical code path.

Reference semantics being reproduced (see SURVEY.md §2.3):

- per-key upsert state + keep-latest — ``TemporalWindowBuilder.scala:37-50``
  (the HashMap ``put`` overwrite is our keep-last kernel,
  :func:`keep_last_indices`: one sort of integer key codes, then a
  neighbour compare);
- delete closes the key — tombstone rows dropped at convergence;
- validity windows ``[lsn, next_lsn)`` with ``INT64_MAX`` open-window sentinel —
  ``TemporalWindowBuilder.scala:89-99`` / ``data/TemporalExtractionResult.scala:13``;
- snapshot-at-T containment filter — ``eval/EvalFunctions.scala:66-84``;
- full-outer-join diff classification — ``eval/SnapshotEval.scala:132-160``.

Everything is vectorized Arrow/numpy; no per-row Python in any hot path. The
shuffle key is ``hash(key columns) % num_buckets`` — all events of one key land
in one group, so group-local sort gives a total per-key order (Ray Data gives
no intra-block order guarantee; SURVEY.md §7 "hard parts" (a)).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

INT64_MAX = (1 << 63) - 1
_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mix for key combining


def bucket_of_keys(
    t: pa.Table, keys: Sequence[str], num_buckets: int
) -> np.ndarray:
    """Deterministic per-row bucket from one or more key columns (vectorized)."""
    # num_buckets must be resolved DRIVER-SIDE (tuning.default_num_buckets)
    # before this ships in a closure: resolving per-task would let a cluster
    # resize mid-run split one key across two bucket values.
    if num_buckets is None:
        raise TypeError("num_buckets unresolved — call tuning.default_num_buckets driver-side")
    h = np.zeros(len(t), dtype=np.uint64)
    for k in keys:
        col = t[k].to_numpy(zero_copy_only=False)
        h = h * _MIX + pd.util.hash_array(col, categorize=False)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _same_next_key_mask(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """``same[i]`` = row i and i+1 share the key (t sorted by keys, 1 chunk).

    Null-SAFE: ``null == null`` counts as the same key (SQL ``IS NOT
    DISTINCT FROM``), matching the modules' null-equality rule for compare
    columns — otherwise every null-keyed row looks distinct and LWW keeps
    all of its stale versions (``sort_indices`` groups nulls together, so
    the neighbor compare is valid for them too)."""
    n = len(t)
    same = np.ones(max(n - 1, 0), dtype=bool)
    for k in keys:
        hi, lo = t[k].slice(1), t[k].slice(0, n - 1)
        eq = pc.fill_null(pc.equal(hi, lo), False)
        both_null = pc.and_(pc.is_null(hi), pc.is_null(lo))
        same &= pc.or_(eq, both_null).to_numpy(zero_copy_only=False)
    return same


def _coded(type_: pa.DataType) -> bool:
    """Whether :func:`_codes` of a column of ``type_`` has the key equality
    of :func:`_same_next_key_mask`. True for string, binary, integer,
    temporal and boolean types. Not for floating-point ones: a dictionary
    keeps -0.0 and 0.0 apart, where ``pc.equal`` has them equal, and folds
    every NaN into one code, where NaN != NaN."""
    return (pa.types.is_string(type_) or pa.types.is_large_string(type_)
            or pa.types.is_binary(type_) or pa.types.is_large_binary(type_)
            or pa.types.is_integer(type_) or pa.types.is_boolean(type_)
            or pa.types.is_timestamp(type_) or pa.types.is_date(type_)
            or pa.types.is_time(type_) or pa.types.is_duration(type_))


def _codes(col: pa.ChunkedArray) -> tuple[np.ndarray, int]:
    """Order-preserving int64 codes of ``col`` and their count: each value's
    rank among its sorted distinct values, null one past the last, so codes
    sort as ``pc.sort_indices`` sorts the values (nulls at the end)."""
    enc = pc.dictionary_encode(col.combine_chunks(), null_encoding="encode")
    m = len(enc.dictionary)
    rank = np.empty(m, dtype=np.int64)
    rank[pc.sort_indices(enc.dictionary).to_numpy()] = np.arange(m)
    return rank[enc.indices.to_numpy()], m


def _packed(t: pa.Table, keys: Sequence[str], lsn_col: str) -> tuple[np.ndarray, int] | None:
    """Each row's key codes, LSN and row number packed into one int64, and
    the stride ``s`` that recovers the key part (``packed // s``); None when
    a key or the LSN column is not of a :func:`_coded` type or the packed
    width would reach 2**63 (a very wide LSN span). An integer LSN with no
    nulls is its own code. The packed values are distinct, so an unstable
    sort of them gives the stable (key, LSN) order."""
    n = len(t)
    if not all(_coded(t.schema.field(c).type) for c in (*keys, lsn_col)):
        return None
    col = t[lsn_col]
    if pa.types.is_integer(col.type) and col.type != pa.uint64() and col.null_count == 0:
        lsn = col.to_numpy().astype(np.int64, copy=False)
        lo = int(lsn.min())
        lsn_m = int(lsn.max()) - lo + 1
    else:
        (lsn, lsn_m), lo = _codes(col), 0
    codes = [_codes(t[k]) for k in keys]
    if n * lsn_m * math.prod(m for _, m in codes) >= 1 << 63:
        return None
    key = np.zeros(n, dtype=np.int64)
    for c, m in codes:
        key = key * m + c
    return (key * lsn_m + (lsn - lo)) * n + np.arange(n), lsn_m * n


def keep_last_indices(t: pa.Table, keys: Sequence[str], lsn_col: str = "lsn") -> np.ndarray:
    """Row indices of ``t``'s max-LSN row per key, in (key, LSN) order: the
    LWW kernel of :func:`keep_last_per_key`. Reads only the key and LSN
    columns. Null keys are one key; of two rows with the same key and LSN
    the later one in ``t`` wins.

    When every key and the LSN column has a :func:`_coded` type and their
    codes fit in one int64 (:func:`_packed`), the rows are ordered by one
    ``np.sort`` of the packed codes, and a row is its key's last when the
    next row's key part differs. Otherwise (floating-point, decimal, nested
    types, or a packed width past 2**63) the Arrow path runs: a stable
    ``pc.sort_indices`` on the keys and LSN, then
    :func:`_same_next_key_mask` on the sorted key columns."""
    n = len(t)
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    packed = _packed(t, keys, lsn_col)
    if packed is None:
        cols = [*keys, lsn_col]
        narrow = t.select(cols).combine_chunks()
        order = pc.sort_indices(narrow, sort_keys=[(c, "ascending") for c in cols])
        same = _same_next_key_mask(narrow.take(order), keys)
        return order.to_numpy()[np.append(~same, True)]
    rows, stride = packed
    rows = np.sort(rows)
    key = rows // stride
    return (rows % n)[np.append(key[1:] != key[:-1], True)]


def keep_last_per_key(t: pa.Table, keys: Sequence[str], lsn_col: str = "lsn") -> pa.Table:
    """Keep the max-LSN row per key: vectorized LWW, and the one keep-last
    every bucket write runs (a transcript apply or combiner, a base ∪
    deltas merge, a generic upsert). One ``take`` of
    :func:`keep_last_indices`, which orders the rows on order-preserving
    integer codes of the key columns and the LSN, one numpy sort
    (floating-point and other uncoded key types fall back to
    ``pc.sort_indices``), so the wide columns are copied once. Null keys are one key. The sort is stable, so
    of two rows with the same key and LSN the later one in ``t`` wins. Rows
    are returned in key order; tombstones are kept."""
    if len(t) <= 1:
        return t
    return t.take(keep_last_indices(t, keys, lsn_col))


def lww_latest(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    *,
    lsn_col: str = "lsn",
    op_col: str = "op",
    delete_op: str = "D",
    num_buckets: int | None = None,
    precompact: bool = True,
    batch_size: int = 65536,
    drop_op: bool = True,
    salt: int | None = None,
) -> "ray.data.Dataset":
    """Converged LWW state of a change stream: latest row per key, tombstones
    dropped. ``ds`` must carry ``keys``, ``lsn_col`` and ``op_col`` columns.

    ``precompact`` runs the within-batch combiner before the shuffle (keeps
    tombstones — they must survive to the final merge), cutting shuffle volume
    by the update ratio.

    ``salt``: hot-key sub-partitioning (SURVEY.md §4 "skew"). Stage 1 compacts
    per ``(bucket, salt = lsn % salt)`` — a hot key's events split across
    ``salt`` groups, each keeping its own max-LSN row *including tombstones* —
    then stage 2 re-merges per bucket over the (≤ salt rows per key) residue.
    LWW keep-last is associative in LSN order, so the result is identical.
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    keys = list(keys)

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        b = bucket_of_keys(t, keys, num_buckets)
        t = t.append_column("bucket", pa.array(b, pa.int64()))
        if salt:
            s = t[lsn_col].to_numpy(zero_copy_only=False) % salt
            t = t.append_column("salt", pa.array(s.astype(np.int64)))
        return t

    def compact(t: pa.Table) -> pa.Table:
        return keep_last_per_key(t, keys, lsn_col)

    def compact_drop_salt(t: pa.Table) -> pa.Table:
        return keep_last_per_key(t, keys, lsn_col).drop_columns(["salt"])

    def finish(t: pa.Table) -> pa.Table:
        t = keep_last_per_key(t, keys, lsn_col)
        t = t.filter(pc.not_equal(t[op_col], delete_op))
        drop = ["bucket"] + ([op_col] if drop_op else [])
        return t.drop_columns(drop)

    ds = ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=batch_size)
    if precompact:
        ds = ds.map_batches(compact, batch_format="pyarrow", batch_size=batch_size)
    if salt:
        ds = ds.groupby(["bucket", "salt"]).map_groups(
            compact_drop_salt, batch_format="pyarrow"
        )
    return ds.groupby("bucket").map_groups(finish, batch_format="pyarrow")


def snapshot_at(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    at_lsn: int,
    **kwargs,
) -> "ray.data.Dataset":
    """Converged state as of ``lsn <= at_lsn`` (time-travel read of the stream;
    snapshot filter analog of ``eval/EvalFunctions.scala:66-84``)."""
    lsn_col = kwargs.get("lsn_col", "lsn")
    ds = ds.filter(expr=f"{lsn_col} <= {int(at_lsn)}")
    return lww_latest(ds, keys, **kwargs)


def change_windows(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    *,
    lsn_col: str = "lsn",
    op_col: str = "op",
    delete_op: str = "D",
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Version-history windows: every non-delete event opens ``[lsn, next_lsn)``
    for its key; the live version carries ``lsn_end = INT64_MAX`` (open-window
    sentinel, ``TemporalWindowBuilder.scala:92``). Deletes close the previous
    window and emit no row."""
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    keys = list(keys)

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        b = bucket_of_keys(t, keys, num_buckets)
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def windows(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        sort_keys = [(k, "ascending") for k in (*keys, lsn_col)]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        n = len(t)
        lsn = t[lsn_col].to_numpy(zero_copy_only=False)
        next_same = np.zeros(n, dtype=bool)
        if n > 1:
            next_same[: n - 1] = _same_next_key_mask(t, keys)
        lsn_end = np.where(next_same, np.roll(lsn, -1), INT64_MAX)
        out = t.rename_columns(
            [c if c != lsn_col else "lsn_start" for c in t.column_names]
        ).append_column("lsn_end", pa.array(lsn_end, pa.int64()))
        out = out.filter(pc.not_equal(out[op_col], delete_op))
        return out.drop_columns(["bucket", op_col])

    ds = ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=batch_size)
    return ds.groupby("bucket").map_groups(windows, batch_format="pyarrow")


def change_feed_group(t: pa.Table, keys: Sequence[str], values: Sequence[str]) -> pa.Table:
    """The pairing kernel of :func:`change_feed` for one group, and of every
    bucket write's change feed: ``t`` holds both states' rows of some keys,
    ``keys + values`` plus a ``_side`` column (-1 old, +1 new), at most one
    row per key per side. Sort on the keys and ``_side``, then pair
    neighbours: a key on one side only is a delete or an insert, a key on
    both sides whose values differ (null == null counts as equal; nested
    values compare as Python values) is an update. Null keys are one key.
    Returns ``*keys, change, {v}_before, {v}_after`` rows.

    When ``t`` also carries ``_op`` and ``_lsn``, its new side is a change
    set, a bucket write's LWW winners (``sink._write_bucket``): a
    tombstone (``_op = 'D'``) there counts as absent, an old row whose key
    the new side does not carry is unchanged, and every feed row ends with
    its new-side row's ``_lsn``."""
    t = t.combine_chunks()
    sort_keys = [(k, "ascending") for k in keys] + [("_side", "ascending")]
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    n = len(t)
    same_next = np.zeros(n, dtype=bool)
    if n > 1:
        same_next[: n - 1] = _same_next_key_mask(t, keys)
    same_prev = np.zeros(n, dtype=bool)
    same_prev[1:] = same_next[: n - 1]
    old = t["_side"].to_numpy(zero_copy_only=False) == -1
    paired = same_next | same_prev
    changes = "_op" in t.column_names
    gone = np.zeros(n, dtype=bool)  # a new-side tombstone
    if changes:
        gone = ~old & pc.fill_null(pc.equal(t["_op"], "D"), False).to_numpy(zero_copy_only=False)
    gone_next = np.zeros(n, dtype=bool)
    gone_next[: n - 1] = gone[1:]
    differs = np.zeros(n, dtype=bool)
    if n > 1:
        d = np.zeros(n - 1, dtype=bool)
        pairs = np.flatnonzero(same_next[: n - 1])
        for c in values:
            col = t[c]
            if pa.types.is_nested(col.type):
                # pc.equal has no kernel for nested types: compare only the
                # paired neighbours, as Python values (None == None)
                eqv = np.ones(n - 1, dtype=bool)
                eqv[pairs] = [a == b for a, b in zip(col.take(pairs).to_pylist(),
                                                     col.take(pairs + 1).to_pylist())]
            else:
                eq = pc.equal(col.slice(1), col.slice(0, n - 1))
                both_null = pc.and_(
                    pc.is_null(col.slice(1)), pc.is_null(col.slice(0, n - 1))
                )
                eqv = pc.or_(pc.fill_null(eq, False), both_null).to_numpy(
                    zero_copy_only=False
                )
            d |= ~eqv
        differs[: n - 1] = d & same_next[: n - 1]
    # old-row index of each delete and update (its new-side pair is the next
    # row), new-row index of each insert
    dels = np.flatnonzero(old & (same_next & gone_next | ~paired & (not changes)))
    ins = np.flatnonzero(~old & ~paired & ~gone)
    upds = np.flatnonzero(old & differs & ~gone_next)

    def mk(at: np.ndarray, before: np.ndarray | None, after: np.ndarray | None,
           label: str) -> pa.Table:
        m = len(at)
        cols = {k: t[k].take(at) for k in keys}
        cols["change"] = pa.array(np.full(m, label, dtype=object), pa.string())
        for v in values:
            vt = t.schema.field(v).type
            cols[f"{v}_before"] = t[v].take(before) if before is not None else pa.nulls(m, vt)
            cols[f"{v}_after"] = t[v].take(after) if after is not None else pa.nulls(m, vt)
        if changes:  # a delete's new-side row is its tombstone, the next row
            cols["_lsn"] = t["_lsn"].take(at + 1 if after is None else after)
        return pa.table(cols)

    return pa.concat_tables(
        [
            mk(dels, dels, None, "delete"),
            mk(ins, None, ins, "insert"),
            mk(upds, upds, upds + 1, "update"),
        ]
    )


def change_feed(
    old: "ray.data.Dataset",
    new: "ray.data.Dataset",
    keys: Sequence[str],
    values: Sequence[str],
    *,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Row-level change-data-feed between two converged table states: one row
    per key that was inserted, updated or deleted going ``old -> new``, with
    before/after values (the CDF read a lakehouse sink exposes downstream;
    before/after extension of the ``SnapshotEval.calculateDiffDF`` diff,
    ``eval/SnapshotEval.scala:132-160``).

    Output columns: ``*keys, change ('insert'|'update'|'delete'),
    {v}_before, {v}_after for v in values``. Inserts carry null ``_before``,
    deletes null ``_after``; updates are keys present on both sides where any
    value column differs (null == null counts as equal).

    Same single-exchange shape as :func:`outer_diff`: tag each side, union,
    shuffle once on the key hash, pair rows group-locally
    (:func:`change_feed_group`, the kernel every bucket write's change
    feed also runs) — no join operator, so at 100 TB the cost is one all-to-all over
    ``keys + values`` only. Both inputs must be converged states (at most
    one row per key per side); a null key is one key.
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    keys, values = list(keys), list(values)

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks().select(keys + values)
            t = t.append_column("_side", pa.array(np.full(len(t), side, np.int64)))
            b = bucket_of_keys(t, keys, num_buckets)
            return t.append_column("bucket", pa.array(b, pa.int64()))

        return f

    tagged = old.map_batches(tag(-1), batch_format="pyarrow", batch_size=batch_size).union(
        new.map_batches(tag(1), batch_format="pyarrow", batch_size=batch_size)
    )
    return tagged.groupby("bucket").map_groups(
        change_feed_group, fn_args=(keys, values), batch_format="pyarrow")


def outer_diff(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    keys: Sequence[str],
    compare: Sequence[str],
    *,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Full-outer-join diff of two keyed tables → one row per differing key with
    ``diff ∈ {'added', 'deleted', 'changed'}`` (``SnapshotEval.calculateDiffDF``
    analog, ``eval/SnapshotEval.scala:132-160``; used as the conformance check
    between an engine table and an oracle table).

    Implemented without a join operator: tag each side (+1/-1), union, shuffle
    once on the key hash, and classify per group — one all-to-all instead of a
    join's two.
    """
    from odibel_ray.tuning import default_num_buckets

    num_buckets = default_num_buckets(num_buckets)
    keys, compare = list(keys), list(compare)

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks().select(keys + compare)
            t = t.append_column("_side", pa.array(np.full(len(t), side, np.int64)))
            b = bucket_of_keys(t, keys, num_buckets)
            return t.append_column("bucket", pa.array(b, pa.int64()))

        return f

    def classify(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        sort_keys = [(k, "ascending") for k in keys] + [("_side", "ascending")]
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        n = len(t)
        same_next = np.zeros(n, dtype=bool)
        if n > 1:
            same_next[: n - 1] = _same_next_key_mask(t, keys)
        same_prev = np.roll(same_next, 1)
        same_prev[0] = False
        side = t["_side"].to_numpy(zero_copy_only=False)
        # paired keys: rows where both sides present (same key as neighbor)
        paired = same_next | same_prev
        only_left = (~paired) & (side == -1)
        only_right = (~paired) & (side == 1)
        # changed: paired and any compare column differs from the neighbor row
        differs = np.zeros(n, dtype=bool)
        if n > 1:
            d = np.zeros(n - 1, dtype=bool)
            for c in compare:
                col = t[c]
                eq = pc.equal(col.slice(1), col.slice(0, n - 1))
                # null == null counts as equal for diff purposes
                both_null = pc.and_(
                    pc.is_null(col.slice(1)), pc.is_null(col.slice(0, n - 1))
                )
                eqv = pc.or_(pc.fill_null(eq, False), both_null).to_numpy(
                    zero_copy_only=False
                )
                d |= ~eqv
            differs[: n - 1] = d & same_next[: n - 1]
        changed_first = differs & same_next & (side == -1)
        label = np.full(n, "", dtype=object)
        label[only_left] = "deleted"
        label[only_right] = "added"
        label[changed_first] = "changed"
        keep = only_left | only_right | changed_first
        out = t.select(keys).append_column("diff", pa.array(label, pa.string()))
        return out.filter(pa.array(keep))

    tagged = left.map_batches(tag(-1), batch_format="pyarrow", batch_size=batch_size).union(
        right.map_batches(tag(1), batch_format="pyarrow", batch_size=batch_size)
    )
    return tagged.groupby("bucket").map_groups(classify, batch_format="pyarrow")
