"""LWW replay core — the Ray-Data-native analog of the reference's
``TemporalWindowBuilder`` + per-key replay loop
(``/root/reference/src/main/scala/ai/scads/odibel/datasets/wikitext/TemporalWindowBuilder.scala:14-100``,
``DBpediaTKGExtraction.scala:129-170``).

Pipeline shape (SURVEY.md §3.4):

    read_parquet(change_log)                       # hive 'part' column = WAL id
      → map_batches(prepare_events)                # vectorized: drop S/malformed,
                                                   #   schema-map payload, bucket col
      → map_batches(compact_batch)                 # within-batch LWW pre-compaction
                                                   #   (combiner before the shuffle)
      → groupby('bucket').map_groups(apply)        # THE shuffle; per-group sort by
                                                   #   (conv_id, turn_idx, lsn) + keep-last
                                                   #   + drop tombstones

All kernels are zero-copy-Arrow/numpy vectorized; the per-key state of the
reference's HashMap is replaced by one keep-last kernel
(:func:`odibel_ray.cdc.lww.keep_last_indices`: a sort of integer key codes,
then a neighbour compare), so no Python loop ever touches rows. Ordering is
re-established *explicitly* by the per-group sort (Ray Data gives no
intra-block order guarantee — the reference leaned on
``sortWithinPartitions``, ``FlatPageRevisionPartitioner.scala:22-23``).

Events for one key live in exactly one log partition, where ``lsn`` is strictly
monotonic, so any key-aligned bucketing (``part`` itself, or
``hash(conv_id) % B``) preserves a total per-key order.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odibel_ray.cdc.lww import _same_next_key_mask, keep_last_per_key
from odibel_ray.cdc.schema import SchemaTimeline

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

INT64_MAX = (1 << 63) - 1
TS_SENTINEL_US = 253_402_300_799_000_000  # 9999-12-31T23:59:59 (SerUtil.scala:16-25)

#: columns of a prepared (schema-mapped) event — converged schema + op/lsn/part/bucket
PREPARED_COLUMNS = [
    "op",
    "lsn",
    "conv_id",
    "turn_idx",
    "role",
    "text",
    "tool_name",
    "score",
    "ts",
    "part",
    "bucket",
]


def bucket_of_conv(conv: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic per-row bucket from conv_id strings (vectorized siphash)."""
    return (pd.util.hash_array(conv, categorize=False) % np.uint64(num_buckets)).astype(np.int64)


def _event_kinds(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one validity mask of a log batch, as three boolean arrays:
    ``key_valid`` (``conv_id`` and ``turn_idx`` both non-null), ``data``
    (op is ``I``, ``U`` or ``D``) and ``schema`` (op is ``S``); a null op
    is neither. :func:`prepare_events` keeps the ``key_valid & data`` rows;
    :func:`dead_letter_batch` rejects every other row that is not
    ``schema``."""
    op = batch["op"]
    key_valid = pc.and_(pc.is_valid(batch["conv_id"]), pc.is_valid(batch["turn_idx"]))
    data = pc.is_in(op, value_set=pa.array(["I", "U", "D"], op.type))
    schema = pc.fill_null(pc.equal(op, pa.scalar("S", op.type)), False)
    return tuple(a.to_numpy(zero_copy_only=False) for a in (key_valid, data, schema))


def prepare_events(
    batch: pa.Table,
    timeline: SchemaTimeline,
    num_buckets: int | None,
    watermarks: np.ndarray | None = None,
) -> pa.Table:
    """Vectorized prepare stage: filter + schema-map + bucket.

    - drops ``S`` rows (already collected into ``timeline``) and malformed rows
      (null key with op != S, unknown op) — skip-never-delete rule
      (``DBpediaTKGExtraction.scala:184-195``);
    - maps physical payload → logical converged schema at each event's own LSN:
      ``tool_name = tool`` before the rename / physical ``tool_name`` after;
      ``score`` only once added; ``turn_idx`` widened to int64;
    - adds ``bucket`` (= ``part`` when ``num_buckets`` is None, else
      ``hash(conv_id) % num_buckets``);
    - optionally drops events at or below per-``(bucket, part)`` LSN
      ``watermarks`` (2-D int64 array) for idempotent incremental resume.
    """
    batch = batch.combine_chunks()
    part = pc.cast(batch["part"], pa.int64()).to_numpy(zero_copy_only=False)
    lsn = batch["lsn"].to_numpy(zero_copy_only=False)
    key_valid, data, _ = _event_kinds(batch)
    valid = key_valid & data

    score_added, tool_renamed = timeline.active_masks(part, lsn)

    if num_buckets is None:
        bucket = part
    else:
        conv = batch["conv_id"].to_numpy(zero_copy_only=False)
        bucket = np.where(key_valid, bucket_of_conv(conv, num_buckets), 0)

    if watermarks is not None:
        nb, npart = watermarks.shape
        in_range = (bucket < nb) & (part < npart)
        wm = np.where(in_range, watermarks[np.minimum(bucket, nb - 1), np.minimum(part, npart - 1)], -1)
        valid &= lsn > wm

    tool_logical = pc.if_else(
        pa.array(tool_renamed), batch["tool_name"], batch["tool"]
    )
    score_logical = pc.if_else(
        pa.array(score_added), batch["score"], pa.nulls(len(batch), pa.float64())
    )

    out = pa.table(
        {
            "op": batch["op"],
            "lsn": batch["lsn"],
            "conv_id": batch["conv_id"],
            "turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
            "role": batch["role"],
            "text": batch["text"],
            "tool_name": tool_logical,
            "score": score_logical,
            "ts": batch["ts"],
            "part": pa.array(part, pa.int64()),
            "bucket": pa.array(bucket, pa.int64()),
        }
    )
    return out.filter(pa.array(valid))


def dead_letter_batch(batch: pa.Table) -> pa.Table:
    """The complement of :func:`prepare_events`' validity filter, with a
    ``reason`` column — rows the replay skips under skip-never-delete:
    ``unknown_op`` (op outside I/U/D/S) and ``null_key`` (data event with a
    null conv_id or turn_idx). Schema (S) events are not dead letters."""
    batch = batch.combine_chunks()
    key_valid, data, schema = _event_kinds(batch)
    unknown = ~data & ~schema
    reject = unknown | data & ~key_valid
    out = pa.table(
        {
            "part": pc.cast(batch["part"], pa.int64()),
            "lsn": batch["lsn"],
            "op": batch["op"],
            "conv_id": batch["conv_id"],
            "turn_idx": pc.cast(batch["turn_idx"], pa.int64()),
            "reason": pa.array(np.where(unknown, "unknown_op", "null_key")),
        }
    )
    return out.filter(pa.array(reject))


def _empty_log_table() -> pa.Table:
    """Empty table shaped like one read batch of the partitioned WAL (the
    file schema plus the hive ``part`` partition column)."""
    from odibel_ray.datagen import LOG_SCHEMA

    return LOG_SCHEMA.empty_table().append_column(
        "part", pa.array([], pa.int64())
    )


def dead_letter_scan(
    log_dir: str,
    *,
    quarantine_dir: str | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Dead-letter queue: one streaming pass over the change log emitting the
    events the replay skips, each with a machine-readable ``reason`` — so a
    CDC operator can audit exactly what was dropped and why instead of
    trusting the skip-never-delete rule blindly. Rejects are rare by
    construction, so the scan's output is tiny relative to the log — but a
    poisoned log (schema drift rejecting every event) must not buffer the
    whole log in the object store, so with ``quarantine_dir`` the reject
    stream is written straight to Parquet (streaming, no ``materialize``)
    and the returned Dataset re-reads the quarantine. The quarantine is
    derived data: each scan stages into a sibling ``.staging`` dir and swaps
    it in only after the scan succeeds, so re-runs replace rather than
    append (``write_parquet`` alone would add uniquely-named files and
    double-count rejects) and a scan that dies mid-run leaves the previous
    quarantine intact."""
    import shutil

    import ray.data as rd

    ds = rd.read_parquet(log_dir).map_batches(
        dead_letter_batch, batch_format="pyarrow", batch_size=batch_size
    )
    if quarantine_dir:
        quarantine_dir = quarantine_dir.rstrip("/")
        staging = quarantine_dir + ".staging"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging, exist_ok=True)
        ds.write_parquet(staging)
        shutil.rmtree(quarantine_dir, ignore_errors=True)
        os.replace(staging, quarantine_dir)
        if not any(f.endswith(".parquet") for f in os.listdir(quarantine_dir)):
            # zero rejects: write_parquet emits no files and read_parquet of
            # an empty dir has no schema — return a typed empty Dataset so
            # downstream select/filter on the dead-letter columns still works
            return rd.from_arrow(dead_letter_batch(_empty_log_table()))
        return rd.read_parquet(quarantine_dir)
    return ds


_SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending"), ("lsn", "ascending")]


def compact_batch(t: pa.Table) -> pa.Table:
    """Within-batch LWW pre-compaction (shuffle combiner).

    Keeps the max-LSN event per key *within this batch* — including tombstones,
    which must survive until the final merge (SURVEY.md §7 step 5) — through
    the package's one keep-last, :func:`odibel_ray.cdc.lww.keep_last_per_key`
    on ``(conv_id, turn_idx)`` and ``lsn``. Associative with the final
    keep-last, so safe at any batch boundary. Cuts shuffle volume by the
    update ratio (the reference has no analog; Spark AQE was its only
    lever, ``management/spark_mgr.py:23-24``).
    """
    return keep_last_per_key(t, ("conv_id", "turn_idx"), "lsn")


def apply_group_final(t: pa.Table) -> pa.Table:
    """Final per-group apply: sort, keep-last per key, drop tombstones.

    Equivalent to the reference's per-key HashMap replay at convergence
    (``TemporalWindowBuilder.scala:37-50`` upsert + ``buildEntries`` flush) —
    expressed as vectorized kernels instead of per-row state.
    """
    t = compact_batch(t)
    t = t.filter(pc.not_equal(t["op"], "D"))
    return t.drop_columns(["op", "lsn", "part", "bucket"])


def apply_group_history(t: pa.Table) -> pa.Table:
    """Per-group windowed-history apply (TER analog, FIXTURES.md F4).

    Every non-delete event opens a window ``[lsn, next-event-lsn)`` for its key;
    the last live version carries sentinels (``rEnd`` analog INT64_MAX,
    ``TemporalWindowBuilder.scala:92``; ts sentinel 9999-12-31T23:59:59).
    Delete events close the previous window and emit none themselves.
    """
    if len(t) == 0:
        return _empty_history()
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=_SORT_KEYS))
    n = len(t)
    lsn = t["lsn"].to_numpy(zero_copy_only=False)
    # ts is nullable in LOG_SCHEMA and a null must not poison the int64 path
    # (to_numpy would round-trip through float64 NaN and crash the cast
    # below). Fill for the window arithmetic; a null CLOSING ts re-emerges
    # as a null ts_end (exact lsn_end still bounds the window).
    ts_col = t["ts"].cast(pa.int64())
    ts_null = pc.is_null(ts_col).to_numpy(zero_copy_only=False)
    ts = pc.fill_null(ts_col, TS_SENTINEL_US).to_numpy(zero_copy_only=False)

    next_same = np.zeros(n, dtype=bool)
    if n > 1:
        next_same[: n - 1] = _same_next_key_mask(t, ("conv_id", "turn_idx"))

    lsn_end = np.where(next_same, np.roll(lsn, -1), INT64_MAX)
    ts_end = np.where(next_same, np.roll(ts, -1), TS_SENTINEL_US)

    out = pa.table(
        {
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "role": t["role"],
            "text": t["text"],
            "tool_name": t["tool_name"],
            "score": t["score"],
            "lsn_start": t["lsn"],
            "lsn_end": pa.array(lsn_end, pa.int64()),
            "ts_start": t["ts"],
            "ts_end": pa.array(
                ts_end, pa.int64(), mask=next_same & np.roll(ts_null, -1)
            ).cast(pa.timestamp("us")),
        }
    )
    return out.filter(pc.not_equal(t["op"], "D"))


def _empty_history() -> pa.Table:
    from odibel_ray.oracle import HISTORY_SCHEMA

    return HISTORY_SCHEMA.empty_table()


def replay_dataset(
    log_dir: str,
    *,
    num_buckets: int | None = None,
    history: bool = False,
    precompact: bool = True,
    timeline: SchemaTimeline | None = None,
    batch_size: int = 65536,
    salt: int | None = None,
    max_lsn: int | None = None,
) -> "ray.data.Dataset":
    """Lazy replay pipeline: change log → converged (or history) Dataset.

    No sink, no materialization — callers stream-consume or write. See
    :func:`odibel_ray.cdc.sink.replay_publish` for the exactly-once sink.

    ``salt`` (final-state only): hot-conversation sub-partitioning — stage-1
    LWW compaction per ``(bucket, lsn % salt)`` keeping tombstones, stage-2
    merge per bucket (associative keep-last; SURVEY.md §7 step 5).

    ``max_lsn``: snapshot-at-LSN time travel — replays only events (data AND
    schema) with ``lsn <= max_lsn`` (M15 snapshot filter,
    ``eval/EvalFunctions.scala:66-84``).
    """
    import json as _json

    import ray.data as rd

    from odibel_ray.cdc.schema import SchemaTimeline, extract_timeline

    tl = timeline or extract_timeline(log_dir)
    if max_lsn is not None:
        clipped = SchemaTimeline()
        for rec in tl.changes:
            if rec["lsn"] <= max_lsn:
                clipped.add_change(rec["part"], rec["lsn"], _json.dumps(rec))
        tl = clipped
    ds = rd.read_parquet(log_dir)
    if max_lsn is not None:
        ds = ds.filter(expr=f"lsn <= {int(max_lsn)}")
    ds = ds.map_batches(
        prepare_events,
        fn_kwargs={"timeline": tl, "num_buckets": num_buckets},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if precompact and not history:
        ds = ds.map_batches(compact_batch, batch_format="pyarrow", batch_size=batch_size)
    if salt and not history:
        def add_salt(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            s = t["lsn"].to_numpy(zero_copy_only=False) % salt
            return t.append_column("salt", pa.array(s.astype(np.int64)))

        def compact_group(t: pa.Table) -> pa.Table:
            return compact_batch(t).drop_columns(["salt"])

        ds = ds.map_batches(add_salt, batch_format="pyarrow", batch_size=batch_size)
        ds = ds.groupby(["bucket", "salt"]).map_groups(
            compact_group, batch_format="pyarrow"
        )
    fn = apply_group_history if history else apply_group_final
    return ds.groupby("bucket").map_groups(fn, batch_format="pyarrow")


def replay_change_feed(
    log_dir: str,
    cut_lsn: int,
    *,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Fused change-data-feed replay: per-turn insert/update/delete rows with
    before/after ``text`` between the snapshot state at ``cut_lsn`` and the
    fully-converged state — ONE pass over the log and ONE key shuffle, versus
    the naive two-replay + diff (two log reads, three exchanges). Both states
    of a key live in its sorted event group, so the feed is computed
    group-locally: before = max-LSN event with ``lsn <= cut_lsn``, after =
    max-LSN event overall; a tombstone in either position means absent.

    Only the schema-stable ``text`` column is compared, so the timeline clip
    a snapshot replay applies to the ``tool``/``score`` mapping is moot here.
    """
    cut = int(cut_lsn)

    def feed(t: pa.Table) -> pa.Table:
        return feed_table(t, cut=cut)

    return _two_state_replay(
        log_dir, cut, feed, num_buckets=num_buckets, batch_size=batch_size
    )


def feed_table(t: pa.Table, *, cut: int) -> pa.Table:
    """Group-local change-feed rows from one key-complete event group, the
    kernel of :func:`replay_change_feed`: per key classify
    insert/update/delete of ``text`` between the before-state (max-LSN
    event with ``lsn <= cut``) and the after-state (max-LSN event overall).
    A bucket write's feed is :func:`odibel_ray.cdc.lww.change_feed_group`
    instead, over the base rows and the write's LWW winners."""
    if len(t) == 0:
        vt = t.schema.field("text").type if "text" in t.column_names else pa.string()
        return pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int64()),
                          ("change", pa.string()), ("text_before", vt),
                          ("text_after", vt)]).empty_table()
    t, starts, bi, ends, live_b, live_a, neq = _feed_states(t, cut=cut)
    upd = live_b & live_a & neq
    dele = live_b & ~live_a
    ins = ~live_b & live_a
    keep = upd | dele | ins
    sel = pa.array(np.flatnonzero(keep))
    label = np.where(ins, "insert", np.where(dele, "delete", "update"))[keep]
    lb, la = pa.array(live_b[keep]), pa.array(live_a[keep])
    cols = {
        "conv_id": t["conv_id"].take(pa.array(starts)).take(sel),
        "turn_idx": t["turn_idx"].take(pa.array(starts)).take(sel).cast(pa.int64()),
        "change": pa.array(label, pa.string()),
    }
    col = t["text"]
    null_v = pa.scalar(None, col.type)
    cols["text_before"] = pc.if_else(lb, col.take(pa.array(bi)).take(sel), null_v)
    cols["text_after"] = pc.if_else(la, col.take(pa.array(ends)).take(sel), null_v)
    return pa.table(cols)


def _compact_sides(t: pa.Table, *, cut: int) -> pa.Table:
    """Within-batch combiner keeping the max-LSN event per (key, side) where
    side = ``lsn <= cut``. The plain per-key combiner would discard the
    before-state whenever a post-cut event lands in the same batch."""
    if len(t) == 0:
        return t
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=_SORT_KEYS))
    n = len(t)
    keep = np.ones(n, dtype=bool)
    if n > 1:
        same_next = _same_next_key_mask(t, ("conv_id", "turn_idx"))
        le = t["lsn"].to_numpy(zero_copy_only=False) <= cut
        keep[: n - 1] = ~(same_next & (le[:-1] == le[1:]))
    return t.filter(pa.array(keep))


def _feed_states(t: pa.Table, cut: int, values: Sequence[str] = ("text",)):
    """Group-local two-state decomposition: sort the group's events, find per
    key the max-LSN event on the *before side* (``lsn <= cut``) and overall
    (after-state), and whether any of the ``values`` columns differs
    null-safely. Returns
    ``(sorted_table, starts, before_idx, after_idx, live_b, live_a, neq)``
    with the index arrays per key segment."""
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=_SORT_KEYS))
    n = len(t)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = ~_same_next_key_mask(t, ("conv_id", "turn_idx"))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n) - 1  # max-LSN row per key
    before_side = t["lsn"].to_numpy(zero_copy_only=False) <= cut
    idx = np.arange(n)
    before_idx = np.maximum.reduceat(np.where(before_side, idx, -1), starts)
    has_b = before_idx >= 0
    bi = np.where(has_b, before_idx, 0)
    is_del = pc.equal(t["op"], "D").to_numpy(zero_copy_only=False)
    live_b = has_b & ~is_del[bi]
    live_a = ~is_del[ends]
    neq = np.zeros(len(starts), dtype=bool)
    for v in values:
        vb = t[v].take(pa.array(bi))
        va = t[v].take(pa.array(ends))
        eq = pc.fill_null(pc.equal(vb, va), False)
        both_null = pc.and_(pc.is_null(vb), pc.is_null(va))
        neq |= ~pc.or_(eq, both_null).to_numpy(zero_copy_only=False)
    return t, starts, bi, ends, live_b, live_a, neq


def _two_state_replay(log_dir, cut, group_fn, *, num_buckets, batch_size):
    """Shared plumbing for the fused two-state replays: one log read, side-
    aware combiner, one key shuffle, then ``group_fn`` per bucket."""
    import ray.data as rd

    from odibel_ray.cdc.schema import extract_timeline

    tl = extract_timeline(log_dir)
    ds = rd.read_parquet(log_dir)
    ds = ds.map_batches(
        prepare_events,
        fn_kwargs={"timeline": tl, "num_buckets": num_buckets},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    ds = ds.map_batches(
        partial(_compact_sides, cut=cut),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return ds.groupby("bucket").map_groups(group_fn, batch_format="pyarrow")


def replay_snapshot_stats(
    log_dir: str,
    cut_lsn: int,
    *,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> pa.Table:
    """Fused A10 snapshot statistics (``eval/EvalFunctions.scala:353-408``):
    row counts at the ``cut_lsn`` snapshot and the converged state plus
    added/deleted/changed key counts between them — derived in the same
    group-local two-state kernel as :func:`replay_change_feed`, so the whole
    statistic costs ONE log read and ONE shuffle (the naive form executes
    four replays: two ``count()``s and both sides of an outer diff). Each
    group emits one tiny count row; only the ≤``num_buckets``-row count
    table reaches the driver."""
    cut = int(cut_lsn)

    def counts(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            z = pa.array([0], pa.int64())
            return pa.table(
                {"rows_t1": z, "rows_t2": z, "added": z, "deleted": z, "changed": z}
            )
        _, _, _, _, live_b, live_a, neq = _feed_states(t, cut)
        return pa.table(
            {
                "rows_t1": pa.array([int(live_b.sum())], pa.int64()),
                "rows_t2": pa.array([int(live_a.sum())], pa.int64()),
                "added": pa.array([int((~live_b & live_a).sum())], pa.int64()),
                "deleted": pa.array([int((live_b & ~live_a).sum())], pa.int64()),
                "changed": pa.array([int((live_b & live_a & neq).sum())], pa.int64()),
            }
        )

    import ray

    per_group = _two_state_replay(
        log_dir, cut, counts, num_buckets=num_buckets, batch_size=batch_size
    )
    # dimension-sized: one count row per bucket. Batched ray.get (one RPC,
    # concurrent fetch), and blocks without the counts schema are skipped —
    # a schema-only / fully-malformed log leaves map_groups emitting nothing,
    # which must mean all-zero stats, not a concat crash.
    cols = ["rows_t1", "rows_t2", "added", "deleted", "changed"]
    blocks = [
        b for b in ray.get(list(per_group.to_arrow_refs()))
        if "rows_t1" in b.column_names
    ]
    if not blocks:
        return pa.table({c: pa.array([0], pa.int64()) for c in cols})
    tot = pa.concat_tables(blocks)
    return pa.table(
        {c: pa.array([int(pc.sum(tot[c]).as_py() or 0)], pa.int64()) for c in cols}
    )


def replay_summary_stats(
    log_dir: str,
    *,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> pa.Table:
    """Fused A11 TKG summary (``eval/OutputEval.scala:50-64``): facts, distinct
    keys, distinct conversations, distinct versions, live rows — in ONE log
    read and ONE key shuffle plus a micro-exchange over pre-deduped version
    values (the naive composition replays the history then runs three separate
    distinct-count shuffles over it).

    Group-local exactness: the shuffle key is ``hash(conv_id)``, so distinct
    ``(conv_id, turn_idx)`` and distinct ``conv_id`` partition across groups —
    per-group counts sum exactly. Version values (window starts ∪ closed ends)
    can collide ACROSS conversations (LSNs repeat across WAL partitions), so
    they are deduped group-locally (ends duplicate same-key starts, the bulk
    of the duplication) and finished with one exact distinct-count exchange
    over the shrunken value stream."""
    import ray
    import ray.data as rd

    from odibel_ray.cdc.schema import extract_timeline
    from odibel_ray.ops.aggregates import count_distinct

    tl = extract_timeline(log_dir)
    ds = rd.read_parquet(log_dir)
    ds = ds.map_batches(
        prepare_events,
        fn_kwargs={"timeline": tl, "num_buckets": num_buckets},
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def summary(t: pa.Table) -> pa.Table:
        h = apply_group_history(t)
        n = len(h)
        if n == 0:
            return pa.table({"stat": pa.array([], pa.string()),
                             "val": pa.array([], pa.int64())})
        # h preserves the (conv, turn, lsn) sort of apply_group_history
        h = h.combine_chunks()
        same_key = np.zeros(n, dtype=bool)
        same_conv = np.zeros(n, dtype=bool)
        if n > 1:
            same_conv[: n - 1] = _same_next_key_mask(h, ["conv_id"])
            same_key[: n - 1] = _same_next_key_mask(h, ["conv_id", "turn_idx"])
        lsn_s = h["lsn_start"].to_numpy(zero_copy_only=False)
        lsn_e = h["lsn_end"].to_numpy(zero_copy_only=False)
        versions = np.unique(np.concatenate([lsn_s, lsn_e[lsn_e != INT64_MAX]]))
        stats = pa.table(
            {
                "stat": pa.array(["n_facts", "n_keys", "n_convs", "n_live"]),
                "val": pa.array(
                    [
                        n,
                        int((~same_key).sum()),
                        int((~same_conv).sum()),
                        int((lsn_e == INT64_MAX).sum()),
                    ],
                    pa.int64(),
                ),
            }
        )
        vrows = pa.table(
            {
                "stat": pa.array(np.full(len(versions), "v"), pa.string()),
                "val": pa.array(versions, pa.int64()),
            }
        )
        return pa.concat_tables([stats, vrows])

    # materialized intermediate is two int-ish columns of pre-deduped values —
    # orders of magnitude under the history table it replaces, and it must be
    # pinned because it is consumed twice (stats sum + version distinct)
    per_group = (
        ds.groupby("bucket").map_groups(summary, batch_format="pyarrow").materialize()
    )
    # A log whose events are all filtered out (schema-only, all-malformed)
    # leaves per_group without the stat/val schema — that is the all-zero
    # summary, not a filter/concat crash.
    schema = per_group.schema()
    if schema is None or "stat" not in (schema.names or []):
        z = pa.array([0], pa.int64())
        return pa.table({"n_facts": z, "n_keys": z, "n_convs": z,
                         "n_versions": z, "n_live": z})
    vrows = count_distinct(per_group.filter(expr="stat == 'v'"), ["val"]).take_all()
    n_versions = int(vrows[0]["n"]) if vrows else 0
    # batched ray.get: one RPC fetching all count blocks concurrently
    refs = list(per_group.filter(expr="stat != 'v'").to_arrow_refs())
    tot = (
        pa.concat_tables(ray.get(refs))
        if refs
        else pa.table({"stat": pa.array([], pa.string()),
                       "val": pa.array([], pa.int64())})
    )
    sums = {"n_facts": 0, "n_keys": 0, "n_convs": 0, "n_live": 0}
    stat = tot["stat"].to_pylist()
    val = tot["val"].to_pylist()
    for s, v in zip(stat, val):
        sums[s] += v
    return pa.table(
        {
            "n_facts": pa.array([sums["n_facts"]], pa.int64()),
            "n_keys": pa.array([sums["n_keys"]], pa.int64()),
            "n_convs": pa.array([sums["n_convs"]], pa.int64()),
            "n_versions": pa.array([n_versions], pa.int64()),
            "n_live": pa.array([sums["n_live"]], pa.int64()),
        }
    )


class UpsertApplier:
    """Stateful actor-pool upsert stage (SURVEY.md §2.3 T4/T5): used as the
    ``map_groups`` UDF with ``concurrency=k``, so each actor is constructed
    once, holds the broadcast schema timeline (client-per-worker pattern of
    ``RCDiefServer``, ``DBpediaTKGExtraction.scala:131``) and accumulates
    heartbeat-style metrics (``HeartbeatMonitor.scala:11-71`` analog) across
    all groups it applies. Correctness still comes from group-locality —
    every key's events arrive in exactly one ``__call__``."""

    def __init__(self, history: bool = False):
        self.history = history
        self.groups_applied = 0
        self.rows_in = 0
        self.rows_out = 0

    def __call__(self, t: pa.Table) -> pa.Table:
        out = apply_group_history(t) if self.history else apply_group_final(t)
        self.groups_applied += 1
        self.rows_in += len(t)
        self.rows_out += len(out)
        return out


def replay_dataset_actor(
    log_dir: str,
    *,
    num_buckets: int | None = None,
    concurrency: int | None = None,
    history: bool = False,
    timeline: SchemaTimeline | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Replay with the stateful actor-pool applier variant of the merge stage.

    ``concurrency`` defaults to :func:`odibel_ray.tuning.default_pool_size`
    (half the effective cores) — an actor pool equal to the CPU count starves
    the upstream read/prepare tasks and deadlocks the streaming executor.
    """
    import ray
    import ray.data as rd

    from odibel_ray.cdc.schema import extract_timeline

    if concurrency is None:
        from odibel_ray.tuning import default_pool_size

        concurrency = default_pool_size()
    tl = timeline or extract_timeline(log_dir)
    ds = rd.read_parquet(log_dir)
    ds = ds.map_batches(
        prepare_events,
        fn_kwargs={"timeline": tl, "num_buckets": num_buckets},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if not history:  # pre-compaction would drop the intermediate versions
        ds = ds.map_batches(compact_batch, batch_format="pyarrow", batch_size=batch_size)
    return ds.groupby("bucket").map_groups(
        UpsertApplier,
        fn_constructor_kwargs={"history": history},
        concurrency=concurrency,
        batch_format="pyarrow",
    )


def suggest_salt(
    log_dir: str,
    *,
    num_buckets: int | None = None,
    hot_ratio: float = 4.0,
    max_salt: int = 16,
) -> dict:
    """Skew advisor for the salted two-stage apply: detect hot conversations
    with the heavy-hitter sketch (no exact groupby over the full key space)
    and suggest a salt factor so the hottest key's share of a bucket drops to
    roughly the mean bucket load.

    Returns ``{"hot_keys": [(conv_id, n), ...], "salt": int}`` — ``salt`` is 0
    when no key exceeds ``hot_ratio`` × the mean per-key event count, where
    the key cardinality comes from a HyperLogLog estimate (shuffle-free) —
    uniform logs with few distinct keys are NOT flagged as skewed.
    """
    import ray.data as rd

    from odibel_ray.ops.sketches import approx_count_distinct, approx_heavy_hitters

    # data events only: schema rows (op='S', null conv_id) and malformed rows
    # are skipped by the replay, so they must not dilute the skew estimate
    ds = (
        rd.read_parquet(log_dir, columns=["conv_id", "op"])
        .filter(expr="op == 'I' or op == 'U' or op == 'D'")
        .select_columns(["conv_id"])
    )
    n_total = ds.count()
    top = approx_heavy_hitters(ds, "conv_id", k=16).take_all()
    if not top or n_total == 0:
        return {"hot_keys": [], "salt": 0}
    if num_buckets is None:
        # the advised replay (num_buckets=None) buckets by WAL partition, so
        # the mean load must be computed over the ACTUAL partition count —
        # the cluster-derived default would mis-scale the salt by the ratio
        import glob as _glob

        eff_buckets = max(len(_glob.glob(os.path.join(log_dir, "part=*"))), 1)
    else:
        from odibel_ray.tuning import default_num_buckets

        eff_buckets = default_num_buckets(num_buckets)
    mean_per_bucket = n_total / eff_buckets
    hottest = max(int(r["n"]) for r in top)
    n_keys = max(approx_count_distinct(ds, ["conv_id"]), 1)
    if hottest < hot_ratio * (n_total / n_keys):
        return {"hot_keys": [], "salt": 0}
    salt = int(min(max_salt, max(1, round(hottest / mean_per_bucket))))
    return {
        "hot_keys": [(r["value"], int(r["n"])) for r in top],
        "salt": salt if salt > 1 else 0,
    }


def limit_arrow_threads(n: int = 1, io: int = 2) -> None:
    """Cap pyarrow's global thread pools inside a Ray worker. Arrow's pools
    default to the machine's core count and are NOT governed by Ray's
    OMP_NUM_THREADS handling, so N concurrent tasks would otherwise spawn
    N × cores threads and thrash (measured: 2x slowdown at 32 CPUs vs 8 on
    the same input). One CPU per task is the Ray Data contract."""
    try:
        if pa.cpu_count() > n:
            pa.set_cpu_count(n)
            pa.set_io_thread_count(io)
    except Exception:  # pragma: no cover
        pass


def map_items(fn, items: list, executor: str):
    """Run ``fn(item) -> pa.Table`` once per item, in the driver or on Ray
    Data: the one scheduler of every per-item op (a bucket read, compaction,
    rewrite or join, a WAL part's replay). ``"driver"``: a lazy generator of
    the tables, one item after another, so a caller that publishes each
    table has published it before the next item runs. ``"ray_data"``: a
    Dataset of one task per item (``limit_arrow_threads`` inside it); the
    items ride in the task's closure. An empty ``items`` starts no job and
    gives an empty iterator."""
    if executor == "driver" or not items:
        return (fn(item) for item in items)
    import ray.data as rd

    def task(batch: pa.Table) -> pa.Table:
        limit_arrow_threads()
        return fn(items[batch["i"][0].as_py()])

    return rd.from_items([{"i": i} for i in range(len(items))],
                         override_num_blocks=len(items)).map_batches(
        task, batch_format="pyarrow", batch_size=1)


def _wal_parts(log_dir: str) -> list[dict]:
    """The partitioned WAL's shards, ``[{"part": k, "files": [...]}]`` in
    part order, each shard's ``part=<k>/*.parquet`` files in name (= write)
    order. Hidden and ``_``-prefixed files are not listed, as in Ray Data's
    ``read_parquet``."""
    import glob as _glob

    items = []
    for pdir in sorted(_glob.glob(os.path.join(log_dir, "part=*"))):
        part = int(os.path.basename(pdir).split("=", 1)[1])
        files = sorted(f for f in _glob.glob(os.path.join(pdir, "*.parquet"))
                       if not os.path.basename(f).startswith("_"))
        items.append({"part": part, "files": files})
    return items


def _read_wal_part(part: int, files: list[str]) -> pa.Table:
    """Ordered read of one WAL shard's files, with its int64 ``part``
    column. Each file is read whole through its own ``pq.ParquetFile``,
    closed after the read: no ``pyarrow.dataset`` discovery or scanner is
    built per file, as ``pq.read_table`` would. An empty ``part=<k>`` dir
    (producer died before its first file) gives a typed empty batch, so the
    shard contributes schema, not a concat crash."""
    import pyarrow.parquet as pq

    if not files:
        return _empty_log_table()

    def read(f: str) -> pa.Table:
        with pq.ParquetFile(f) as pf:
            return pf.read()

    t = pa.concat_tables(map(read, files), promote_options="default").combine_chunks()
    return t.append_column("part", pa.array(np.full(len(t), part, np.int64)))


def _replay_shard(p: dict, *, timeline: SchemaTimeline, history: bool) -> pa.Table:
    """Replay one WAL partition end-to-end inside a single task: ordered read
    of the shard's files → prepare → apply. The reference's per-shard
    ``mapPartitions`` replay (``DBpediaTKGExtractionSpark.scala:34-43`` over
    ``IOUtil.readFilesSequentially``), Ray-Data-shaped."""
    ev = prepare_events(_read_wal_part(**p), timeline, num_buckets=None)
    return apply_group_history(ev) if history else apply_group_final(ev)


def replay_partitioned(
    log_dir: str,
    *,
    history: bool = False,
    timeline: SchemaTimeline | None = None,
) -> "ray.data.Dataset":
    """Shuffle-free replay: the change log is already hash-partitioned by key
    (a binlog's defining property — every key's events live in exactly one
    ``part=`` directory with monotonic LSN), so each partition replays
    independently — one Ray Data task per partition (:func:`map_items`), no
    all-to-all exchange at any point.

    This is the throughput path; :func:`replay_dataset` (groupby shuffle) is
    the general path for re-bucketing (num_buckets != WAL partitioning) or
    non-key-aligned logs. Scale knob: WAL partition count — one partition's
    converged state must fit a worker (at 100 TB: tens of thousands of
    partitions, exactly like the sink's buckets).
    """
    from odibel_ray.cdc.schema import extract_timeline

    items = _wal_parts(log_dir)
    if not items:
        raise FileNotFoundError(
            f"no WAL partitions (part=*/) found under {log_dir!r} — wrong "
            "path, or the log has not been written yet"
        )
    tl = timeline or extract_timeline(log_dir)
    return map_items(partial(_replay_shard, timeline=tl, history=history), items, "ray_data")
