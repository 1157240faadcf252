"""Exactly-once Parquet sink: write → audit → publish, with per-bucket commit
manifests, per-(bucket, partition) LSN watermarks, and incremental resume.

The reference's sink is an all-or-nothing directory overwrite
(``/root/reference/src/main/scala/ai/scads/odibel/datasets/wikitext/DBpediaTKGExtractionSpark.scala:44``)
plus a row-count audit in its converters (``transform/CSVToParquet.scala:25-30``).
We generalize both (SURVEY.md §4):

- **write**: each group task writes its bucket to a *deterministic* staging path
  (``_staging/<run_id>/part-<bucket>-<run_id>.parquet``) — a retried task
  overwrites its own output, never duplicates it (no wall-clock ids; the
  reference's ``System.nanoTime()`` bnode ids at
  ``transform/CSVToRDFReification.scala:98`` are the anti-pattern we avoid);
- **audit**: the driver checks the staged file's Parquet row count against the
  manifest row the task emitted;
- **publish**: copy-on-write — the data file moves into place under its
  run-versioned name, then the atomic write of ``_manifests/bucket-<k>.json``
  flips the bucket's pointer; superseded versions are swept afterwards.
  Readers trust only manifested files, and the previous version stays live
  and audited until the pointer flip, so a kill at any point leaves either a
  fully-published bucket or the intact previous state — never a torn read
  and never a manifest-less bucket.

Published files carry system columns ``_lsn``/``_part``/``_bucket`` so an
incremental run can LWW-merge new events onto the base (same-key comparisons are
within one WAL partition, where LSN is totally ordered). Manifests record
``watermarks = {part: max_lsn}``; events at or below the watermark are
idempotently ignored on resume (SURVEY.md §2.9).

Scale notes: manifests are metadata (one tiny JSON per bucket); the driver's
publish loop streams them via ``iter_rows`` as groups finish — no data rows ever
reach the driver. Buckets are the resume/parallelism unit: size ``num_buckets``
so one bucket's converged rows fit a worker (at 100 TB: tens of thousands).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from odibel_ray.cdc.apply import (
    _empty_log_table,
    _read_wal_part,
    _wal_parts,
    bucket_of_conv,
    compact_batch,
    map_items,
    prepare_events,
)
from odibel_ray.cdc.ddl import (
    SCHEMA_OPS,
    SchemaMap,
    load_schema_meta,
)
from odibel_ray.cdc.lww import change_feed_group, keep_last_indices, keep_last_per_key
from odibel_ray.cdc.schema import SchemaTimeline, extract_timeline

MANIFEST_DIR = "_manifests"
STAGING_DIR = "_staging"
TABLE_MANIFEST = "_TABLE_MANIFEST.json"
SNAPSHOT_DIR = "_snapshots"
SNAPSHOT_POLICY = "_POLICY.json"

LOGICAL_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool_name", "score", "ts"]
LAYOUT_FILE = "_layout.json"
#: A transcript table is a keyed table with this key, hashed on its first
#: column only, that carries the ``_lsn``/``_part``/``_bucket`` system columns.
TRANSCRIPT_KEYS = ["conv_id", "turn_idx"]
#: Input size, in Parquet bytes, up to which :func:`replay_publish`,
#: :func:`incremental_apply`, :func:`compact_published` and
#: :func:`read_published` run in the driver instead of as a Ray Data job.
#: Measured on a 1-CPU host (``tools/measure_cutover.py``, figures in
#: CHANGES.md): the driver's wall time on a 5 MB log reached the Ray Data
#: path's fixed cost on a tiny one (about 0.39 s) for an apply, and a
#: partitioned replay crosses over near the same size. A later measurement
#: gave lower crossovers (about 3 MB for an apply, a hashed replay and a
#: compaction), while the driver stayed the faster executor at every
#: measured size up to 19 MB. Reads cross over above the constant: a routed
#: 8-key scan stayed under 0.1 s up to 5 MB opened, against 0.36-0.61 s
#: on Ray Data, and a whole-table read reached Ray Data's 0.30 s on the
#: smallest table only at 10 MB (0.34 s).
DRIVER_MAX_BYTES = 5_000_000


def _executor_for(paths: list[str]) -> str:
    """The executor of one :func:`replay_publish`, :func:`incremental_apply`,
    :func:`compact_published` or :func:`read_published`: ``"driver"`` when
    its input files ``paths`` total at most :data:`DRIVER_MAX_BYTES`, else
    ``"ray_data"``. A read's input is the files it opens after routing and
    pruning."""
    small = sum(os.path.getsize(p) for p in paths) <= DRIVER_MAX_BYTES
    return "driver" if small else "ray_data"


def _table_layout(out_dir: str) -> dict:
    """The one reader of a table's keyed layout. Returns ``key_cols``,
    ``hash_cols`` (the columns the bucket id hashes), ``num_buckets``,
    ``cluster_by``, ``bloom_cols``, ``system`` (the table carries system
    columns and a plain read hides them) and ``pinned`` (the raw
    ``_layout.json``, None for a transcript table).

    Generic tables pin their layout in ``_layout.json`` before staging.
    Transcript tables have no such file: their key is built in and their
    bucket count comes from the TABLE manifest (None = partitioned layout,
    bucket == WAL part, so a key's bucket is not derivable from the key)."""
    path = os.path.join(out_dir, LAYOUT_FILE)
    if os.path.exists(path):
        with open(path) as f:
            pinned = json.load(f)
        keys = list(pinned["key_cols"])
        return {"key_cols": keys, "hash_cols": keys, "num_buckets": int(pinned["num_buckets"]),
                "cluster_by": pinned.get("cluster_by"), "bloom_cols": pinned.get("bloom_cols"),
                "system": False, "pinned": pinned}
    num_buckets = None
    tman_path = os.path.join(out_dir, TABLE_MANIFEST)
    if os.path.exists(tman_path):
        with open(tman_path) as f:
            num_buckets = json.load(f).get("num_buckets")
    return {"key_cols": list(TRANSCRIPT_KEYS), "hash_cols": TRANSCRIPT_KEYS[:1],
            "num_buckets": num_buckets, "cluster_by": None, "bloom_cols": None,
            "system": True, "pinned": None}


def _filter_cols(key_cols: list[str], bloom_cols: list[str] | None) -> list[str]:
    """The columns every file of a keyed table gets a Bloom filter on: the
    first key column (:func:`_bucket_prune` routes on it), then the
    layout's ``bloom_cols`` (:func:`read_published` prunes on them)."""
    return list(dict.fromkeys([key_cols[0], *(bloom_cols or [])]))


def _leaf_paths(name: str, type_: pa.DataType) -> list[str]:
    """The Parquet leaf column paths pyarrow writes for an Arrow column
    ``name`` of type ``type_``, in file order (struct fields by name, lists
    as ``<name>.list.element``, maps as ``<name>.key_value.key`` and
    ``.value``)."""
    if pa.types.is_struct(type_):
        return [p for i in range(type_.num_fields)
                for p in _leaf_paths(f"{name}.{type_.field(i).name}", type_.field(i).type)]
    if pa.types.is_map(type_):
        return [*_leaf_paths(f"{name}.key_value.key", type_.key_type),
                *_leaf_paths(f"{name}.key_value.value", type_.item_type)]
    if (pa.types.is_list(type_) or pa.types.is_large_list(type_)
            or pa.types.is_fixed_size_list(type_)):
        return _leaf_paths(f"{name}.list.element", type_.value_type)
    return [name]


def _few_distinct(col: pa.ChunkedArray) -> bool:
    """Whether at most half of ``col``'s non-null values are distinct. The
    values are hashed in two steps: the first ⌊n/2⌋+1 rows, whose distinct
    count is a lower bound that already answers False for a column that
    starts with that many distinct values, then, only if it does not, the
    rest of the rows together with the first step's distinct values."""
    n = len(col) - col.null_count
    head = n // 2 + 1
    # pc.unique (null counted as a value) hashes about twice as fast as
    # pc.count_distinct
    distinct = pc.unique(col.slice(0, head))
    if 2 * (len(distinct) - distinct.null_count) <= n and len(col) > head:
        distinct = pc.unique(pa.chunked_array([distinct, *col.slice(head).chunks], col.type))
    return 2 * (len(distinct) - distinct.null_count) <= n


def _write_data_file(table: pa.Table, path: str) -> None:
    """The one writer of every table data file (base, merge-on-read delta,
    compaction, change feed, generic bucket, DDL rewrite).

    The codec is one knob: ``ODIBEL_PARQUET_CODEC`` (default ``snappy`` —
    the hot-path read trade; ``zstd`` roughly halves cold-storage bytes at
    a small CPU cost, the usual choice for a 100-TB lake). Read at call time
    inside the writing task, so it applies on workers too.

    Each column's encoding is chosen from its Arrow type and the distinct
    count observed in ``table``, never from its name or the table's kind:

    - integer and temporal columns (Parquet INT32/INT64) are written
      ``DELTA_BINARY_PACKED`` with no dictionary: LSNs, turn indexes and
      timestamps are unique or near-sorted, so a dictionary stores every
      value twice while their deltas pack into a few bits;
    - flat string and binary columns get a dictionary only when at most
      half their non-null values are distinct, else they are PLAIN;
    - floating-point and boolean columns are PLAIN;
    - nested columns, and every other type, keep pyarrow's default
      (dictionary on every leaf).

    Encodings change bytes only: every file decodes to the same rows and
    Arrow schema, and files written with pyarrow's defaults read alongside."""
    dictionary, encoding = [], {}
    for name, col in zip(table.column_names, table.columns):
        t = col.type
        if pa.types.is_integer(t) or pa.types.is_temporal(t):
            encoding[name] = "DELTA_BINARY_PACKED"
        elif (pa.types.is_string(t) or pa.types.is_large_string(t)
              or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            if _few_distinct(col):
                dictionary.append(name)
        elif not (pa.types.is_floating(t) or pa.types.is_boolean(t)):
            dictionary.extend(_leaf_paths(name, t))
    pq.write_table(
        table, path, compression=os.environ.get("ODIBEL_PARQUET_CODEC", "snappy"),
        use_dictionary=dictionary, column_encoding=encoding,
    )


def _reject_null_fixed_size_lists(t: pa.Table) -> None:
    """Raise a ValueError naming the first column of ``t`` that holds a null
    fixed-size list at any depth, which Parquet cannot store readably; the
    per-batch pre-pass of :func:`publish_dataset` and
    :func:`upsert_published`, before the bucket shuffle, so nothing stages."""

    def has_null(a: pa.Array) -> bool:
        if pa.types.is_fixed_size_list(a.type) and a.null_count:
            return True
        if isinstance(a, pa.StructArray):
            return any(map(has_null, a.flatten()))
        if isinstance(a, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
            return has_null(a.flatten())
        return False

    for name, col in zip(t.column_names, t.columns):
        if any(map(has_null, col.chunks)):
            raise ValueError(
                f"column {name!r} ({col.type}) holds a null fixed-size list, which "
                "Parquet cannot store readably; fill it or cast the column to a "
                "variable-size list")


class ConcurrentWriterError(RuntimeError):
    """Another live writer holds the table lock."""


class table_lock:
    """Advisory single-writer lease for a published table.

    The sink's correctness story assumes one writer per table (per-bucket
    manifest flips are atomic, but `vacuum`/`compact_published` racing an
    in-flight apply can sweep its staging or fold deltas mid-append). This
    lease makes the assumption enforced instead of documented: writers take
    ``with table_lock(out_dir, owner="tailer-1"):`` and a second concurrent
    writer fails fast with :class:`ConcurrentWriterError`.

    Mechanics: ``_LOCK.json`` is created with ``O_CREAT|O_EXCL`` (atomic on
    POSIX and object stores with if-none-match semantics). A crashed writer's
    lock is reclaimed when (a) its pid is dead — only trusted when the
    hostname matches, a pid number means nothing across nodes — or (b) the
    lease file is older than ``ttl_s`` (the cross-host fallback; long writers
    should ``refresh()`` periodically, which bumps the file's mtime).
    Reclaim uses a second ``O_EXCL`` create of a takeover file then an
    ``os.replace``, so two reclaimers can't both win."""

    def __init__(self, out_dir: str, *, owner: str = "writer", ttl_s: float = 3600.0,
                 wait_s: float | None = None):
        self.path = os.path.join(out_dir, "_LOCK.json")
        self.out_dir = out_dir
        self.owner = owner
        self.ttl_s = float(ttl_s)
        if wait_s is None:
            wait_s = float(os.environ.get("ODIBEL_LOCK_WAIT_S", "0"))
        #: >0 turns fail-fast into writer QUEUEING: acquire() polls with
        #: backoff until the lease frees or the deadline passes — two cron
        #: jobs hitting one table serialize instead of one of them dying.
        self.wait_s = float(wait_s)
        self._held = False
        # Unique per-lock-instance fencing token: release()/refresh() verify
        # it against the on-disk lock before acting, so a writer whose lease
        # was reclaimed (TTL expiry on another host) cannot delete or extend
        # the NEW holder's lease.
        import uuid

        self._token = uuid.uuid4().hex

    #: An acquire()-side .takeover file lives for milliseconds (create →
    #: os.replace). One older than this is an orphan from a reclaimer that
    #: crashed between the two steps — without cleanup it wedges reclaim
    #: forever (O_EXCL create always fails, nothing else removes it).
    TAKEOVER_TTL_S = 60.0

    def _payload(self) -> bytes:
        import socket

        return json.dumps(
            {
                "owner": self.owner,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "ttl_s": self.ttl_s,
                "token": self._token,
            }
        ).encode()

    def _owns(self) -> bool:
        """True iff the on-disk lock file still carries OUR fencing token."""
        try:
            with open(self.path) as f:
                return json.load(f).get("token") == self._token
        except (OSError, ValueError):
            return False

    def _try_create(self, path: str) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "wb") as f:
            f.write(self._payload())
            f.flush()
            os.fsync(f.fileno())
        return True

    def _is_stale(self) -> bool:
        import socket

        try:
            with open(self.path) as f:
                cur = json.load(f)
            mtime = os.path.getmtime(self.path)
        except (OSError, ValueError):
            return True  # torn/missing lock file — reclaimable
        import time

        if time.time() - mtime > float(cur.get("ttl_s", self.ttl_s)):
            return True
        if cur.get("host") == socket.gethostname():
            try:
                os.kill(int(cur["pid"]), 0)
            except (OSError, ValueError):
                return True  # same host, pid gone — crashed writer
        return False

    def acquire(self) -> "table_lock":
        import time as _time

        os.makedirs(self.out_dir, exist_ok=True)
        deadline = _time.monotonic() + self.wait_s
        delay = 0.05
        while True:
            if self._try_create(self.path):
                self._held = True
                return self
            if self._is_stale():
                takeover = self.path + ".takeover"
                try:
                    # Clear an orphaned takeover (reclaimer died between
                    # create and replace) so reclaim can't wedge permanently.
                    if _time.time() - os.path.getmtime(takeover) > self.TAKEOVER_TTL_S:
                        os.remove(takeover)
                except OSError:
                    pass
                if self._try_create(takeover):
                    os.replace(takeover, self.path)
                    self._held = True
                    return self
            if _time.monotonic() >= deadline:
                break
            _time.sleep(delay)
            delay = min(delay * 2, 0.5)
        try:
            with open(self.path) as f:
                cur = json.load(f)
        except (OSError, ValueError):
            cur = {}
        raise ConcurrentWriterError(
            f"table {self.out_dir} is locked by "
            f"{cur.get('owner')!r} (pid {cur.get('pid')} on {cur.get('host')}); "
            "single-writer sink — wait for it or reclaim after its TTL"
        )

    def refresh(self) -> None:
        """Bump the lease mtime (long writers call this between rounds).

        Raises :class:`ConcurrentWriterError` if the lease was reclaimed
        (TTL expiry) and is now held by another writer — extending it would
        keep the WRONG writer's lease alive, and the caller must stop
        mutating the table immediately.
        """
        if not self._held:
            return
        if not self._owns():
            self._held = False
            raise ConcurrentWriterError(
                f"lease on {self.out_dir} was reclaimed by another writer "
                "(TTL expired mid-run) — aborting to preserve single-writer"
            )
        os.utime(self.path, None)

    def release(self) -> None:
        if self._held:
            try:
                # Fencing check: only remove the lock if it is still OURS —
                # a reclaimed lease now belongs to the new holder.
                if self._owns():
                    os.remove(self.path)
            except OSError:
                pass
            self._held = False

    def __enter__(self) -> "table_lock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def _single_writer(out_arg: str, owner_arg: str = "run_id"):
    """Wrap a table-mutating op in :class:`table_lock` on its ``out_arg``
    directory — every publish/compact/vacuum entry point is one lease, so
    two concurrent writers (or a vacuum racing an apply) fail fast instead
    of corrupting staging/deltas. Released on any exit, including errors; a
    SIGKILLed holder is reclaimed by pid-liveness (same host) or TTL."""
    import functools
    import inspect

    def deco(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            out_dir = bound.arguments[out_arg]
            owner = str(bound.arguments.get(owner_arg) or fn.__name__)
            with table_lock(out_dir, owner=owner):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def _atomic_write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _bucket_watermarks(*tables: pa.Table) -> dict[str, int]:
    """max ``_lsn`` per WAL partition (``_part``) over the stored-form rows
    of ``tables`` (vectorized), in partition order."""
    part = np.concatenate([t["_part"].to_numpy(zero_copy_only=False) for t in tables])
    lsn = np.concatenate([t["_lsn"].to_numpy(zero_copy_only=False) for t in tables])
    out: dict[str, int] = {}
    for p in np.unique(part):
        out[str(int(p))] = int(lsn[part == p].max())
    return out


_MANIFEST_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("rows_out", pa.int64()),
        ("n_events", pa.int64()),
        ("file", pa.string()),
        ("staged", pa.string()),
        ("watermarks", pa.string()),
        ("run_id", pa.string()),
        # change-data-feed sidecar: staged path + final path, published in the
        # same per-bucket atomic step as the data file ("" when no feed)
        ("feed_staged", pa.string()),
        ("feed_final", pa.string()),
        # the file's Bloom filters (JSON, skipping.bloom_filter over the
        # first key column, then the layout's bloom_cols), stored in its
        # manifest entry by the publish
        ("key_filter", pa.string()),
    ]
)


def _stage_bucket(
    out: pa.Table,
    *,
    bucket: int,
    filter_cols: list[str],
    staging: str,
    run_id: str,
    n_events: int,
    watermarks: str = "{}",
    delta_tag: str | None = None,
    feed: tuple[pa.Table, str] | None = None,
    metrics: str | None = None,
    events: int = 0,
) -> pa.Table:
    """The one bucket writer: stage ``out`` under a deterministic name and
    return the bucket's ONE manifest row. Without ``delta_tag`` the file is
    the bucket's next base (``part-<bucket>-<run_id>``, copy-on-write); with
    it, a merge-on-read delta (``delta-<bucket>-<tag>``) that the publish
    appends to the bucket's manifest. Every file gets a Bloom filter per
    column of ``filter_cols`` (:func:`_filter_cols`), tombstone rows
    included; the publish stores them in the file's manifest entry
    (``key_filter``), where :func:`_bucket_prune` probes the key column's
    and :func:`read_published` every one. ``feed=(table, final_path)``
    stages the bucket's change feed next to its data; the publish moves it
    into place in the same per-bucket step. ``metrics`` names a live-counter actor that gets the
    task-side progress (:func:`odibel_ray.monitor.record_task_metrics`):
    ``events`` applied (event applies only), rows staged, buckets finished."""
    from odibel_ray.cdc.skipping import bloom_filter

    if delta_tag is None:
        fname = _bucket_filename(bucket, run_id)
    else:
        fname = f"delta-{bucket:06d}-{delta_tag}.parquet"
    staged = os.path.join(staging, fname)
    _write_data_file(out, staged)
    feed_staged, feed_final = "", ""
    if feed is not None:
        feed_staged = os.path.join(staging, f"feed-{bucket:06d}.parquet")
        feed_final = feed[1]
        _write_data_file(feed[0], feed_staged)
    if metrics:
        from odibel_ray.monitor import record_task_metrics

        counts = {"events": events} if events else {}
        record_task_metrics(metrics, **counts, rows=len(out), buckets_staged=1)
    return pa.table(
        {
            "bucket": pa.array([bucket], pa.int64()),
            "rows_out": pa.array([len(out)], pa.int64()),
            "n_events": pa.array([n_events], pa.int64()),
            "file": pa.array([fname], pa.string()),
            "staged": pa.array([staged], pa.string()),
            "watermarks": pa.array([watermarks], pa.string()),
            "run_id": pa.array([run_id], pa.string()),
            "feed_staged": pa.array([feed_staged], pa.string()),
            "feed_final": pa.array([feed_final], pa.string()),
            "key_filter": pa.array([json.dumps(bloom_filter(out, filter_cols))], pa.string()),
        }
    )


def _write_bucket(
    rows: pa.Table,
    *,
    layout: dict,
    staging: str,
    run_id: str,
    bases: dict[int, dict] | None = None,
    mor: bool = False,
    out_dir: str = "",
    seq: int = 0,
    feed: dict | None = None,
    metrics: str | None = None,
) -> pa.Table:
    """The one bucket write of every keyed table, transcript and generic:
    stage one bucket's changes and return its ONE manifest row. ``rows``
    are in stored form: the ``layout``'s key and payload columns, ``_lsn``,
    ``_op`` (``D`` marks a tombstone) and ``_bucket``, plus ``_part`` on a
    transcript table. A replay and an apply reach it through
    :func:`_write_events`, an upsert through :func:`_write_upsert`, a
    rebucket directly.

    The group's LWW winners are the rows at one
    :func:`~odibel_ray.cdc.lww.keep_last_indices` of ``rows``. With
    ``mor``, a bucket that has a base in ``bases`` (published bucket
    manifests, reduced to their file names and watermarks) stages the
    winners as a DELTA, tombstones retained — no base read, no base
    rewrite. Every other write stages the bucket's next base:
    :func:`merge_base_deltas` of the base, read with :func:`_read_bucket`,
    and the winners; a bucket with no base stages the winners without their
    tombstones (dropped from the indices, so the wide rows are taken once),
    and a generic table's base never gets ``_lsn`` or ``_op``.

    A transcript write's watermarks are the per-part max ``_lsn`` of its
    rows and of the base rows it folds in (for a delta, merged with the
    base's), and its ``n_events`` counts both. Its delta is named by that
    post-apply watermark STATE, not the run_id, so a crash-resume that
    re-applies the same events under a fresh run_id overwrites the crashed
    run's delta instead of stacking a duplicate. A generic write counts its
    rows, and names its delta by ``(seq, run_id)``: a resume of the same
    run overwrites its own delta, a later run (next ``seq``) never does.

    ``feed`` (``{dir, values, lsn}``, never with a delta): the bucket's
    row-level change feed, :func:`~odibel_ray.cdc.lww.change_feed_group`
    over the base rows of the keys the group carries and the winners, stages
    with the data and publishes in the same pointer flip. A transcript
    feed file is named by the watermark state (``state-<hash>``), so a
    resume overwrites rather than duplicates it (two applies of a bucket
    always advance some part's max LSN); a generic one by its write
    sequence and run (``upsert-<seq>-<run_id>``), as its delta is, so a
    resume of the same run overwrites its own file and a later upsert into
    the same feed directory never does. Its ``_lsn`` is each key's
    winner's."""
    if len(rows) == 0:
        # a shard whose events all failed prepare's validity filter
        # publishes nothing — skip, don't IndexError the whole run
        return _MANIFEST_SCHEMA.empty_table()
    delay = float(os.environ.get("ODIBEL_TEST_APPLY_DELAY", "0"))
    if delay:  # test hook: lets the kill-resume test catch the run mid-publish
        time.sleep(delay)
    os.makedirs(staging, exist_ok=True)
    keys, system = layout["key_cols"], layout["system"]
    bucket = int(rows["_bucket"][0].as_py())
    if not system:
        rows = rows.drop_columns(["_bucket"])
    base = (bases or {}).get(bucket)
    delta = mor and base is not None
    old = None if delta or base is None else _read_bucket(out_dir, base, layout)
    idx = keep_last_indices(rows, keys, "_lsn")
    kw = {"n_events": len(rows)}
    if system:
        wms = _bucket_watermarks(rows, *([] if old is None else [old]))
        if delta:
            # effective watermarks: merged(base, every delta) — keeps
            # _watermark_matrix and the next run's idempotence filter exact
            wms = _merged_watermarks(base["watermarks"], wms)
        kw["n_events"] = kw["events"] = len(rows) + (0 if old is None else len(old))
        kw["watermarks"] = json.dumps(wms)
    stage = partial(_stage_bucket, bucket=bucket, staging=staging, run_id=run_id,
                    filter_cols=_filter_cols(keys, layout["bloom_cols"]), metrics=metrics, **kw)
    if delta:
        state = wms if system else [seq, run_id]
        tag = hashlib.sha1(json.dumps(state, sort_keys=True).encode()).hexdigest()[:16]
        return stage(rows.take(idx), delta_tag=tag)
    if old is None:
        # tombstones dropped in index space: the wide rows are taken once
        live = pc.fill_null(pc.not_equal(rows["_op"].take(idx), "D"), False)
        new = rows.drop_columns(["_op"] if system else ["_op", "_lsn"])
        new = new.take(idx[live.to_numpy(zero_copy_only=False)])
    else:
        new = merge_base_deltas(old, [rows.take(idx)], keys=keys)
    if feed is None:
        return stage(new)
    cols = [*keys, *feed["values"]]
    win = rows.select([*cols, "_lsn", "_op"]).take(idx)
    # only the keys the group carries can change: the base rows whose every
    # key column value occurs among them (a superset; the kernel leaves a
    # key with no winner unchanged)
    carried = win.select(cols).slice(0, 0) if old is None else old.select(cols)
    for k in keys:
        carried = carried.filter(
            pc.is_in(carried[k], value_set=pc.unique(win[k]), skip_nulls=False))
    sides = [(carried, -1), (win, 1)]
    feed_t = change_feed_group(pa.concat_tables(
        [t.append_column("_side", pa.array(np.full(len(t), side, np.int64))) for t, side in sides],
        promote_options="default"), keys, feed["values"])
    if not feed["lsn"]:
        feed_t = feed_t.drop_columns(["_lsn"])
    name = (f"state-{hashlib.sha1(json.dumps(wms).encode()).hexdigest()[:16]}" if system
            else f"upsert-{seq:06d}-{run_id}")
    path = os.path.join(feed["dir"], f"bucket={bucket}", f"{name}.parquet")
    return stage(new, feed=(feed_t, path))


def _bases(manifests: dict[int, dict]) -> dict[int, dict]:
    """Bucket manifests reduced to what :func:`_write_bucket` needs of a
    base: the file names :func:`_read_bucket` opens, and the watermarks a
    transcript delta advances."""
    return {b: {"file": m["file"], "deltas": [{"file": d["file"]} for d in m.get("deltas", [])],
                "watermarks": m["watermarks"]} for b, m in manifests.items()}


def _write_events(ev: pa.Table, **kw) -> pa.Table:
    """One bucket's prepared transcript events (:func:`prepare_events`) as
    stored-form rows through :func:`_write_bucket`; the per-bucket body of
    a replay and an apply."""
    cols = {c: ev[c] for c in LOGICAL_COLUMNS}
    cols.update(_lsn=ev["lsn"], _part=ev["part"], _bucket=ev["bucket"], _op=ev["op"])
    return _write_bucket(pa.table(cols), **kw)


def _bucket_filename(bucket: int, run_id: str) -> str:
    """Versioned data filename: ``part-<bucket>-<run>.parquet``. The run tag
    makes publish copy-on-write — a new version lands under a NEW name and
    the atomic manifest write is the only pointer flip. Replacing the bucket
    file in place (the old ``part-<bucket>.parquet`` scheme) had a crash
    window: die after the data ``os.replace`` but before the manifest write
    and the old manifest fails its row-count audit, the bucket drops out of
    ``read_published``, and an incremental resume over a tail-only log
    rebuilds the bucket from new events alone — silent base-row loss.
    Retries of the SAME run still overwrite their own file (idempotent)."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in run_id)
    return f"part-{bucket:06d}-{safe}.parquet"


def merge_base_deltas(
    base: pa.Table | None,
    deltas: list[pa.Table],
    keys: Sequence[str] = ("conv_id", "turn_idx"),
) -> pa.Table:
    """LWW-merge one bucket's base table with its merge-on-read delta files:
    keep the max-``_lsn`` row per key across base ∪ deltas
    (:func:`~odibel_ray.cdc.lww.keep_last_per_key`), drop tombstones. Base
    rows are implicit inserts; delta rows carry ``_op`` (``D`` rows are
    tombstones that must shadow older base/delta rows). Same-key comparisons
    are within one WAL partition (a key's events live in one part), where LSN
    is totally ordered — the same convergence argument as
    :func:`incremental_apply`. Of two rows of one key and ``_lsn`` the later
    one wins, and a null key is one key. Output keeps the base column
    layout (no ``_op``), sorted by key; payload columns may be nested.
    Generic tables merge on their layout ``keys``; their base files carry
    no ``_lsn`` (treated as older than every delta, and the column is
    dropped again on the way out — but kept when ``base`` is None). A
    copy-on-write :func:`upsert_published` rewrites a bucket through this
    merge too."""
    base_had_lsn = base is None or "_lsn" in base.column_names
    parts = []
    if base is not None and len(base):
        if "_op" not in base.column_names:
            base = base.append_column(
                "_op", pa.array(np.full(len(base), "I"), pa.string())
            )
        if "_lsn" not in base.column_names:
            base = base.append_column(
                "_lsn", pa.array(np.full(len(base), -1, np.int64))
            )
        parts.append(base)
    parts.extend(d for d in deltas if len(d))
    if not parts:
        out = base if base is not None else pa.table({})
        return out.drop_columns(["_op"]) if "_op" in out.column_names else out
    t = pa.concat_tables(parts, promote_options="default").combine_chunks()
    t = keep_last_per_key(t, keys, "_lsn")
    t = t.filter(pc.not_equal(t["_op"], "D"))
    drop = ["_op"] + ([] if base_had_lsn else ["_lsn"])
    return t.drop_columns(drop)


def _read_bucket(
    out_dir: str,
    m: dict,
    layout: dict,
    columns: list[str] | None = None,
    filters: list | None = None,
) -> pa.Table:
    """The one per-bucket read: bucket manifest ``m``'s base file, LWW-merged
    with its merge-on-read deltas on the layout's key columns when it has
    any. ``columns`` projects the result; the merge still reads the key +
    ``_lsn`` and ``_op`` (deltas) it needs, then projects. Only bases of
    tables with system columns carry ``_lsn``: generic bases, compacted
    ones included, do not. ``filters`` pushes a conjunctive pyarrow filter
    into every file read — only valid for predicates on the keys, which a
    merge never changes."""
    keys = layout["key_cols"]
    base_path = os.path.join(out_dir, m["file"])
    if not m.get("deltas"):
        return pq.read_table(base_path, columns=columns, filters=filters)
    merge_cols = bcols = None
    if columns is not None:
        merge_cols = list(
            dict.fromkeys(c for c in [*columns, *keys, "_lsn"] if c != "_op")
        )
        bcols = [c for c in merge_cols if c != "_lsn" or layout["system"]]
    base = pq.read_table(base_path, columns=bcols, filters=filters)
    deltas = [
        pq.read_table(
            os.path.join(out_dir, d["file"]),
            columns=None if merge_cols is None else [*merge_cols, "_op"],
            filters=filters,
        )
        for d in m["deltas"]
    ]
    t = merge_base_deltas(base, deltas, keys=keys)
    return t if columns is None else t.select(columns)


def _merged_watermarks(old: dict[str, int] | None, new: dict[str, int]) -> dict[str, int]:
    out = dict(old or {})
    for p, l in new.items():
        out[p] = max(int(l), int(out.get(p, -1)))
    return out


def _bucket_manifest_names(out_dir: str) -> list[str]:
    """The file names of every bucket manifest under ``_manifests/``, sorted."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    names = os.listdir(mdir) if os.path.isdir(mdir) else []
    return sorted(fn for fn in names if fn.startswith("bucket-") and fn.endswith(".json"))


def _read_bucket_manifest(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, MANIFEST_DIR, name)) as f:
        return json.load(f)


def _bucket_manifest_files(out_dir: str) -> list[dict]:
    """Every bucket manifest under ``_manifests/``, unchecked."""
    return [_read_bucket_manifest(out_dir, fn) for fn in _bucket_manifest_names(out_dir)]


def _file_rows(out_dir: str, name: str) -> int | None:
    """The row count in data file ``name``'s footer; None when it does not
    exist, also when a concurrent compaction removes it as it is opened."""
    try:
        return pq.read_metadata(os.path.join(out_dir, name)).num_rows
    except FileNotFoundError:
        return None


def _manifest_problems(out_dir: str, m: dict, rows=None):
    """The one validity check of a bucket manifest: its base file and every
    merge-on-read delta exist with the manifested row count. Lazy, so a
    caller that stops at the first problem opens no further footer.
    ``rows(name)`` returns a file's row count, None when the file does not
    exist: :func:`_file_rows` by default, the row counts a table's cache
    entry keeps (:meth:`_ReadPlan.num_rows`) on the read path."""
    rows = rows or partial(_file_rows, out_dir)
    files = [("base", m["file"], m["rows_out"])]
    files += [("delta", d["file"], d["rows_out"]) for d in m.get("deltas", [])]
    for kind, path, want in files:
        have = rows(path)
        if have is None:
            yield f"bucket {m['bucket']}: {kind} file missing: {path}"
        elif have != int(want):
            yield f"bucket {m['bucket']}: {kind} {path} has {have} rows, manifest says {want}"


def load_manifests(out_dir: str) -> dict[int, dict]:
    """Copies of the bucket manifests readers may trust (``{}`` for no
    buckets or no directory; ``fsck_table`` reports the others), resolved
    like every read: each file is stat-ed on every call and its footer
    reread only when its stat token changed (:meth:`_ReadPlan.passes`)."""
    return _read_plan(out_dir).checked


# ---------------------------------------------------------------------------
# Table snapshots (time travel): an opt-in retention policy over the
# copy-on-write publish. Every publish op already lands bucket data under a
# run-versioned filename and flips only the per-bucket manifest pointer; a
# *snapshot* is a frozen copy of the whole manifest set taken after the op,
# so "the table as of version V" is just "read V's file list". Retention is
# deliberate (Delta/Iceberg-style): each retained snapshot pins up to one
# extra file version per bucket it differs in, which at 10^10 events is real
# disk — so snapshots are off unless `enable_snapshots` (or `snapshots=k` on
# a publish op) turns them on, and `expire_snapshots` / `vacuum` bound them.
# ---------------------------------------------------------------------------


def enable_snapshots(out_dir: str, keep_last: int = 2) -> None:
    """Turn on snapshot retention for a table: every subsequent publish op
    (replay/incremental/compact/publish_dataset) records a table version and
    the newest ``keep_last`` versions stay readable via
    ``read_published(..., version=V)``."""
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    sdir = os.path.join(out_dir, SNAPSHOT_DIR)
    os.makedirs(sdir, exist_ok=True)
    _atomic_write_json(os.path.join(sdir, SNAPSHOT_POLICY), {"keep_last": int(keep_last)})
    # enabling on an already-published table pins its CURRENT state as the
    # first version — otherwise the next apply's per-bucket sweep would
    # remove exactly the files time travel back to "before that apply" needs
    if not list_snapshots(out_dir) and load_manifests(out_dir):
        record_snapshot(out_dir, "bootstrap")


def snapshot_policy(out_dir: str) -> int | None:
    """The table's ``keep_last`` retention, or None when snapshots are off."""
    p = os.path.join(out_dir, SNAPSHOT_DIR, SNAPSHOT_POLICY)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return int(json.load(f)["keep_last"])


def _snapshot_path(out_dir: str, version: int) -> str:
    return os.path.join(out_dir, SNAPSHOT_DIR, f"v-{version:06d}.json")


def list_snapshots(out_dir: str) -> list[dict]:
    """All retained snapshots, oldest first: ``{version, op, run_id,
    rows_total, buckets}`` (buckets = frozen per-bucket manifests)."""
    sdir = os.path.join(out_dir, SNAPSHOT_DIR)
    if not os.path.isdir(sdir):
        return []
    out = []
    for fn in sorted(os.listdir(sdir)):
        if fn.startswith("v-") and fn.endswith(".json"):
            with open(os.path.join(sdir, fn)) as f:
                out.append(json.load(f))
    return sorted(out, key=lambda s: s["version"])


def version_at(out_dir: str, as_of) -> int:
    """Resolve a wall-clock timestamp to the newest retained snapshot taken
    at or before it (Delta's ``TIMESTAMP AS OF``). ``as_of`` is a unix
    timestamp or an ISO-8601 string (naive = UTC)."""
    if isinstance(as_of, str):
        from datetime import datetime, timezone

        dt = datetime.fromisoformat(as_of)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        as_of = dt.timestamp()
    best = None
    for s in list_snapshots(out_dir):
        if s.get("unix_ts", 0) <= float(as_of):
            best = s["version"]
    if best is None:
        have = [s["version"] for s in list_snapshots(out_dir)]
        raise FileNotFoundError(
            f"no retained snapshot at or before {as_of} under {out_dir} "
            f"(retained versions: {have})"
        )
    return best


def snapshot_manifests(out_dir: str, version: int) -> dict[int, dict]:
    """The frozen per-bucket manifest set of one retained version."""
    path = _snapshot_path(out_dir, version)
    if not os.path.exists(path):
        have = [s["version"] for s in list_snapshots(out_dir)]
        raise FileNotFoundError(
            f"snapshot v{version} not retained under {out_dir} (have: {have})"
        )
    with open(path) as f:
        snap = json.load(f)
    return {int(b): m for b, m in snap["buckets"].items()}


def _manifest_files(manifests: dict[int, dict] | dict[str, dict]) -> set[str]:
    files: set[str] = set()
    for m in manifests.values():
        files.add(m["file"])
        files.update(d["file"] for d in m.get("deltas", []))
    return files


def _retained_files(out_dir: str) -> frozenset[str]:
    """Every data/delta filename referenced by a retained snapshot — the
    per-bucket publish sweep and vacuum must keep these. One tiny JSON read
    per retained snapshot (metadata only)."""
    files: set[str] = set()
    for snap in list_snapshots(out_dir):
        files.update(_manifest_files(snap["buckets"]))
    return frozenset(files)


def record_snapshot(out_dir: str, op: str,
                    manifests: dict[int, dict] | None = None) -> dict | None:
    """Freeze the table's live bucket ``manifests`` (None: load them) as the
    next version (no-op unless snapshots are enabled), then expire beyond
    the policy's ``keep_last``. Called by every publish op after its last
    manifest flip (:func:`_commit_table`), with the manifests it already
    holds; a crash before this point simply means the next successful op
    records the state — retained files from prior snapshots are never at
    risk because the in-publish sweep keeps everything ``_retained_files``
    lists."""
    keep_last = snapshot_policy(out_dir)
    if keep_last is None:
        return None
    if manifests is None:
        manifests = load_manifests(out_dir)
    if not manifests:
        return None
    snaps = list_snapshots(out_dir)
    buckets = {str(b): m for b, m in manifests.items()}
    if snaps and snaps[-1]["buckets"] == buckets:
        # no-op resume / idle compact: state unchanged → no duplicate version
        return None
    version = snaps[-1]["version"] + 1 if snaps else 1
    snap = {
        "version": version,
        "op": op,
        "unix_ts": time.time(),
        "rows_total": int(sum(m["rows_out"] for m in manifests.values())),
        "buckets": buckets,
    }
    _atomic_write_json(_snapshot_path(out_dir, version), snap)
    expire_snapshots(out_dir, keep_last)
    return {"version": version, "op": op}


def expire_snapshots(out_dir: str, keep_last: int | None = None) -> dict:
    """Drop snapshots beyond the newest ``keep_last`` (default: the table's
    policy) and sweep data/delta files no longer referenced by either the
    live manifests or a retained snapshot. Versions pinned by a savepoint
    (``odibel_ray.cdc.savepoint``) are kept regardless of ``keep_last``.
    Runs inside every publish op (which holds the table lease); run it
    standalone only while no writer is live."""
    from odibel_ray.cdc.savepoint import pinned_versions

    if keep_last is None:
        keep_last = snapshot_policy(out_dir) or 0
    snaps = list_snapshots(out_dir)
    pinned = pinned_versions(out_dir)
    drop = snaps[: max(0, len(snaps) - keep_last)] if keep_last >= 0 else []
    drop = [s for s in drop if s["version"] not in pinned]
    removed = {"snapshots": 0, "files": 0}
    for s in drop:
        try:
            os.remove(_snapshot_path(out_dir, s["version"]))
            removed["snapshots"] += 1
        except OSError:
            pass
    if removed["snapshots"]:
        removed["files"] = _sweep_orphans(out_dir)
    return removed


def _sweep_orphans(out_dir: str) -> int:
    """Remove the table's root data/delta files that neither a live bucket
    manifest nor a retained snapshot references; returns how many."""
    keep = _manifest_files(load_manifests(out_dir)) | _retained_files(out_dir)
    return _sweep_unkept(out_dir, "*", keep)


def _sweep_unkept(out_dir: str, bucket_glob: str, keep: set[str]) -> int:
    """Best-effort removal of the data/delta files of the buckets matching
    ``bucket_glob`` that are not in ``keep``; returns how many."""
    import glob as _glob

    n = 0
    for pat in (f"part-{bucket_glob}.parquet", f"delta-{bucket_glob}.parquet"):
        for stale in _glob.glob(os.path.join(out_dir, pat)):
            if os.path.basename(stale) not in keep:
                try:
                    os.remove(stale)
                    n += 1
                except OSError:
                    pass
    return n


def _audit_staged(row) -> str:
    """Row-count audit of one staged file (CSVToParquet.scala:25-30 analog);
    returns the staged path."""
    staged = row["staged"]
    meta_rows = pq.read_metadata(staged).num_rows
    if meta_rows != row["rows_out"]:
        raise RuntimeError(
            f"audit failed for bucket {row['bucket']}: staged {meta_rows} != manifest {row['rows_out']}"
        )
    return staged


def _sweep_bucket_versions(out_dir: str, bucket: int, keep: set[str]) -> None:
    """Best-effort removal of this bucket's superseded data/delta files
    (everything not in ``keep``) after a manifest pointer flip."""
    _sweep_unkept(out_dir, f"{bucket:06d}*", keep)


def _publish_delta_row(row, out_dir: str) -> tuple[dict, dict]:
    """Audit + atomically publish one bucket's DELTA manifest row: the delta
    file moves into place, then its descriptor and key filter are appended
    to the bucket's existing manifest (advancing its effective watermarks).
    Returns the delta's record and the bucket manifest written."""
    staged = _audit_staged(row)
    os.replace(staged, os.path.join(out_dir, row["file"]))
    mpath = os.path.join(out_dir, MANIFEST_DIR, f"bucket-{int(row['bucket']):06d}.json")
    with open(mpath) as f:
        manifest = json.load(f)
    desc = {
        "file": row["file"],
        "rows_out": int(row["rows_out"]),
        "n_events": int(row["n_events"]),
        "run_id": row["run_id"],
    }
    deltas = manifest.setdefault("deltas", [])
    if not any(d["file"] == row["file"] for d in deltas):
        deltas.append({**desc, "key_filter": json.loads(row["key_filter"])})
    # effective watermarks: merged(base, every delta) — keeps
    # _watermark_matrix and the next run's idempotence filter exact
    manifest["watermarks"] = json.loads(row["watermarks"])
    manifest["last_delta_run_id"] = row["run_id"]
    # the manifest write IS the publish (atomic pointer flip); the delta
    # file landed first, so a crash in between leaves an orphan file
    # (vacuumed later), never a dangling reference
    _atomic_write_json(mpath, manifest)
    return {"bucket": int(row["bucket"]), "kind": "delta", **desc}, manifest


def _publish_base_row(row, out_dir: str, retained: frozenset[str] = frozenset()) -> dict:
    """Audit + atomically publish one bucket's BASE manifest row: move the
    data file into place, flip the manifest pointer (the new manifest
    carries the base's key filter), sweep old versions
    (including any merge-on-read deltas the fresh base supersedes)."""
    staged = _audit_staged(row)
    final_path = os.path.join(out_dir, row["file"])
    os.replace(staged, final_path)
    # feed sidecar publishes with its bucket, just before the manifest
    # pointer flip: a crash in between leaves the bucket's OLD manifest
    # (and old data file) fully consistent, and the resume re-applies the
    # same events — the feed's watermark-derived filename makes that an
    # overwrite, never a duplicate
    if row.get("feed_staged"):
        os.makedirs(os.path.dirname(row["feed_final"]), exist_ok=True)
        os.replace(row["feed_staged"], row["feed_final"])
    manifest = {
        "bucket": int(row["bucket"]),
        "rows_out": int(row["rows_out"]),
        "n_events": int(row["n_events"]),
        "file": row["file"],
        "watermarks": json.loads(row["watermarks"]),
        "run_id": row["run_id"],
        "key_filter": json.loads(row["key_filter"]),
    }
    # the manifest write IS the publish: data lands under a versioned
    # name first (copy-on-write), so until this atomic pointer flip the
    # previous version of the bucket stays live and audited
    _atomic_write_json(
        os.path.join(out_dir, MANIFEST_DIR, f"bucket-{manifest['bucket']:06d}.json"), manifest
    )
    # sweep superseded/orphaned versions of this bucket (the previous
    # published file + deltas it folded in, plus any leftovers from crashed
    # runs) — best-effort derived-data cleanup after the pointer flip.
    # Files pinned by a retained snapshot are kept (time travel).
    _sweep_bucket_versions(out_dir, manifest["bucket"], {manifest["file"]} | retained)
    return manifest


def _publish_stream(out, out_dir: str, live: dict[int, dict] | None = None) -> list[dict]:
    """Audit + atomically publish each manifest row of ``out`` (manifest-row
    tables from a driver generator, or a Ray Data Dataset of them; consumed
    as groups finish) — ``delta-*`` rows append to their bucket's manifest,
    base rows flip it to a fresh base. ``live``: the bucket manifests the
    op loaded at its start; every flip updates it in place, so
    :func:`_commit_table` needs no reload."""
    published = []
    publish_delay = float(os.environ.get("ODIBEL_TEST_PUBLISH_DELAY", "0"))
    retained = _retained_files(out_dir)
    rows = out.iter_rows() if hasattr(out, "iter_rows") else (
        r for t in out for r in t.to_pylist())
    for row in rows:
        if publish_delay:  # test hook: lets the kill-resume test land mid-publish
            time.sleep(publish_delay)
        if row["file"].startswith("delta-"):
            rec, manifest = _publish_delta_row(row, out_dir)
        else:
            rec = manifest = _publish_base_row(row, out_dir, retained)
        published.append(rec)
        if live is not None:
            live[manifest["bucket"]] = manifest
    return published


def _commit_table(out_dir: str, tman: dict, op: str, run_id: str,
                  live: dict[int, dict] | None = None) -> tuple[dict, int | None]:
    """The one epilogue of every table write: refresh the TABLE manifest
    ``tman`` from the live bucket manifests, then record a snapshot version
    (a no-op unless snapshots are on). ``rows_total`` counts base rows
    only — the logical count of a table with merge-on-read deltas needs the
    merge, and compaction restores the exact figure. ``live``: the
    manifests :func:`_publish_stream` kept current (audited at load or at
    staging); without it they are reloaded. Returns the live manifests and
    the new snapshot version (or None)."""
    manifests = load_manifests(out_dir) if live is None else dict(sorted(live.items()))
    tman.update(
        {
            "buckets": sorted(manifests),
            "rows_total": int(sum(m["rows_out"] for m in manifests.values())),
            "mor_deltas": int(sum(len(m.get("deltas", [])) for m in manifests.values())),
            "last_run_id": run_id,
        }
    )
    _atomic_write_json(os.path.join(out_dir, TABLE_MANIFEST), tman)
    snap = record_snapshot(out_dir, op, manifests)
    return manifests, (snap["version"] if snap else None)


def _replay_part(p: dict, *, timeline: SchemaTimeline, layout: dict, staging: str, run_id: str,
                 done: frozenset[int], metrics: str | None = None) -> pa.Table:
    """The per-part body of a partitioned replay, which both of its
    executors run: unless WAL partition ``p`` is in ``done``, ordered read
    of the shard's files → prepare → LWW apply → staged write. Returns the
    part's manifest row (none for a done or empty part). Valid because the
    log is key-aligned (bucket == part); see
    :func:`odibel_ray.cdc.apply.replay_partitioned`."""
    part = int(p["part"])
    if part in done or not p["files"]:
        # empty part=N dir: producer created it but never wrote a file
        # (or it was vacuumed) — nothing to apply, not an error
        return _MANIFEST_SCHEMA.empty_table()
    ev = prepare_events(_read_wal_part(part, p["files"]), timeline, num_buckets=None)
    return _write_events(ev, layout=layout, staging=staging, run_id=run_id, metrics=metrics)


@_single_writer("out_dir")
def replay_publish(
    log_dir: str,
    out_dir: str,
    *,
    num_buckets: int | None = None,
    run_id: str = "run-0",
    batch_size: int = 65536,
    partitioned: bool = False,
    metrics: str | None = None,
    snapshots: int | None = None,
) -> dict:
    """Full replay with the exactly-once sink. Resumable: already-published
    buckets (valid manifest + audited file) are filtered out *before* the
    apply, so a killed run re-does only unpublished buckets.

    ``partitioned=True`` (requires ``num_buckets is None``): shuffle-free
    shard path — each WAL partition is read, applied and staged as its own
    bucket (:func:`_replay_part`). Otherwise the log is prepared with
    ``num_buckets`` (which also re-buckets) and each bucket's events go
    through :func:`_write_events`.

    Like :func:`incremental_apply`, one per-bucket body runs on either of
    two schedulers, which share the layout pin, staging, audit, per-bucket
    manifest flip and epilogue. When the log's ``part=*/*.parquet`` bytes
    are at most :data:`DRIVER_MAX_BYTES`, the driver runs the body one
    bucket at a time, with no Ray Data job, and each bucket publishes
    before the next one is applied (a partitioned replay also reads each
    part only then). Above it, Ray Data runs one task per WAL partition
    (partitioned, :func:`~odibel_ray.cdc.apply.map_items`) or read →
    prepare → per-batch LWW combiner (:func:`compact_batch`) →
    ``groupby("bucket")`` (hashed, :func:`_grouped_apply`). The result's
    ``executor`` says which ran (``"driver"`` or ``"ray_data"``). Manifest
    ``n_events`` and ``n_events_applied`` of a hashed replay count a
    bucket's events after the Ray Data combiner, which the driver does not
    run, so they may differ between the two; data, files and watermarks do
    not differ.

    ``snapshots=k`` enables snapshot retention (see :func:`enable_snapshots`);
    the run records a table version on completion."""
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    # Pin the bucket layout BEFORE any staging (the publish_dataset pattern):
    # a crashed run resumed with a different num_buckets would otherwise
    # filter new-modulus bucket ids against old-modulus manifests in
    # _drop_done — silently dropping rows and splitting keys across
    # inconsistent buckets. TABLE_MANIFEST can't serve as the pin because it
    # is only written at the very end of a successful run.
    pin_path = os.path.join(out_dir, "_replay_layout.json")
    pin = {"num_buckets": num_buckets, "partitioned": bool(partitioned)}
    if os.path.exists(pin_path):
        with open(pin_path) as f:
            prev = json.load(f)
        if prev != pin:
            raise ValueError(
                f"resume layout mismatch for {out_dir}: a prior run pinned "
                f"{prev}, this run asked for {pin} — finish/vacuum the table "
                "with the pinned layout or use rebucket_published to resize"
            )
    else:
        _atomic_write_json(pin_path, pin)
    if snapshots is not None:
        enable_snapshots(out_dir, keep_last=snapshots)
    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    os.makedirs(staging, exist_ok=True)

    timeline = extract_timeline(log_dir)
    # the buckets a killed run already published: skipped by the apply, and
    # kept current by the publish for the epilogue, which reloads nothing
    live = load_manifests(out_dir)
    done = frozenset(live)

    if partitioned and num_buckets is not None:
        raise ValueError("partitioned sink requires num_buckets=None (bucket == WAL part)")
    parts = _wal_parts(log_dir)
    executor = _executor_for([f for p in parts for f in p["files"]])
    group_kw = dict(layout=_table_layout(out_dir), staging=staging, run_id=run_id, metrics=metrics)
    if partitioned:
        out = map_items(partial(_replay_part, timeline=timeline, done=done, **group_kw),
                        parts, executor)
    else:
        out = _grouped_apply(log_dir, parts, partial(_write_events, **group_kw), executor,
                             prep_kw={"timeline": timeline, "num_buckets": num_buckets},
                             done=done, batch_size=batch_size)
    published = _publish_stream(out, out_dir, live)
    tman = {
        "num_buckets": num_buckets,
        "timeline": timeline.to_json(),
        "schema_version": len(timeline.changes),
    }
    all_manifests, snap = _commit_table(out_dir, tman, "replay_publish", run_id, live)
    return {
        "published_now": len(published),
        "published_total": len(all_manifests),
        "n_events_applied": int(sum(p["n_events"] for p in published)),
        "rows_total": tman["rows_total"],
        "snapshot": snap,
        "executor": executor,
        "out_dir": out_dir,
    }


def _stat_token(path: str) -> tuple | None:
    """``(st_ino, st_mtime_ns, st_size)`` of ``path``; None when it does not
    exist. A replace (new inode) and an in-place rewrite (new mtime) both
    change it."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class _Bucket:
    """One parsed bucket manifest, the stat token of its file (None for a
    retained version's) and its files' Bloom filters (``key_filter``),
    decoded on first use, so a writer that only checks the manifest never
    decodes them: file name → column → :class:`~odibel_ray.cdc.skipping.Bloom`."""

    def __init__(self, manifest: dict, token: tuple | None = None):
        self.manifest, self.token = manifest, token

    @cached_property
    def blooms(self) -> dict[str, dict | None]:
        from odibel_ray.cdc.skipping import decode_blooms

        return {e["file"]: decode_blooms(e.get("key_filter"))
                for e in [self.manifest, *self.manifest.get("deltas", [])]}


#: tables whose resolution a process keeps, the least recently read dropped
#: first
_TABLE_CACHE_SIZE = 16
#: full Parquet footers one table's entry keeps, the oldest dropped first
#: (row counts are kept for every live file)
_FOOTER_CACHE_SIZE = 64
_TABLES: dict[str, "_Table"] = {}
_TABLES_LOCK = threading.Lock()


class _Table:
    """A table resolved once per manifest version: the per-process cache
    entry behind every read plan (:func:`_resolved_table`), writers' too. It
    holds the layout, the schema-op log, the parsed bucket manifests with
    their decoded key filters, and, under each file's stat token, the row
    count of every checked live file and the full footers of the last
    ``_FOOTER_CACHE_SIZE`` live files read. It is rebuilt when the
    stat token of a bucket manifest, the TABLE manifest, ``_layout.json`` or
    the schema log changes; a rebuild reparses only the bucket manifests
    whose token changed and keeps only the live files' row counts and
    footers."""

    def __init__(self, root: str, head: tuple, tokens: dict[str, tuple], old: "_Table | None"):
        self.root, self.head, self.tokens = root, head, tokens
        if old is not None and old.head == head:
            self.layout, self.meta = old.layout, old.meta
        else:
            self.layout, self.meta = _table_layout(root), load_schema_meta(root)
        reuse = {} if old is None else old.parsed
        self.parsed: dict[str, _Bucket] = {}
        for fn, token in tokens.items():
            bk = reuse.get(fn)
            if bk is None or bk.token != token:
                bk = _Bucket(_read_bucket_manifest(root, fn), token)
            self.parsed[fn] = bk
        self.buckets = {int(bk.manifest["bucket"]): bk for bk in self.parsed.values()}
        self.live = _manifest_files({b: bk.manifest for b, bk in self.buckets.items()})
        # readers of the old entry may still add to its maps: copy before iterating
        self.rows: dict[str, tuple] = {} if old is None else {
            f: v for f, v in old.rows.copy().items() if f in self.live}
        self.footers: dict[str, tuple] = {} if old is None else {
            f: v for f, v in old.footers.copy().items() if f in self.live}

    def footer(self, name: str) -> tuple:
        """``(footer, read)``: data file ``name``'s Parquet footer (None when
        it does not exist, or vanishes before it is read) and whether it was
        read from disk. The file is stat-ed on every call; a live file's
        footer is reused while its stat token is unchanged and it is among
        the last ``_FOOTER_CACHE_SIZE`` footers read."""
        path = os.path.join(self.root, name)
        token = _stat_token(path)
        if token is None:
            return None, False
        hit = self.footers.get(name)
        if hit is not None and hit[0] == token:
            return hit[1], False
        try:
            md = pq.read_metadata(path)
        except FileNotFoundError:
            return None, False
        if name in self.live:
            self.rows[name] = (token, md.num_rows)
            self.footers[name] = (token, md)
            if len(self.footers) > _FOOTER_CACHE_SIZE:
                # the oldest, found in a copy as other readers may insert
                # meanwhile; no lock, since join_published pickles read plans
                # (and so this entry) into Ray tasks
                self.footers.pop(next(iter(self.footers.copy())), None)
        return md, True

    def num_rows(self, name: str) -> tuple:
        """``(rows, read)``: data file ``name``'s row count (None when the
        file does not exist) and whether its footer was read from disk. The
        file is stat-ed on every call; a live file's row count is reused
        while its stat token is unchanged."""
        hit = self.rows.get(name)
        if hit is not None and hit[0] == _stat_token(os.path.join(self.root, name)):
            return hit[1], False
        md, read = self.footer(name)
        return (None if md is None else md.num_rows), read


def _resolved_table(out_dir: str) -> _Table:
    """``out_dir``'s cache entry, checked with one listing of ``_manifests/``
    and a stat of every bucket manifest, the TABLE manifest, ``_layout.json``
    and the schema log, and rebuilt when any of them changed. The rebuild
    runs outside the lock; two threads that rebuild one table at once both
    build a correct entry, and the next read checks whichever one stays."""
    root = os.path.abspath(out_dir)
    mdir = os.path.join(root, MANIFEST_DIR)
    tokens = {fn: t for fn in _bucket_manifest_names(root)
              if (t := _stat_token(os.path.join(mdir, fn))) is not None}
    head = tuple(_stat_token(os.path.join(root, f))
                 for f in (TABLE_MANIFEST, LAYOUT_FILE, SCHEMA_OPS))
    with _TABLES_LOCK:
        table = _TABLES.get(root)
    if table is None or table.head != head or table.tokens != tokens:
        table = _Table(root, head, tokens, table)
    with _TABLES_LOCK:
        _TABLES.pop(root, None)
        _TABLES[root] = table
        while len(_TABLES) > _TABLE_CACHE_SIZE:
            del _TABLES[next(iter(_TABLES))]
    return table


@dataclass
class _ReadPlan:
    """One table read, resolved by :func:`_read_plan` from the table's cache
    entry (:class:`_Table`) and executed by one read body,
    :func:`_read_buckets`: in the driver (:func:`lookup_key`, and
    :func:`read_published` at or below the cutover), or in one Ray Data
    task per bucket (:func:`read_published` above it), which gets the plan
    in its closure.

    It is the one resolver of a table: :func:`load_manifests` returns its
    :attr:`checked`; writers, DDL and DML take :attr:`schema`, :attr:`smap`
    and ``mrun`` from it, :func:`table_stats` its footers, and maintained
    views a base's schema from ``empty().schema`` (one footer, no data).

    Cached per process and table directory, and reused while the stat token
    ``(st_ino, st_mtime_ns, st_size)`` of every bucket manifest, the TABLE
    manifest, ``_layout.json`` and the schema log is unchanged: the layout,
    the schema-op log ``ops`` and the parsed bucket manifests with their
    decoded key filters (``buckets``). Under each data file's own stat
    token, the entry also keeps every checked live file's row count and the
    last ``_FOOTER_CACHE_SIZE`` live footers read (the schema file's, and
    those a routed scan's stats check reads). A retained version
    (``version``) is parsed on every read. The plan hands out copies
    (:attr:`manifests`, :func:`_bucket_prune`, ``layout``, ``ops``), never
    the cached objects.

    Existence is still checked on every read. Live bucket manifests are
    checked when a read is about to open them: a whole-table read checks
    every bucket (:attr:`checked`), a routed read only the buckets it
    keeps (:func:`_bucket_prune`). The check stats every file and compares
    the manifested row count with the file's footer, read from disk only
    when its stat token changed. A retained version's manifests are
    trusted. ``flipped`` buckets were already rewritten by an in-flight
    ``materialize_ddl`` run ``mrun`` (logical on disk); the others fold
    ``ops``. ``footers_read`` counts the footers the plan read from disk."""

    out_dir: str
    table: _Table
    version: int | None
    buckets: dict[int, _Bucket]
    layout: dict
    ops: list[dict]
    mrun: str | None
    requested: list[str] | None
    footers_read: int = 0
    _ok: dict[int, bool] = field(default_factory=dict)

    @cached_property
    def listed(self) -> dict[int, dict]:
        """Every bucket manifest of the version, unchecked: the cached
        objects, read here and never handed out."""
        if not self.buckets:
            raise FileNotFoundError(f"no published buckets under {self.out_dir}")
        return {b: bk.manifest for b, bk in sorted(self.buckets.items())}

    @cached_property
    def checked(self) -> dict[int, dict]:
        """A copy of every bucket manifest that passes the manifest check,
        ``{}`` when none does (:func:`load_manifests`); pickle copies these
        JSON dicts about 3x faster than ``copy.deepcopy``."""
        kept = {b: bk.manifest for b, bk in sorted(self.buckets.items()) if self.passes(b)}
        return pickle.loads(pickle.dumps(kept, pickle.HIGHEST_PROTOCOL))

    @property
    def manifests(self) -> dict[int, dict]:
        """The buckets a whole-table read opens: :attr:`checked`, which must
        not be empty."""
        if not self.checked:
            raise FileNotFoundError(f"no published buckets under {self.out_dir}")
        return self.checked

    def footer(self, name: str):
        """Data file ``name``'s footer (:meth:`_Table.footer`); raises
        FileNotFoundError when the file does not exist."""
        md, read = self.table.footer(name)
        self.footers_read += read
        if md is None:
            raise FileNotFoundError(os.path.join(self.out_dir, name))
        return md

    def num_rows(self, name: str) -> int | None:
        """Data file ``name``'s row count, None when it does not exist
        (:meth:`_Table.num_rows`)."""
        rows, read = self.table.num_rows(name)
        self.footers_read += read
        return rows

    def passes(self, b: int, kept: dict | None = None) -> bool:
        """Whether bucket ``b`` passes the manifest check. ``kept``: the
        bucket reduced to the files a routed read opens; those get the
        check, and the files it leaves out need only exist, so a bucket with
        a missing file drops out whole, as :func:`load_manifests` drops it."""
        if self.version is not None:
            return True
        m = self.listed[b]
        if kept is not None and kept is not m:
            left_out = _manifest_files({b: m}) - _manifest_files({b: kept})
            return (all(os.path.exists(os.path.join(self.out_dir, f)) for f in left_out)
                    and next(_manifest_problems(self.out_dir, kept, self.num_rows), None) is None)
        if b not in self._ok:
            self._ok[b] = next(_manifest_problems(self.out_dir, m, self.num_rows), None) is None
        return self._ok[b]

    @cached_property
    def flipped(self) -> set[int]:
        """Buckets the in-flight ``materialize_ddl`` run already rewrote."""
        return {b for b, m in self.listed.items() if self.mrun and m.get("run_id") == self.mrun}

    @cached_property
    def _schema_bucket(self) -> int:
        """The bucket :attr:`schema` comes from: the first that passes the
        check, buckets that fold ``ops`` first."""
        for b in sorted(self.listed, key=lambda b: (b in self.flipped, b)):
            if self.passes(b):
                return b
        raise FileNotFoundError(f"no published buckets under {self.out_dir}")

    @cached_property
    def schema(self) -> pa.Schema:
        """Physical schema of the buckets that fold ``ops`` (of any bucket
        when all are flipped; key column types agree across buckets)."""
        return self.footer(self.listed[self._schema_bucket]["file"]).schema.to_arrow_schema()

    @cached_property
    def smap(self) -> SchemaMap | None:
        """``ops`` folded over :attr:`schema`, from every bucket of the
        version (not only routed ones, so a routed miss is typed logically)."""
        if not self.ops or self._schema_bucket in self.flipped:
            return None
        return SchemaMap(self.schema, self.ops)

    @cached_property
    def columns(self) -> list[str] | None:
        """Logical output columns; None = every column of the files."""
        if self.smap is None:
            return self.requested
        cols = self.requested if self.requested is not None else self.smap.names
        self.smap.check_columns(cols)
        return cols

    @property
    def physical(self) -> list[str] | None:
        """Columns a bucket that folds the op log reads; None = all."""
        if self.smap is None:
            return self.columns
        return self.smap.physical_columns(self.columns) or None

    def empty(self) -> pa.Table:
        """The typed empty result of a read that matches nothing."""
        if self.smap is not None:
            return self.smap.logical_schema(self.columns).empty_table()
        if self.columns is None:
            return self.schema.empty_table()
        return pa.schema([self.schema.field(c) for c in self.columns]).empty_table()


def _read_plan(out_dir: str, *, version: int | None = None, as_of=None,
               columns: list[str] | None = None, system: bool = False) -> _ReadPlan:
    """Resolve one read of a table (live, or retained snapshot ``version`` /
    ``as_of``) from its cache entry. Transcript tables hide their system
    columns unless ``system`` or ``columns`` ask for them; GENERIC tables
    have none."""
    if as_of is not None:
        if version is not None:
            raise ValueError("pass version= or as_of=, not both")
        version = version_at(out_dir, as_of)
    table = _resolved_table(out_dir)
    buckets = table.buckets
    if version is not None:
        buckets = {b: _Bucket(m) for b, m in snapshot_manifests(out_dir, version).items()}
        if not buckets:
            raise FileNotFoundError(f"no published buckets under {out_dir}")
    layout = copy.deepcopy(table.layout)
    if columns is None and layout["system"] and not system:
        columns = LOGICAL_COLUMNS
    return _ReadPlan(out_dir, table, version, buckets, layout, copy.deepcopy(table.meta["ops"]),
                     table.meta.get("materialized_run"),
                     None if columns is None else list(columns))


def _read_buckets(plan: _ReadPlan, buckets: list[dict], where: list | None,
                  where_logical: list | None) -> pa.Table:
    """The one read body: ``buckets``, bucket manifests each reduced to the
    files the read opens, read by :func:`lookup_key` and by
    :func:`read_published` (in the driver, or one bucket per Ray Data
    task). Returns one table of the read plan's columns, or its typed
    :meth:`_ReadPlan.empty` when no row matches.

    ``where`` is the predicate in the physical column space of the buckets
    that fold the schema-op log, ``where_logical`` the one a flipped bucket
    (logical on disk) answers. A bucket without deltas reads its file with
    the whole predicate pushed into the Parquet scan. A merge-on-read bucket
    pushes only the key-column clauses into its file reads
    (:func:`_read_bucket`) and filters the rest after the LWW merge, so a
    superseded base row never matches. Buckets that fold the op log are
    relabelled to the logical schema (:meth:`SchemaMap.adapt`)."""
    from odibel_ray.cdc.skipping import filter_table, where_expr

    keys = plan.layout["key_cols"]

    def read(m: dict, cols: list[str] | None, w: list | None) -> pa.Table:
        if not m.get("deltas"):
            return pq.read_table(os.path.join(plan.out_dir, m["file"]), columns=cols,
                                 filters=where_expr(w) if w else None)
        w = w or []
        key_w = [c for c in w if c[0] in keys]
        read_cols = cols
        if cols is not None and w:
            read_cols = list(dict.fromkeys([*cols, *(c for c, _, _ in w)]))
        t = _read_bucket(plan.out_dir, m, plan.layout, columns=read_cols,
                         filters=where_expr(key_w) if key_w else None)
        if len(key_w) < len(w):
            t = filter_table(t, w)
        return t if cols is None else t.select(cols)

    tables = []
    for m in buckets:
        if int(m["bucket"]) in plan.flipped:
            # logical on disk: the output columns are pushed into the read
            t = read(m, plan.columns, where_logical)
        else:
            t = read(m, plan.physical, where)
            if plan.smap is not None:
                t = plan.smap.adapt(t, plan.columns)
        if len(t):
            tables.append(t)
    if not tables:
        return plan.empty()
    return pa.concat_tables(tables, promote_options="default")


def read_published(
    out_dir: str,
    *,
    system: bool = False,
    version: int | None = None,
    as_of=None,
    columns: list[str] | None = None,
    where: list | None = None,
    prune_stats: dict | None = None,
):
    """Dataset over manifested files only (readers never see unpublished data).

    One read body, :func:`_read_buckets` (also the body of
    :func:`lookup_key`), reads the buckets routing keeps
    (:func:`_bucket_prune`) and the Bloom filters and footers do not rule
    out, flipped buckets included; it runs on one of two schedulers, chosen
    by :func:`_executor_for` over the files the read opens, every kept file
    of a merge-on-read bucket included. At or below
    :data:`DRIVER_MAX_BYTES` the driver runs it over every kept bucket,
    with no Ray Data job, and returns one block (``ray.data.from_blocks``);
    a routed key-set scan of a served table is this case. Above it, Ray
    Data runs it in one task per kept bucket
    (:func:`~odibel_ray.cdc.apply.map_items`): base and deltas of one
    bucket are co-read and merged locally, no shuffle. Both return the
    same rows and schema.

    ``columns=[...]`` prunes at the scan (only those columns leave storage);
    without it a non-``system`` read already prunes to the logical columns —
    the ``_lsn``/``_op`` system columns never leave the Parquet files unless
    asked for. Merge-on-read buckets read the key+``_lsn`` superset the LWW
    merge needs, then project.

    ``version=V`` time-travels: the read resolves bucket files from retained
    snapshot V (see :func:`enable_snapshots`) instead of the live manifests —
    identical merge semantics, including any merge-on-read deltas the
    snapshot carried. ``as_of=<unix ts | ISO-8601 string>`` resolves the
    newest retained snapshot at or before that wall-clock instant
    (``TIMESTAMP AS OF``) and reads it the same way.

    ``where=[(col, op, value), ...]`` is a conjunctive predicate with SQL
    NULL semantics (ops ``== != < <= > >= in not_in is_null not_null``)
    applied with data skipping: files whose Bloom filters (key column and
    ``bloom_cols``, in their manifest entries) or Parquet footer statistics
    cannot satisfy it are never opened, surviving files are filtered as
    they are read (every block keeps the read's schema), and
    merge-on-read buckets filter AFTER their LWW merge (a superseded base
    row must not win); such a bucket is read whole when any of its files
    may match, with only its key clauses pushed into the driver's file
    reads. A read that matches nothing returns one typed empty block.
    Zone maps bite when the layout correlates with the
    predicate column — see ``publish_dataset(cluster_by=...)``. Pass a
    dict as ``prune_stats`` to receive ``{files_total, files_read,
    footers_read}``; ``footers_read`` counts the Parquet footers the driver
    read from disk, 0 when the table's cache entry already holds every one
    the read checks (see :class:`_ReadPlan`)."""
    import ray.data as rd

    from odibel_ray.cdc.skipping import (
        bloom_probes,
        blooms_admit,
        check_where,
        file_may_match,
    )

    plan = _read_plan(out_dir, version=version, as_of=as_of, columns=columns, system=system)
    if where is not None:
        where = check_where(where)
    # key routing (lookup_key's, inside the general scan) keeps and checks
    # only the buckets and deltas that can hold a probed key; a read
    # without a predicate checks every bucket
    manifests = _bucket_prune(plan, where) if where else plan.manifests
    files_total = sum(1 + len(m.get("deltas", [])) for m in plan.listed.values())
    # zero-row buckets exist for their watermarks (a bucket whose only
    # events were deletes-of-nonexistent still pins resume state); the
    # manifest already knows they contribute no rows, so the read skips them
    plain, done, mor = [], [], []  # bucket manifests
    for b, m in sorted(manifests.items()):
        if m.get("deltas"):
            mor.append(m)
        elif m.get("rows_out", 1) != 0:
            (done if b in plan.flipped else plain).append(m)
    # metadata-only DDL (generic tables): the prune/pushdown machinery runs
    # in PHYSICAL column space and _read_buckets re-labels each bucket to
    # the logical schema (cdc/ddl.py); flipped buckets (`done`) are already
    # logical on disk and read directly, so a reader mid-rewrite (or after
    # a crash) sees the correct logical table either way
    where_logical = where
    if plan.smap is not None and where:
        where, feasible = plan.smap.translate_where(where)
        if not feasible:
            # value predicate on an unmaterialized column: pending
            # (physical) files provably match nothing; flipped files
            # carry the column and answer through the logical filter
            plain, mor, where = [], [], None
        else:
            where = where or None

    def may_match(w):
        """File name → may it hold a row matching ``w``, in the column space
        the file is written in: its Bloom filters (in memory, so a rejected
        file costs no footer read), then its footer min/max. Only a read
        with a predicate decodes the filters."""
        blooms = {f: bl for bk in plan.buckets.values() for f, bl in bk.blooms.items()}
        probes = bloom_probes(w)  # each probe is hashed once per stored dtype
        return lambda f: blooms_admit(blooms[f], probes) and file_may_match(
            os.path.join(out_dir, f), w, metadata=plan.footer(f))

    if where:
        ok = may_match(where)
        plain = [m for m in plain if ok(m["file"])]
        # a MOR bucket is prunable only when its base AND every delta the
        # router kept fail the check (the merge never synthesizes values,
        # so no file with a possible match ⇒ no merged match)
        mor = [m for m in mor if any(ok(f) for f in [m["file"], *(d["file"] for d in m["deltas"])])]
    if where_logical and done:
        ok = may_match(where_logical)
        done = [m for m in done if ok(m["file"])]
    opened = [e["file"] for m in [*plain, *mor, *done] for e in [m, *m.get("deltas", [])]]
    empty = None if opened else plan.empty()
    if prune_stats is not None:
        prune_stats["files_total"] = files_total
        prune_stats["files_read"] = len(opened)
        prune_stats["footers_read"] = plan.footers_read
    if empty is not None:
        return rd.from_arrow(empty)
    kept = [*plain, *mor, *done]
    if _executor_for([os.path.join(out_dir, f) for f in opened]) == "driver":
        # one block: from_arrow would start a remote metadata task per table,
        # from_blocks computes it here (6-10 ms less CPU per routed
        # serve_mixed scan on a 1-CPU host; see CHANGES.md)
        return rd.from_blocks([_read_buckets(plan, kept, where, where_logical)])
    # resolved in the driver: a bad column raises here, and no task
    # rereads the schema footer
    plan.empty()
    return map_items(lambda m: _read_buckets(plan, [m], where, where_logical), kept, "ray_data")


def lookup_key(
    out_dir: str,
    conv_id: str,
    *,
    turn_idx: int | None = None,
    columns: list[str] | None = None,
    system: bool = False,
    version: int | None = None,
) -> pa.Table:
    """Point read of one key from a published table — the payoff of the
    hash-bucketed layout: at 100 TB it opens the files of the one bucket
    that can hold the key (its base, plus the deltas whose key filter
    admits it) instead of scanning the table, so a CDC-serving lookup
    costs O(one bucket's files), not a distributed job. Driver-side on
    purpose: the result is a handful of rows. It is :func:`_bucket_prune`
    plus the driver's read body (:func:`_read_buckets`) with a one-key
    ``where``, the same body a :func:`read_published` at or below
    :data:`DRIVER_MAX_BYTES` runs, and returns that read's rows and schema
    as a table. It skips the scan's
    Bloom filter and footer min/max checks of the routed files: the key
    filters already routed it.

    Routing (:func:`_bucket_prune`), on every layout:
    - every base and delta file carries a Bloom key filter over the first
      key column in its bucket manifest entry. A bucket none of whose files
      admits the probe is never opened; a bucket that survives opens its
      base plus only the deltas that admit the probe. This routes the
      partitioned layout (``num_buckets`` None — bucket == WAL part, whose
      assignment belonged to the upstream producer) and range/z-clustered
      tables, whose bucket is not derivable from the key;
    - on hash-bucketed tables, when more than one bucket survives the
      filters (false positives, or files without a filter), the bucket id
      is recomputed from the probe with the same hash the sink used.
      Transcript tables hash ``conv_id`` only; generic tables hash every
      key column, so a composite key routes only when ``turn_idx`` carries
      its second part.

    The probe is hashed once per stored dtype, whatever the number of
    filters it meets. Only the files the lookup opens get the manifest
    check, and every file it opens or leaves out is stat-ed, so a missing or
    replaced file is caught on every lookup. What a lookup does not redo
    while the table is unchanged (:class:`_ReadPlan`): the table is
    resolved once per manifest version — layout, schema-op log and parsed
    manifests with decoded key filters, kept per process and checked with
    one ``listdir`` plus a stat per manifest file — and a checked file's row
    count is read from its footer once per file version (its stat token).
    A ``version=`` lookup parses that version's manifests on every call.
    No writer sets a row-group size, so every file is one row group: each
    file the lookup opens is read whole (its requested columns, plus the
    key and ``_lsn``/``_op`` columns a merge-on-read bucket's merge needs)
    and its rows filtered on the key; footer statistics cannot skip part
    of a file.

    ``version=V`` answers the lookup from retained snapshot V (time travel;
    see :func:`enable_snapshots`) — same single-file access pattern.
    """
    plan = _read_plan(out_dir, version=version, columns=columns, system=system)
    keys = plan.layout["key_cols"]
    # the positional args map onto the first (and optional second) key
    # column; the key filter is pushed into every file read (keys are
    # layout-pinned, so physical and logical names agree)
    filters = [(keys[0], "==", conv_id)]
    if turn_idx is not None and len(keys) > 1:
        filters.append((keys[1], "==", turn_idx))
    routed = _bucket_prune(plan, filters)
    return _read_buckets(plan, [m for _, m in sorted(routed.items())], filters, filters)


@_single_writer("out_dir")
def restore_snapshot(out_dir: str, version: int, *, run_id: str = "restore-0") -> dict:
    """Roll the live table back to retained snapshot ``version`` (the Delta
    ``RESTORE``): flip every bucket manifest to the snapshot's frozen copy
    and drop buckets born after it. Metadata-only — the snapshot's data
    files are on disk by the retention invariant (validated here), so no
    data moves. Per-bucket flips are atomic and re-runnable; history moves
    FORWARD: the restore records a new version rather than erasing the ones
    after the target, so a restore is itself restorable. The stored schema
    timeline deliberately keeps post-snapshot S events — a timeline that
    runs ahead is safe (monotone idempotent union; see incremental_apply),
    and the next apply re-derives watermarks from the restored manifests."""
    target = snapshot_manifests(out_dir, version)
    for m in target.values():
        problem = next(_manifest_problems(out_dir, m), None)
        if problem is not None:
            raise FileNotFoundError(
                f"snapshot v{version} {problem} — retention was broken "
                "(expire/vacuum raced a writer?); restore aborted"
            )
    live = load_manifests(out_dir)
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    for b, m in sorted(target.items()):
        _atomic_write_json(os.path.join(mdir, f"bucket-{b:06d}.json"), m)
    for b in set(live) - set(target):
        try:
            os.remove(os.path.join(mdir, f"bucket-{b:06d}.json"))
        except OSError:
            pass
    with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    _, snap = _commit_table(out_dir, tman, "restore", run_id)
    return {
        "restored_to": int(version),
        "published_total": len(target),
        "rows_total": tman["rows_total"],
        "snapshot": snap,
        "out_dir": out_dir,
    }


def table_changes(
    out_dir: str,
    from_version: int,
    to_version: int | None = None,
    *,
    values: list[str] | None = None,
    keys: list[str] | None = None,
) -> "object":
    """Row-level diff between two retained table versions — the Delta
    ``table_changes`` / CDF read expressed over snapshots, so "what changed
    between v1 and v2" needs no feed to have been enabled at write time.

    ``to_version=None`` diffs against the live table. Keys default to the
    table's pinned ``_layout.json`` key columns (generic tables) or the
    transcript key; ``values`` defaults to ``["text"]`` for transcript
    tables. One hash exchange over keys+values total
    (:func:`odibel_ray.cdc.lww.change_feed`); each side's scan prunes to
    exactly those columns."""
    from odibel_ray.cdc.lww import change_feed

    plan = _read_plan(out_dir, version=to_version, system=True)
    if keys is None:
        keys = plan.layout["key_cols"]
    if values is None:
        if plan.layout["system"]:
            values = ["text"]
        else:
            # generic tables have no 'text' column by contract — default to
            # every non-key, non-system LOGICAL column (footer-only probe)
            names = plan.empty().column_names
            values = [c for c in names if c not in keys and not c.startswith("_")]
    cols = keys + values
    old = read_published(out_dir, version=from_version, columns=cols, system=True)
    new = read_published(out_dir, version=to_version, columns=cols, system=True)
    return change_feed(old, new, keys, values)


def _filter_problems(out_dir: str, m: dict) -> list[str]:
    """The files of bucket manifest ``m`` whose Bloom filters (``key_filter``)
    reject a value the file holds; one read of each file's filter columns."""
    from odibel_ray.cdc.skipping import BloomProbe, _bloom_contains, decode_blooms

    out = []
    for kind, entry in [("base", m), *(("delta", d) for d in m.get("deltas", []))]:
        blooms = decode_blooms(entry.get("key_filter"))
        if not blooms:
            continue
        t = pq.read_table(os.path.join(out_dir, entry["file"]), columns=list(blooms))
        for col, bloom in blooms.items():
            vals = t[col].unique().drop_null().to_numpy(zero_copy_only=False)
            missed = int((~_bloom_contains(bloom, BloomProbe(vals))).sum())
            if missed:
                out.append(f"bucket {m['bucket']}: {kind} {entry['file']} key filter "
                           f"on {col} rejects {missed} of its {len(vals)} values")
    return out


def fsck_table(out_dir: str) -> dict:
    """Integrity check of a published table — the operator's fsck. Verifies,
    from metadata, Parquet footers and each file's Bloom-filtered columns
    (no Ray session):

    - every bucket manifest's base file and delta files exist with the
      manifested row counts (``load_manifests`` silently DROPS broken
      manifests so readers stay safe; this reports them);
    - every manifested Bloom filter (key column and ``bloom_cols``) admits
      every value its file holds (a false negative would make routed and
      predicate reads miss rows silently);
    - every retained snapshot's referenced files still exist (time travel
      would fail otherwise);
    - all base files share one physical schema (unless a DDL op log / an
      in-flight ``materialize_ddl`` legitimately mixes generations);
    - stale staging dirs / orphan root data files (vacuum fodder, not
      corruption) and a dead lease holder are reported as warnings.

    Returns ``{ok, errors: [...], warnings: [...]}`` — ``ok`` means no
    errors (warnings allowed)."""
    errors: list[str] = []
    warnings: list[str] = []
    if not os.path.isdir(os.path.join(out_dir, MANIFEST_DIR)):
        return {"ok": False, "errors": [f"no manifest dir under {out_dir}"], "warnings": []}

    referenced: set[str] = set()
    base_files: list[str] = []
    for m in _bucket_manifest_files(out_dir):
        referenced |= _manifest_files({m["bucket"]: m})
        problems = list(_manifest_problems(out_dir, m))
        errors += problems
        if not problems:  # the schema check covers the buckets readers trust
            base_files.append(os.path.join(out_dir, m["file"]))
            errors += _filter_problems(out_dir, m)

    for snap in list_snapshots(out_dir):
        for b, m in snap["buckets"].items():
            for path in [m["file"], *(d["file"] for d in m.get("deltas", []))]:
                referenced.add(path)
                if not os.path.exists(os.path.join(out_dir, path)):
                    errors.append(
                        f"snapshot v{snap['version']} bucket {b}: file missing: {path}"
                    )

    # one-physical-schema invariant (DDL generations excepted)
    if base_files and not os.path.exists(os.path.join(out_dir, SCHEMA_OPS)):
        schemas = {str(pq.read_schema(f)) for f in base_files}
        if len(schemas) > 1:
            errors.append(
                f"{len(schemas)} distinct physical schemas across base files "
                "(a crashed materialize_ddl? its op log is gone)"
            )

    sdir = os.path.join(out_dir, STAGING_DIR)
    if os.path.isdir(sdir):
        # empty per-run dirs are normal post-publish residue; only staged
        # FILES mean a run died before promoting its work
        leftover = [
            d for d in os.listdir(sdir)
            if os.path.isdir(os.path.join(sdir, d)) and os.listdir(os.path.join(sdir, d))
        ]
        if leftover:
            warnings.append(f"{len(leftover)} staging dir(s) with files (vacuum)")
    for fn in os.listdir(out_dir):
        if (fn.startswith("part-") or fn.startswith("delta-")) and fn.endswith(".parquet"):
            if fn not in referenced:
                warnings.append(f"orphan data file {fn} (vacuum)")
    # Reuse table_lock's staleness rule (TTL + same-host pid liveness via
    # os.kill(pid, 0)) — a /proc probe is Linux-only and, cross-host, tests
    # the WRONG machine's pid table, flagging healthy remote writers stale.
    if os.path.exists(os.path.join(out_dir, "_LOCK.json")):
        if table_lock(out_dir)._is_stale():
            warnings.append("stale writer lease (_LOCK.json, holder dead or TTL expired)")
    return {"ok": not errors, "errors": errors, "warnings": warnings}


def lineage_table(out_dir: str) -> pa.Table:
    """Per-partition lineage + metrics from the commit manifests (the north
    rule's checkpoint record): bucket, rows_out, n_events, max applied LSN,
    number of WAL partitions contributing, run id."""
    manifests = load_manifests(out_dir)
    rows = []
    for b, m in sorted(manifests.items()):
        wms = m.get("watermarks", {})
        rows.append(
            {
                "bucket": int(b),
                "rows_out": int(m["rows_out"]),
                "n_events": int(m["n_events"]),
                "applied_lsn": max((int(v) for v in wms.values()), default=-1),
                "n_wal_parts": len(wms),
                "run_id": m.get("run_id", ""),
            }
        )
    return pa.Table.from_pylist(rows)


def _add_column_bytes(acc: dict[str, int], md: pq.FileMetaData) -> None:
    """Add one Parquet file's compressed column-chunk bytes, summed over its
    row groups (footer ``md``), to ``acc`` per top-level column (a nested
    column's leaves count toward it)."""
    schema = md.schema.to_arrow_schema()
    owners = [f.name for f in schema for _ in _leaf_paths(f.name, f.type)]
    for r in range(md.num_row_groups):
        rg = md.row_group(r)
        for i, name in enumerate(owners):
            acc[name] = acc.get(name, 0) + rg.column(i).total_compressed_size


def table_stats(out_dir: str) -> dict:
    """Physical health report of a published table — the operator's
    ``DESCRIBE``: logical/physical row counts, bytes, merge-on-read delta
    backlog, bucket skew, watermark spread, and ``column_bytes``: the
    compressed column-chunk bytes per stored column over every live base
    and delta file, which shows what each column's encoding costs.
    Metadata-only (manifests + Parquet footers; no data read, no Ray
    session), so it is cheap at any table size and safe to run
    concurrently with a writer."""
    from odibel_ray.cdc.quality import get_expectations

    with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    plan = _read_plan(out_dir)
    buckets = []
    column_bytes: dict[str, int] = {}
    for b, m in plan.checked.items():
        base_path = os.path.join(out_dir, m["file"])
        deltas = m.get("deltas", [])
        for name in [m["file"], *(d["file"] for d in deltas)]:
            _add_column_bytes(column_bytes, plan.footer(name))
        delta_rows = sum(int(d["rows_out"]) for d in deltas)
        delta_bytes = sum(
            os.path.getsize(os.path.join(out_dir, d["file"])) for d in deltas
        )
        wms = [int(v) for v in m.get("watermarks", {}).values()]
        buckets.append(
            {
                "bucket": int(b),
                "base_rows": int(m["rows_out"]),
                "base_bytes": os.path.getsize(base_path),
                "n_deltas": len(deltas),
                "delta_rows": delta_rows,
                "delta_bytes": delta_bytes,
                "max_lsn": max(wms, default=-1),
            }
        )
    base_rows = [b["base_rows"] for b in buckets]
    total_rows = sum(base_rows)
    mean_rows = total_rows / len(buckets) if buckets else 0.0
    return {
        "out_dir": out_dir,
        "num_buckets": tman.get("num_buckets"),
        "published_buckets": len(buckets),
        "rows_base": total_rows,
        "rows_delta": sum(b["delta_rows"] for b in buckets),
        "bytes_base": sum(b["base_bytes"] for b in buckets),
        "bytes_delta": sum(b["delta_bytes"] for b in buckets),
        "deltas_total": sum(b["n_deltas"] for b in buckets),
        "column_bytes": column_bytes,
        # buckets carrying deltas pay the merge on read — compaction signal
        "buckets_with_deltas": sum(1 for b in buckets if b["n_deltas"]),
        # skew: a bucket K× the mean serializes its stage at cluster scale
        "bucket_skew_max_over_mean": round(
            max(base_rows, default=0) / mean_rows, 3
        )
        if mean_rows
        else 0.0,
        "schema_version": tman.get("schema_version"),
        "last_run_id": tman.get("last_run_id"),
        "write_seq": tman.get("write_seq"),
        "cluster_by": tman.get("cluster_by"),
        # pending metadata-only DDL ops and the CHECK constraint, so DESCRIBE
        # shows the table's full logical contract, not just its bytes
        "schema_ops": plan.ops,
        "expectations": get_expectations(out_dir),
        "snapshot_policy": snapshot_policy(out_dir),
        "snapshots": [
            {"version": s["version"], "op": s["op"], "rows_total": s["rows_total"]}
            for s in list_snapshots(out_dir)
        ],
        "buckets": buckets,
    }


@_single_writer("out_dir", owner_arg="")
def vacuum(
    out_dir: str,
    *,
    feed_dir: str | None = None,
    keep_feed_states: int = 3,
    keep_snapshots: int | None = None,
) -> dict:
    """Maintenance sweep of a published table — the lakehouse ``VACUUM``:

    - **staging**: ``_staging/<run_id>/`` dirs are working space; whatever a
      crashed run left there was either re-staged by the resume or is
      superseded — always removable (single-writer sink).
    - **orphan data files**: root ``part-*.parquet`` not referenced by any
      bucket manifest (crash leftovers the per-bucket sweep didn't reach,
      e.g. a bucket never republished after a crashed run), and every
      ``*.parquet.bloom`` Bloom sidecar an older version wrote (the
      filters now live in the manifest entries).
    - **feed retention** (``feed_dir``): each bucket keeps its newest
      ``keep_feed_states`` change-feed files; older state transitions are
      dropped. Feed files are named by watermark-state hash, so "newest" is
      by mtime (the publish order on one writer).

    Run this only while no publish is in flight — it removes the working
    state an in-flight run is about to promote. Returns removal counts."""
    import glob as _glob
    import shutil

    removed = {"staging_dirs": 0, "orphan_files": 0, "feed_files": 0, "snapshots": 0,
               "feed_dirs": 0}
    if keep_snapshots is not None:
        # tighten retention first so the orphan scan below sees the final
        # retained set (``keep_snapshots=0`` drops time travel entirely)
        removed["snapshots"] = expire_snapshots(out_dir, keep_snapshots)["snapshots"]
    sdir = os.path.join(out_dir, STAGING_DIR)
    if os.path.isdir(sdir):
        for run_dir in os.listdir(sdir):
            shutil.rmtree(os.path.join(sdir, run_dir), ignore_errors=True)
            removed["staging_dirs"] += 1
    # cascade working feeds (<table>/_feeds/<run>): consumed synchronously by
    # refresh_pipeline / tail_log, so anything still here is a leftover
    fdir = os.path.join(out_dir, "_feeds")
    if os.path.isdir(fdir):
        for run_dir in os.listdir(fdir):
            shutil.rmtree(os.path.join(fdir, run_dir), ignore_errors=True)
            removed["feed_dirs"] += 1
    # files pinned by retained snapshots are not orphans (time travel)
    removed["orphan_files"] = _sweep_orphans(out_dir)
    # Bloom sidecars of tables written before every filter moved into the
    # manifest entries: nothing reads them any more
    for f in _glob.glob(os.path.join(out_dir, "*.parquet.bloom")):
        try:
            os.remove(f)
            removed["orphan_files"] += 1
        except OSError:
            pass
    if feed_dir and os.path.isdir(feed_dir):
        for bdir in _glob.glob(os.path.join(feed_dir, "bucket=*")):
            files = sorted(
                _glob.glob(os.path.join(bdir, "*.parquet")),
                key=os.path.getmtime,
            )
            for f in files[: max(0, len(files) - keep_feed_states)]:
                try:
                    os.remove(f)
                    removed["feed_files"] += 1
                except OSError:
                    pass
    return removed


def count_published(out_dir: str, where=None, *, version: int | None = None) -> int:
    """``SELECT COUNT(*)`` without a data scan when possible: with no
    predicate the count is the manifest row-count sum (metadata-only — the
    audit guarantees it equals the files' rows; merge-on-read buckets fall
    back to a per-bucket merged count since tombstoned/superseded delta
    rows are not knowable from metadata). With a predicate, the count runs
    over the pruned read (bucket routing + zone maps + blooms first), which
    reads in the driver, with no Ray Data job, when the files it opens
    total at most :data:`DRIVER_MAX_BYTES`."""
    if where is not None:
        return int(read_published(out_dir, where=where, version=version).count())
    plan = _read_plan(out_dir, version=version)
    # a delta may supersede or tombstone base rows — count those buckets
    # through the LWW merge (still only the delta-bearing ones)
    return sum(
        len(_read_bucket(out_dir, m, plan.layout)) if m.get("deltas")
        else int(m["rows_out"])
        for m in plan.manifests.values()
    )


_BUCKET_PRUNE_MAX_PROBES = 64


def _bucket_prune(plan: _ReadPlan, where) -> dict[int, dict]:
    """The one key router (``read_published(where=)``, ``count_published``
    with a predicate, and :func:`lookup_key`). Returns the buckets the read
    opens, each reduced to its base plus the deltas that can hold a probed
    key, and checked (:meth:`_ReadPlan.passes`) before anything opens them;
    copies, so a caller may change them.

    1. Key filters: a file whose filter on the first key column (in
       ``key_filter``, its manifest entry's Bloom filters, decoded once per
       manifest version in the table's cache entry) rejects every value of
       an ``==``/``in`` clause on that column holds no matching row. A
       bucket none of whose files admits the probe is dropped; a surviving
       bucket keeps its base and the deltas that admit it (a delta without
       a probed key cannot change that key's merged row). A file without a
       filter always admits. Only the key column's filter is probed:
       ``where`` is logical here, and ``alter_published`` can rename a
       ``bloom_cols`` column but never a key column, so
       :func:`read_published` probes the other filters in each file's own
       column space.
    2. Hash routing, when more than one bucket survives: see
       :func:`_hash_route`. It only drops filter false positives and files
       without a filter, so it is skipped, with its footer read, when the
       filters already left one bucket."""
    from odibel_ray.cdc.skipping import bloom_probes, blooms_admit

    key = plan.layout["key_cols"][0]
    # each probe is hashed once per stored dtype
    probes = [(c, p) for c, p in bloom_probes(where) if c == key]
    kept = {}
    for b, m in plan.listed.items():
        blooms = plan.buckets[b].blooms
        deltas = m.get("deltas", [])
        admitted = [d for d in deltas if blooms_admit(blooms[d["file"]], probes)]
        if admitted or blooms_admit(blooms[m["file"]], probes):
            kept[b] = m if len(admitted) == len(deltas) else {**m, "deltas": admitted}
    if len(kept) > 1 and (routed := _hash_route(plan, where)) is not None:
        kept = {b: m for b, m in kept.items() if b in routed}
    return {b: copy.deepcopy(m) for b, m in kept.items() if plan.passes(b, m)}


def _hash_route(plan: _ReadPlan, where) -> set[int] | None:
    """The buckets a hash-bucketed layout can hold a match in, when a
    conjunctive ``where`` pins every hash column with ``==`` (or a small
    ``in``): recomputed from the probe values with the sink's hash. Exact
    (hash identity, no false positives beyond hash-bucket sharing). Pending
    schema ops do not matter: key columns are layout-pinned, so
    alter_published can neither rename, drop nor widen them. None whenever
    the layout doesn't allow routing (partitioned or clustered, keys not
    fully pinned, probe values not of the key's type)."""
    from itertools import product

    from odibel_ray.cdc.lww import bucket_of_keys

    layout = plan.layout
    if not layout["num_buckets"] or layout["cluster_by"]:
        return None
    hash_keys = layout["hash_cols"]
    probes: list[list] = []
    for k in hash_keys:
        vals = None
        for col, op, val in where:
            if col != k:
                continue
            if op == "==":
                vals = [val]
            elif op == "in" and len(val) <= _BUCKET_PRUNE_MAX_PROBES:
                vals = list(val)
            break  # first clause per key wins; further ones only narrow
        if vals is None:
            return None  # a hash key is unpinned: any bucket can match
        probes.append(vals)
    combos = list(product(*probes))
    if not combos or len(combos) > _BUCKET_PRUNE_MAX_PROBES:
        return None
    # Cast the probe to the CANONICAL key type before hashing:
    # pd.util.hash_array hashes int32(-5) and int64(-5) (or s/ms timestamps)
    # differently, so an uncast probe would route to the wrong bucket.
    try:
        probe_t = pa.table({
            k: pa.array([c[i] for c in combos]).cast(plan.schema.field(k).type)
            for i, k in enumerate(hash_keys)
        })
    except (pa.ArrowInvalid, pa.ArrowTypeError, KeyError):
        return None  # probe value can't be the key's type: no pruning
    return set(bucket_of_keys(probe_t, hash_keys, int(layout["num_buckets"])).tolist())


def _join_side(out_dir: str, want: list[str] | None) -> _ReadPlan:
    """The read plan of one side of a storage-partitioned join: its join
    keys plus the ``want`` columns (None = every column)."""
    plan = _read_plan(out_dir, system=True)
    layout = plan.layout
    if layout["system"]:
        raise FileNotFoundError(
            f"{out_dir} has no _layout.json — join_published needs generic "
            "published tables (publish_dataset layouts)"
        )
    if layout["cluster_by"]:
        raise ValueError(
            f"{out_dir} is range/z-clustered; storage-partitioned joins need "
            "the hash-bucketed layout (keep the primary hash table for joins)"
        )
    if plan.ops:
        raise ValueError(
            f"{out_dir} has a pending schema op log; materialize_ddl "
            "before joining (the join reads physical files directly)"
        )
    if want is not None:
        missing = [c for c in want if c not in plan.schema.names]
        if missing:
            raise ValueError(f"{out_dir} has no columns {missing}")
        # keys first, deduped; set before the plan's columns are first read
        plan.requested = list(dict.fromkeys([*layout["key_cols"], *want]))
    return plan


def join_published(
    left_dir: str,
    right_dir: str,
    *,
    how: str = "inner",
    left_columns: list[str] | None = None,
    right_columns: list[str] | None = None,
    right_suffix: str = "_r",
):
    """SHUFFLE-FREE join of two published tables bucketed identically on the
    join key — the Hive bucket-map-join / Iceberg storage-partitioned-join
    analog (the reference inherits joins from Spark and always exchanges,
    ``eval/SchemaGraphEval.scala`` typing joins). Both sides must be generic
    published tables with the SAME ``key_cols`` and ``num_buckets`` (pinned
    in their ``_layout.json``; :func:`rebucket_published` co-partitions a
    mismatched table). Bucket b of the left can then only match bucket b of
    the right, so the join runs as ONE map task per bucket — each task reads
    the two bucket files (LWW-merging any merge-on-read deltas per side) and
    joins in Arrow. Zero exchange: at 10^10 rows per side this moves no data
    between workers at all. Like :func:`read_published`, the join runs in
    the driver and returns one block when the kept buckets' base and delta
    files on both sides total at most :data:`DRIVER_MAX_BYTES`.

    ``how``: ``inner | left_outer | full_outer | left_semi | left_anti``.
    ``left_columns``/``right_columns`` prune each side's bucket read (join
    keys are always read). Returns a streaming ``ray.data.Dataset``.
    """
    import ray.data as rd

    how_map = {
        "inner": "inner",
        "left": "left outer",
        "left_outer": "left outer",
        "full": "full outer",
        "full_outer": "full outer",
        "left_semi": "left semi",
        "left_anti": "left anti",
    }
    if how not in how_map:
        raise ValueError(f"how must be one of {sorted(how_map)}")
    join_type = how_map[how]
    left = _join_side(left_dir, left_columns)
    right = _join_side(right_dir, right_columns)
    keys, r_keys = left.layout["key_cols"], right.layout["key_cols"]
    if keys != r_keys:
        raise ValueError(
            f"key_cols differ: {keys} vs {r_keys} — "
            "storage-partitioned joins need identical layouts"
        )
    if left.layout["num_buckets"] != right.layout["num_buckets"]:
        raise ValueError(
            f"num_buckets differ: {left.layout['num_buckets']} vs "
            f"{right.layout['num_buckets']}; rebucket_published one side first"
        )

    buckets = []
    for b in sorted(set(left.manifests) | set(right.manifests)):
        if b not in left.manifests and join_type in (
            "inner", "left outer", "left semi", "left anti"
        ):
            continue  # no left rows ⇒ nothing to emit for these join types
        if b not in right.manifests and join_type in ("inner", "left semi"):
            continue
        buckets.append(int(b))
    joined_schema = left.empty().join(
        right.empty(), keys=keys, join_type=join_type, right_suffix=right_suffix,
    ).schema
    if not buckets:
        return rd.from_arrow(joined_schema.empty_table())

    def read_side(plan: _ReadPlan, b: int) -> pa.Table:
        m = plan.manifests.get(b)
        if m is None:
            return plan.empty()
        return _read_bucket(plan.out_dir, m, plan.layout, columns=plan.columns)

    def join_bucket(b: int) -> pa.Table:
        j = read_side(left, b).join(read_side(right, b), keys=keys, join_type=join_type,
                                    right_suffix=right_suffix)
        return j.select(joined_schema.names).cast(joined_schema)

    files = [os.path.join(p.out_dir, f) for p in (left, right)
             for f in _manifest_files({b: p.manifests[b] for b in buckets if b in p.manifests})]
    if _executor_for(files) == "driver":
        return rd.from_blocks([pa.concat_tables([join_bucket(b) for b in buckets])])
    return map_items(join_bucket, buckets, "ray_data")


@_single_writer("dst_dir")
def rebucket_published(
    src_dir: str,
    dst_dir: str,
    *,
    num_buckets: int,
    run_id: str = "rebucket-0",
    batch_size: int = 65536,
) -> dict:
    """Rewrite a published table at a different bucket count — the cluster
    maintenance op for the north rule's fixed-size resize (an N→4N-node
    cluster wants ~4× the buckets so each node still owns several resume
    units). Out-of-place: the rebucketed table is write-audit-published into
    ``dst_dir`` while ``src_dir`` keeps serving readers; the switch is the
    caller pointing readers at ``dst_dir``. Resumable like any publish —
    already-manifested destination buckets are filtered out before the
    shuffle, so a killed rebucket re-does only unfinished buckets.

    Watermark note: the destination manifests' per-(bucket, part) watermarks
    are recomputed from surviving rows, so they can REGRESS below the
    source's (a delete's LSN leaves no surviving row). That is safe for
    :func:`incremental_apply` on the destination: replay is keep-last over
    ``base ∪ events-above-watermark``, re-applying an already-applied event
    is idempotent, and no event at or below the regressed watermark can
    supersede a base row (a converged base row already carries its key's
    maximum applied LSN).
    """
    import ray.data as rd  # noqa: F401  (read_published builds the Dataset)

    from odibel_ray.cdc.apply import bucket_of_conv

    with open(os.path.join(src_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    os.makedirs(os.path.join(dst_dir, MANIFEST_DIR), exist_ok=True)
    staging = os.path.join(dst_dir, STAGING_DIR, run_id)
    os.makedirs(staging, exist_ok=True)
    done = load_manifests(dst_dir)
    done_arr = np.array(sorted(done), dtype=np.int64)

    base = read_published(src_dir, system=True)

    def rebucketed(t: pa.Table) -> pa.Table:
        # published rows, as inserts at their own _lsn, routed to the new buckets
        t = t.combine_chunks()
        bucket = bucket_of_conv(t["conv_id"].to_numpy(zero_copy_only=False), num_buckets)
        t = t.set_column(t.schema.get_field_index("_bucket"), "_bucket", pa.array(bucket))
        t = t.append_column("_op", pa.array(np.full(len(t), "I"), pa.string()))
        return t.filter(pa.array(~np.isin(bucket, done_arr))) if len(done_arr) else t

    rows = base.map_batches(rebucketed, batch_format="pyarrow", batch_size=batch_size)
    manifest_ds = rows.groupby("_bucket").map_groups(
        partial(_write_bucket, layout=_table_layout(dst_dir), staging=staging, run_id=run_id),
        batch_format="pyarrow",
    )
    published = _publish_stream(manifest_ds, dst_dir)
    tman.update({"num_buckets": num_buckets, "rebucketed_from": src_dir})
    all_manifests, _ = _commit_table(dst_dir, tman, "rebucket_published", run_id)
    return {
        "published_now": len(published),
        "published_total": len(all_manifests),
        "rows_total": tman["rows_total"],
        "out_dir": dst_dir,
    }


@_single_writer("out_dir")
def compact_published(
    out_dir: str,
    *,
    run_id: str = "compact-0",
    min_deltas: int = 1,
    metrics: str | None = None,
    snapshots: int | None = None,
) -> dict:
    """Fold merge-on-read deltas back into their buckets' base files — the
    lakehouse compaction that bounds a MOR table's read amplification. One
    per-bucket body per delta-bearing bucket: read base + deltas, LWW-merge
    (drop tombstones), stage a fresh base under this run's name, then the
    ordinary write-audit-publish pointer flip clears the manifest's delta
    list and sweeps the folded files. Resumable: a killed compaction left
    either the old manifest (deltas intact — recompact) or the new one
    (already clean); ``min_deltas`` skips buckets not worth rewriting yet.

    Like :func:`incremental_apply`, the body runs on one of two schedulers
    (:func:`~odibel_ray.cdc.apply.map_items`): when the target buckets'
    base and delta bytes are at most :data:`DRIVER_MAX_BYTES` the driver
    compacts them one after another, each publishing before the next is
    read, otherwise one Ray Data task per bucket does; the result's
    ``executor`` says which ran."""
    if snapshots is not None:
        enable_snapshots(out_dir, keep_last=snapshots)
    with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    manifests = load_manifests(out_dir)
    targets = {
        b: m for b, m in manifests.items() if len(m.get("deltas", [])) >= min_deltas
    }
    if not targets:
        return {
            "compacted": 0,
            "published_total": len(manifests),
            "rows_total": tman["rows_total"],
            "executor": None,
            "out_dir": out_dir,
        }
    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    os.makedirs(staging, exist_ok=True)
    layout = _table_layout(out_dir)

    def _compact_bucket(m: dict) -> pa.Table:
        return _stage_bucket(
            _read_bucket(out_dir, m, layout),
            bucket=int(m["bucket"]),
            filter_cols=_filter_cols(layout["key_cols"], layout["bloom_cols"]),
            staging=staging,
            run_id=run_id,
            # events that ever contributed to this bucket (lineage continuity)
            n_events=int(m["n_events"])
            + sum(int(d["n_events"]) for d in m.get("deltas", [])),
            # effective watermarks are already merged over base ∪ deltas —
            # carried verbatim, so the next incremental filter stays exact
            watermarks=json.dumps(m["watermarks"]),
            metrics=metrics,
        )

    executor = _executor_for([os.path.join(out_dir, f) for f in _manifest_files(targets)])
    out = map_items(_compact_bucket, [m for _, m in sorted(targets.items())], executor)
    live = dict(manifests)
    published = _publish_stream(out, out_dir, live)
    all_manifests, snap = _commit_table(out_dir, tman, "compact_published", run_id, live)
    return {
        "compacted": len(published),
        "published_total": len(all_manifests),
        "rows_total": tman["rows_total"],
        "snapshot": snap,
        "deltas_total": tman["mor_deltas"],
        "executor": executor,
        "out_dir": out_dir,
    }


def _watermark_matrix(manifests: dict[int, dict]) -> np.ndarray:
    nb = max(manifests) + 1 if manifests else 0
    nparts = 0
    for m in manifests.values():
        for p in m["watermarks"]:
            nparts = max(nparts, int(p) + 1)
    wm = np.full((max(nb, 1), max(nparts, 1)), -1, dtype=np.int64)
    for b, m in manifests.items():
        for p, l in m["watermarks"].items():
            wm[b, int(p)] = int(l)
    return wm


@_single_writer("out_dir")
def incremental_apply(
    log_dir: str,
    out_dir: str,
    *,
    run_id: str = "run-inc",
    batch_size: int = 65536,
    feed_dir: str | None = None,
    feed_values: list[str] | None = None,
    feed_lsn: bool = False,
    metrics: str | None = None,
    mode: str = "cow",
    snapshots: int | None = None,
) -> dict:
    """Apply new change-log events (``lsn`` beyond each bucket's per-partition
    watermark) onto the published base table; untouched buckets are left as-is.

    Convergence argument: a base row was produced by some event with
    ``_lsn <= watermark`` in the key's WAL partition; any *new* event for that
    key has a larger LSN in the same partition, so replaying
    ``base-as-insert(lsn=_lsn) ∪ new-events`` under keep-last-per-key yields
    exactly the state of a from-scratch replay. Kill-resume of the incremental
    run itself is idempotent because publish is per-bucket atomic and the
    watermark filter drops already-applied events.

    ``feed_dir``: also emit the run's change-data-feed (row-level
    insert/update/delete with before/after ``text`` vs the base table, the
    lakehouse CDF a MERGE writes alongside the data) as partitioned Parquet
    under ``feed_dir/bucket=<b>/state-<watermark-hash>.parquet`` — computed inside the
    same per-bucket apply task from state the merge already holds (the base
    rows and the winning event of each key the events carry, paired by
    :func:`~odibel_ray.cdc.lww.change_feed_group`, the kernel every bucket
    write's feed runs), so it costs no extra exchange or log read.
    Feed filenames are keyed by the bucket's post-apply watermark map, so a
    crash-resume under a *different* run_id still overwrites rather than
    duplicates the crashed run's feed rows; keys in untouched buckets have
    no new events and thus no feed rows. ``feed_lsn=True`` adds an ``_lsn``
    ordering column to the feed, the winning event's LSN (the delete's for a
    delete), so consumers can resolve the latest transition per key across
    telescoped state files — required by ``refresh_derived(strategy='feed')``
    when several applies run between refreshes.

    ``mode``: ``"cow"`` (default) rewrites each touched bucket from
    ``base ∪ new-events`` — read-optimized, but at high apply frequency every
    run re-reads and re-writes whole buckets its events barely touch.
    ``"mor"`` (merge-on-read) stages only the compacted new events as a
    per-bucket DELTA file (tombstones retained) and appends a delta
    descriptor to the bucket manifest in the same atomic pointer flip —
    write cost is O(new events), no base read at all; readers
    (:func:`read_published`, :func:`lookup_key`) LWW-merge base ∪ deltas per
    bucket, and :func:`compact_published` folds deltas back into the base.
    The Hudi/Delta MOR trade expressed over this sink's manifests. CDF
    (``feed_dir``) requires the base row for before-values, so it is
    CoW-only.

    One per-bucket body, the bucket write every keyed table shares
    (:func:`_write_events`, then :func:`_write_bucket`; for ``"cow"`` it
    reads the bucket's own base with :func:`_read_bucket`), runs on either
    of two schedulers (:func:`_grouped_apply`), which share the lease,
    staging, audit, per-bucket manifest flip and epilogue. When the log's
    ``part=*/*.parquet`` bytes — plus, for ``"cow"``, the base and delta
    bytes of the buckets the log's events route to (its WAL parts on a
    partitioned table, its ``conv_id`` values hashed on a hashed one) —
    are at most :data:`DRIVER_MAX_BYTES`, the driver reads the micro-batch
    and splits it by bucket itself, with no Ray Data job; above it, one
    Ray Data pipeline (read → prepare → per-batch LWW combiner →
    ``groupby("bucket")``) does. Either way only the touched buckets'
    bases are read. The result's ``executor`` says which ran
    (``"driver"`` or ``"ray_data"``), and ``touched`` counts the buckets
    published. Manifest ``n_events`` counts a bucket's new events (after
    the Ray Data combiner, so it may differ between the two) plus, for
    ``"cow"``, its base rows; data, files and watermarks do not differ.
    """
    if mode not in ("cow", "mor"):
        raise ValueError(f"mode must be 'cow' or 'mor', got {mode!r}")
    if mode == "mor" and feed_dir:
        raise ValueError(
            "change-data-feed needs the base row for before-values; "
            "use mode='cow' with feed_dir"
        )

    if snapshots is not None:
        enable_snapshots(out_dir, keep_last=snapshots)
    with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    num_buckets = tman["num_buckets"]
    manifests = load_manifests(out_dir)
    old_tl = SchemaTimeline.from_json(tman["timeline"])
    wm = _watermark_matrix(manifests)

    # global per-part applied watermark (min over buckets would over-apply S
    # events; S events are partition-global, applied once: use max — an S event
    # below a part's max has been folded into the stored timeline already)
    per_part_max = {p: int(wm[:, p].max()) for p in range(wm.shape[1])}
    new_tl = extract_timeline(log_dir, min_lsn_by_part=per_part_max)
    timeline = old_tl.merged_with(new_tl)

    # persist the merged timeline BEFORE any bucket publish: per-bucket
    # watermarks advance as buckets flip, and a crash in between would
    # otherwise strand S events at-or-below the new per_part_max — the
    # resume's extract_timeline skips them ("folded into the stored timeline
    # already") but the stored timeline never got them, silently un-mapping
    # every later event's schema. Writing it early is safe: timeline merge is
    # a deduplicated monotone union, so a timeline that runs ahead of a fully
    # failed apply only pre-records S events the next run re-merges
    # idempotently.
    tman.update({"timeline": timeline.to_json(), "schema_version": len(timeline.changes)})
    if len(timeline.changes) != len(old_tl.changes):
        _atomic_write_json(os.path.join(out_dir, TABLE_MANIFEST), tman)

    parts = _wal_parts(log_dir)
    if not parts:
        raise FileNotFoundError(f"no WAL partitions (part=*/) found under {log_dir!r}")
    inputs = [f for p in parts for f in p["files"]]
    log = None
    if mode == "cow" and _executor_for(inputs) == "driver":
        # copy-on-write also reads the bases of the buckets the log's events
        # route to (a superset: malformed and applied events count)
        if num_buckets is None:
            touched = {int(p["part"]) for p in parts if p["files"]}
        else:
            # read whole, once: a driver apply gets this same table
            log = _read_log(parts)
            conv = pc.drop_null(log["conv_id"]).to_numpy(zero_copy_only=False)
            touched = set(np.unique(bucket_of_conv(conv, num_buckets)).tolist())
        inputs += [os.path.join(out_dir, f) for f in _manifest_files(
            {b: m for b, m in manifests.items() if b in touched})]
    executor = _executor_for(inputs)
    feed = None if not feed_dir else {"dir": feed_dir, "values": feed_values or ["text"],
                                      "lsn": feed_lsn}
    apply_bucket = partial(_write_events, layout=_table_layout(out_dir), bases=_bases(manifests),
                           mor=mode == "mor", out_dir=out_dir, feed=feed, metrics=metrics,
                           staging=os.path.join(out_dir, STAGING_DIR, run_id), run_id=run_id)
    out = _grouped_apply(log_dir, parts, apply_bucket, executor, batch_size=batch_size,
                         prep_kw={"timeline": timeline, "num_buckets": num_buckets,
                                  "watermarks": wm}, log=log)
    live = dict(manifests)
    published = _publish_stream(out, out_dir, live)
    if not published:
        # nothing applied → table state unchanged → no new snapshot version
        return {"published_now": 0, "published_total": len(manifests), "touched": 0,
                "rows_total": tman["rows_total"], "snapshot": None,
                "executor": executor, "out_dir": out_dir}
    op = "incremental_apply_mor" if mode == "mor" else "incremental_apply"
    all_manifests, snap = _commit_table(out_dir, tman, op, run_id, live)
    return {
        "published_now": len(published),
        "published_total": len(all_manifests),
        # every bucket with new events publishes exactly one row
        "touched": len(published),
        "n_events_applied": int(sum(p["n_events"] for p in published)),
        "rows_total": tman["rows_total"],
        "snapshot": snap,
        "deltas_total": tman["mor_deltas"],
        "executor": executor,
        "out_dir": out_dir,
    }


def _split_by_bucket(ev: pa.Table) -> dict[int, pa.Table]:
    """Prepared events split by ``bucket``, in bucket order (the driver
    executor's ``groupby``)."""
    b = ev["bucket"].to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    ev, b = ev.take(pa.array(order)), b[order]
    keys, starts = np.unique(b, return_index=True)
    ends = np.append(starts[1:], len(b))
    return {int(k): ev.slice(lo, hi - lo) for k, lo, hi in zip(keys, starts, ends)}


def _read_log(parts: list[dict]) -> pa.Table:
    """The whole log of :func:`_wal_parts` ``parts`` as one table, each
    part's files in order (the driver executor's read)."""
    return pa.concat_tables([_read_wal_part(**p) for p in parts] or [_empty_log_table()],
                            promote_options="default")


def _grouped_apply(log_dir: str, parts: list[dict], fn, executor: str, *, prep_kw: dict,
                   batch_size: int, done: frozenset[int] = frozenset(),
                   log: pa.Table | None = None):
    """The one grouped scheduler of a hashed :func:`replay_publish` and of
    :func:`incremental_apply`: read the log, :func:`prepare_events` with
    ``prep_kw``, drop the ``done`` buckets, and run ``fn`` once per
    bucket's events. ``"driver"``: the log is read and split by bucket
    (:func:`_split_by_bucket`) here, and a lazy generator applies one
    bucket at a time, so each publishes before the next is applied.
    ``"ray_data"``: one execution, read → prepare → per-batch LWW combiner
    (:func:`compact_batch`) → ``groupby("bucket").map_groups(fn)``. A
    driver run uses ``log``, the caller's :func:`_read_log` of ``parts``,
    when given."""
    if executor == "driver":
        if log is None:
            log = _read_log(parts)
        groups = _split_by_bucket(prepare_events(log, **prep_kw))
        return (fn(ev) for b, ev in groups.items() if b not in done)
    import ray.data as rd

    ds = rd.read_parquet(log_dir).map_batches(
        prepare_events, fn_kwargs=prep_kw, batch_format="pyarrow", batch_size=batch_size)
    if done:
        done_arr = np.array(sorted(done), dtype=np.int64)

        def _drop_done(t: pa.Table) -> pa.Table:
            keep = ~np.isin(t["bucket"].to_numpy(zero_copy_only=False), done_arr)
            return t.filter(pa.array(keep))

        ds = ds.map_batches(_drop_done, batch_format="pyarrow", batch_size=batch_size)
    ds = ds.map_batches(compact_batch, batch_format="pyarrow", batch_size=batch_size)
    return ds.groupby("bucket").map_groups(fn, batch_format="pyarrow")


def _publish_group(t: pa.Table, *, sort_by: str | None = None, **kw) -> pa.Table:
    """Stage one pre-bucketed group of :func:`publish_dataset` rows (any
    schema, nested columns included) as its bucket's base, sorted by
    ``sort_by`` when given (range-clustered layouts, so the file's Parquet
    row-group stats stay tight): no LWW, the rows are the table."""
    from odibel_ray.cdc.apply import limit_arrow_threads

    if len(t) == 0:
        return _MANIFEST_SCHEMA.empty_table()
    limit_arrow_threads()
    t = t.combine_chunks()
    if sort_by is not None:
        t = t.take(pc.sort_indices(t, sort_keys=[(sort_by, "ascending")]))
    # _z is the z-order sort helper, never persisted
    return _stage_bucket(t.drop_columns([c for c in ("_bucket", "_z") if c in t.column_names]),
                         bucket=int(t["_bucket"][0].as_py()), n_events=len(t), **kw)


def _write_upsert(t: pa.Table, *, seq: int, bases: dict[int, dict], **kw) -> pa.Table:
    """One bucket's :func:`upsert_published` rows as stored-form rows
    through :func:`_write_bucket`. Rows carry ``_bucket`` and a ``_delete``
    flag (delete rows carry their key; their other columns are padded).
    They become the group's deletes (``_op = 'D'``) then its updates
    (``_op = 'U'``), all at ``_lsn = seq``, so a group that updates AND
    deletes one key keeps the update. A delete-only group aimed at a bucket
    with no base in ``bases`` writes nothing: publishing it would pin a
    phantom zero-row bucket file that every future read opens."""
    from odibel_ray.cdc.apply import limit_arrow_threads

    if len(t) == 0:
        return _MANIFEST_SCHEMA.empty_table()
    limit_arrow_threads()
    t = t.combine_chunks()
    dmask = pc.fill_null(t["_delete"], False)
    dels, ups = t.filter(dmask), t.filter(pc.invert(dmask))
    if len(ups) == 0 and int(t["_bucket"][0].as_py()) not in bases:
        return _MANIFEST_SCHEMA.empty_table()
    rows = pa.concat_tables([dels, ups]).drop_columns(["_delete"])
    rows = rows.append_column("_lsn", pa.array(np.full(len(rows), seq, np.int64)))
    rows = rows.append_column("_op", pa.array(["D"] * len(dels) + ["U"] * len(ups)))
    return _write_bucket(rows, seq=seq, bases=bases, **kw)


@_single_writer("out_dir")
def publish_dataset(
    ds,
    out_dir: str,
    *,
    key_cols: list[str],
    num_buckets: int | None = None,
    run_id: str = "run-0",
    batch_size: int = 65536,
    metrics: str | None = None,
    snapshots: int | None = None,
    cluster_by: str | None = None,
    expect: list | None = None,
    bloom_cols: list[str] | None = None,
) -> dict:
    """Write-audit-publish for an ARBITRARY Dataset (nested columns included):
    hash-bucket on ``key_cols``, stage each bucket deterministically, audit row
    counts, publish atomically with per-bucket manifests. Resumable like
    :func:`replay_publish` — already-manifested buckets are filtered out before
    the shuffle, so a killed run re-stages only missing buckets. Read back with
    ``read_published(out_dir, system=True)`` (generic tables carry no transcript
    system columns).

    This is the sink path nested pipelines use (e.g. ``nested.nest_turns``
    output — the reference's ``RevisionTemplateInfo`` list-of-structs rows,
    ``data/RevisionTemplateInfo.scala:3``).

    The resolved bucket layout is pinned in ``<out_dir>/_layout.json``
    BEFORE any staging: the cluster-derived default ``num_buckets`` depends
    on where the process runs, so a killed run resumed under a different
    CPU count must reuse the original layout — re-hashing rows against a
    different modulus while ``done`` holds old bucket ids silently drops
    and duplicates rows. Changing the bucketing of a partially-published
    table is an error (finish or wipe it, or use ``rebucket_published`` on
    a complete one).

    ``bloom_cols=[...]`` stores a Bloom filter for each listed column in
    every base and delta file's manifest entry, next to its key filter —
    equality/``in`` probes on them prune whole files where footer min/max
    can't (the Delta bloom-filter-index analog; see the bloom section of
    ``cdc/skipping.py``). The set is pinned in ``_layout.json``; every
    upsert, compaction and ``materialize_ddl`` rewrite builds the filters of
    the files it writes.

    ``cluster_by="col"`` publishes a RANGE-CLUSTERED, read-optimized layout
    instead of hash buckets (the Delta ``OPTIMIZE ZORDER`` / Iceberg
    sort-order analog): bucket boundaries come from a bounded distributed
    sample of the column (pinned in ``_layout.json`` before staging, so a
    resume reuses them), each bucket file is sorted by the column, and
    ``read_published(where=[(col, ...)])`` then prunes whole files by
    footer stats. Clustered tables are serving copies: ``upsert_published``
    refuses them (a key's bucket is not derivable from the key) — maintain
    the hash-bucketed primary and republish the copy."""
    from odibel_ray.cdc.lww import bucket_of_keys
    from odibel_ray.cdc.skipping import (
        bucket_of_range,
        cluster_bounds,
        zorder_layout,
    )
    from odibel_ray.tuning import default_num_buckets

    # multi-column cluster_by = Z-ORDER (Delta OPTIMIZE ZORDER analog):
    # rank-quantize each column, interleave the rank bits, range-bucket and
    # sort on the z-value — files become hyper-rectangles of the clustered
    # space, so footer stats prune on EVERY listed column
    zcols = None
    if isinstance(cluster_by, (list, tuple)):
        if len(cluster_by) == 1:
            cluster_by = cluster_by[0]
        else:
            zcols = list(cluster_by)
            cluster_by = None

    if snapshots is not None:
        os.makedirs(out_dir, exist_ok=True)
        enable_snapshots(out_dir, keep_last=snapshots)
    layout = _table_layout(out_dir)["pinned"]
    if layout is not None:
        if num_buckets is not None and int(layout["num_buckets"]) != num_buckets:
            raise ValueError(
                f"table at {out_dir} was laid out with num_buckets="
                f"{layout['num_buckets']}; resuming with {num_buckets} would "
                "corrupt it (rebucket_published resizes a complete table)"
            )
        if list(layout.get("key_cols", key_cols)) != list(key_cols):
            raise ValueError(
                f"table at {out_dir} was laid out with key_cols="
                f"{layout['key_cols']}, not {list(key_cols)}"
            )
        want = zcols if zcols is not None else cluster_by
        if layout.get("cluster_by") != want:
            raise ValueError(
                f"table at {out_dir} was laid out with cluster_by="
                f"{layout.get('cluster_by')!r}, not {want!r}"
            )
        if bloom_cols is not None and list(layout.get("bloom_cols") or []) != list(bloom_cols):
            raise ValueError(
                f"table at {out_dir} was laid out with bloom_cols="
                f"{layout.get('bloom_cols')}, not {list(bloom_cols)}"
            )
        bloom_cols = layout.get("bloom_cols")  # resume reuses the pinned set
        num_buckets = int(layout["num_buckets"])
        bounds = layout.get("bounds")
        zorder = layout.get("zorder")
    else:
        num_buckets = default_num_buckets(num_buckets)
        os.makedirs(out_dir, exist_ok=True)
        layout = {"num_buckets": num_buckets, "key_cols": list(key_cols)}
        bounds = None
        zorder = None
        if zcols is not None:
            zorder = zorder_layout(ds, zcols, num_buckets)
            layout.update({"cluster_by": zcols, "zorder": zorder})
        elif cluster_by is not None:
            bounds = cluster_bounds(ds, cluster_by, num_buckets)
            layout.update({"cluster_by": cluster_by, "bounds": bounds})
        if bloom_cols:
            layout["bloom_cols"] = list(bloom_cols)
        _atomic_write_json(os.path.join(out_dir, LAYOUT_FILE), layout)
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    os.makedirs(staging, exist_ok=True)
    done = load_manifests(out_dir)

    if expect is not None:
        # CHECK constraint: installed with the table, enforced batch-by-batch
        # on this initial load and as a pre-pass on every later upsert
        from odibel_ray.cdc.quality import EXPECTATIONS_FILE
        from odibel_ray.cdc.skipping import check_where

        expect = [list(c) for c in check_where(expect)]
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write_json(os.path.join(out_dir, EXPECTATIONS_FILE), {"where": expect})
    else:
        from odibel_ray.cdc.quality import get_expectations

        expect = get_expectations(out_dir) or None  # resumed run keeps the gate

    def tag(t: pa.Table) -> pa.Table:
        _reject_null_fixed_size_lists(t)
        if expect:
            from odibel_ray.cdc.quality import enforce_batch

            t = enforce_batch(t, expect, context=f"publish_dataset({run_id})")
        if zcols is not None:
            from odibel_ray.cdc.skipping import zvalue_of

            z = zvalue_of(t, zcols, zorder["zref"])
            b = np.searchsorted(
                np.asarray(zorder["bounds"], dtype=np.int64), z, side="left"
            ) if zorder["bounds"] else np.zeros(len(t), dtype=np.int64)
            t = t.append_column("_z", pa.array(z, pa.int64()))
        elif cluster_by is not None:
            b = bucket_of_range(t, cluster_by, bounds)
        else:
            b = bucket_of_keys(t, key_cols, num_buckets)
        t = t.append_column("_bucket", pa.array(b, pa.int64()))
        if done:
            keep = ~np.isin(b, np.array(sorted(done), dtype=np.int64))
            t = t.filter(pa.array(keep))
        return t

    tagged = ds.map_batches(tag, batch_format="pyarrow", batch_size=batch_size)
    manifest_ds = tagged.groupby("_bucket").map_groups(
        partial(
            _publish_group,
            sort_by="_z" if zcols is not None else cluster_by,
            filter_cols=_filter_cols(list(key_cols), bloom_cols),
            staging=staging,
            run_id=run_id,
            metrics=metrics,
        ),
        batch_format="pyarrow",
    )
    published = _publish_stream(manifest_ds, out_dir)
    tman = {
        # clustered layouts advertise no key-hash modulus: a key's bucket is
        # not derivable from the key, so lookup_key falls back to its
        # footer-stats pruning path over all buckets
        "num_buckets": None if (cluster_by is not None or zcols is not None) else num_buckets,
        "generic": True,
    }
    if cluster_by is not None or zcols is not None:
        tman["cluster_by"] = zcols if zcols is not None else cluster_by
    all_manifests, snap = _commit_table(out_dir, tman, "publish_dataset", run_id)
    return {
        "published_now": len(published),
        "published_total": len(all_manifests),
        "rows_total": tman["rows_total"],
        "snapshot": snap,
        "out_dir": out_dir,
    }


def _pad(type_: pa.DataType, n: int) -> pa.Array:
    """``n`` values of ``type_`` that stand for nothing, a delete row's
    non-key columns: nulls, except where Parquet cannot store a null
    readably. A fixed-size list gets a list of padded elements, and a
    struct holding one gets its fields padded instead of a null."""
    if pa.types.is_fixed_size_list(type_):
        return pa.FixedSizeListArray.from_arrays(_pad(type_.value_type, n * type_.list_size),
                                                 type=type_)
    if pa.types.is_struct(type_):
        fields = [_pad(f.type, n) for f in type_]
        if any(a.null_count < n for a in fields):
            return pa.StructArray.from_arrays(fields, fields=list(type_))
    return pa.nulls(n, type_)


def _to_physical_update(t: pa.Table, smap, canon: pa.Schema) -> pa.Table:
    """Logical-named upsert rows → the table's ONE physical schema: renames
    map back, dropped physical columns null-pad (bytes still live in the
    files), unmaterialized added columns must be all-NULL (their values
    would silently vanish) and are removed."""
    cols = {}
    for name in canon.names:
        # the logical name this physical column currently carries (if any)
        logical = next((ln for ln, pn in smap.to_physical.items() if pn == name), None)
        if logical is not None and logical in t.column_names:
            c = t[logical]
            ptype = canon.field(name).type
            if c.type != ptype:
                # widened column: files keep the narrow physical type, so the
                # wide logical value must still fit (safe cast raises loudly
                # on overflow — rewrite the table to materialize the widening)
                try:
                    c = c.cast(ptype, safe=True)
                except pa.ArrowInvalid as e:
                    raise ValueError(
                        f"column {logical!r} was widened by alter_published but "
                        f"the files still carry {ptype}; this update's values "
                        "don't fit — rewrite the table to materialize the "
                        f"wider type ({e})"
                    ) from e
            cols[name] = c
        else:
            cols[name] = pa.nulls(len(t), canon.field(name).type)  # dropped col
    for added in smap.added:
        if added in t.column_names and t[added].null_count != len(t):
            raise ValueError(
                f"column {added!r} is metadata-only (added by alter_published) "
                "and not materialized in the data files yet; upserting non-null "
                "values would lose them — rewrite the table first"
            )
    return pa.table(cols)


@_single_writer("out_dir")
def upsert_published(
    updates,
    out_dir: str,
    *,
    deletes=None,
    run_id: str = "upsert-0",
    batch_size: int = 65536,
    metrics: str | None = None,
    feed_dir: str | None = None,
    feed_values: list[str] | None = None,
    mode: str = "cow",
) -> dict:
    """Key-level upsert/delete into a GENERIC published table (one laid out by
    :func:`publish_dataset`): only buckets containing touched keys are
    rewritten, copy-on-write under the same write-audit-publish contract —
    the downstream-table maintenance primitive (a materialized view's refresh
    writes through this; `odibel_ray.cdc.mview`).

    ``updates`` rows are full replacement rows for their key (at most one row
    per key); ``deletes`` is an optional Dataset carrying (at least) the key
    columns of rows to remove. A key that is both updated and deleted in one
    call keeps its update row, and a null key is one key, in both modes:
    every bucket write is the one bucket write of every keyed table
    (:func:`_write_upsert`, then :func:`_write_bucket`), an LWW merge that
    sorts and never joins, so nested (``list<struct>``) payload
    columns work in both modes and the rewritten files come out sorted by
    key. Untouched buckets keep their current files. Idempotent:
    re-running the same updates/deletes over an already-updated table
    converges to the same state, so a crash-resume just re-runs.
    Cost is O(touched buckets), never O(table).

    ``mode``: ``"cow"`` (default) rewrites each touched bucket;
    ``"mor"`` stages the replacement rows as a per-bucket DELTA file
    (tombstones retained) appended to the bucket manifest in the same
    atomic flip — write cost O(updates), no base read, the fit for
    high-frequency maintained-table refreshes; readers LWW-merge on the
    layout keys and ``compact_published`` folds the deltas back.
    Incompatible with ``feed_dir`` (the feed is computed from CoW rewrite
    state).

    ``feed_dir``: also emit this run's row-level change feed (the same
    ``keys, change, {v}_before/{v}_after, _lsn`` shape ``table_changes``
    produces, so downstream derived/mview/joinview refreshes consume it
    directly — the write-time CDF that lets a maintained-table CASCADE skip
    snapshot diffs; see ``refresh_pipeline(chain_feeds=True)``). Computed
    inside the per-bucket rewrite from state the upsert already holds (the
    base rows of the keys the bucket's group carries and the group's LWW
    winners, paired by :func:`~odibel_ray.cdc.lww.change_feed_group`, the
    kernel of ``change_feed`` and of a transcript apply's feed), staged
    next to the bucket's data and published in the same atomic pointer
    flip; every rewritten bucket stages one feed file.
    No-op updates emit nothing; ``_lsn`` carries the table's write
    sequence. ``feed_values`` defaults to every non-key column.
    """
    from odibel_ray.cdc.lww import bucket_of_keys

    plan = _read_plan(out_dir)
    layout = plan.layout
    if layout["system"]:
        raise FileNotFoundError(
            f"{out_dir} is not a generic published table (no _layout.json; "
            "upsert_published only targets publish_dataset tables)"
        )
    if layout["cluster_by"]:
        raise ValueError(
            "upsert_published cannot target a range-clustered table (a key's "
            "bucket is not derivable from the key); maintain the hash-bucketed "
            "primary and republish the clustered serving copy"
        )
    key_cols = layout["key_cols"]
    num_buckets = layout["num_buckets"]
    if mode not in ("cow", "mor"):
        raise ValueError("mode must be 'cow' or 'mor'")
    if mode == "mor" and feed_dir:
        raise ValueError(
            "mode='mor' cannot emit a change feed (the feed is computed from "
            "the copy-on-write rewrite state); use mode='cow' with feed_dir"
        )
    manifests = plan.checked
    if mode == "cow" and any(m.get("deltas") for m in manifests.values()):
        raise ValueError(
            "table has merge-on-read deltas; compact_published first (or "
            "keep upserting with mode='mor')"
        )
    if updates is None and deletes is None:
        raise ValueError("pass updates rows, deletes rows, or both")
    # metadata-only DDL: updates arrive with LOGICAL names; files keep ONE
    # physical schema, so translate logical→physical on write (cdc/ddl.py)
    smap = None
    if manifests:
        if plan.mrun:
            raise ValueError(
                "a materialize_ddl rewrite is in flight on this table "
                "(mixed physical schemas); finish it before upserting"
            )
        canon, smap = plan.schema, plan.smap
    elif updates is None:
        raise ValueError("delete-only upsert needs a published table to delete from")
    else:
        canon = updates.schema().base_schema
    canon_names = list(canon.names)
    if feed_dir is not None and smap is not None:
        raise ValueError(
            "feed_dir with an active schema op log is not supported (the feed "
            "would mix logical and physical names); materialize_ddl first"
        )
    from odibel_ray.cdc.quality import get_expectations, violation_count

    expect = get_expectations(out_dir)
    if expect and updates is not None:  # deletes cannot violate a CHECK
        # CHECK constraint: one vectorized pre-pass over the update rows
        # BEFORE anything stages, so a violating write fails whole — never a
        # partial apply (update rows carry logical names, as the clauses do)
        bad = violation_count(updates, expect, batch_size=batch_size)
        if bad:
            raise ValueError(
                f"upsert violates the table expectation {expect}: {bad} row(s); "
                "fix the rows or drop_expectations() first"
            )
    if feed_dir is not None:
        if feed_values is None:
            feed_values = [c for c in canon_names if c not in key_cols]
        else:
            feed_values = list(feed_values)
    # write sequence: constant within a run, increasing across runs — the
    # ordering feed consumers and the MOR delta merge need
    with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
        tman = json.load(f)
    prev_seq = int(tman.get("write_seq", 0))
    seq = prev_seq + 1

    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    os.makedirs(staging, exist_ok=True)

    def tag_updates(t: pa.Table) -> pa.Table:
        _reject_null_fixed_size_lists(t)
        t = t.combine_chunks()
        if smap is not None:
            t = _to_physical_update(t, smap, canon)
        missing = [c for c in canon_names if c not in t.column_names]
        if missing:
            raise ValueError(f"update rows missing table columns {missing}")
        t = t.select(canon_names)
        b = bucket_of_keys(t, key_cols, num_buckets)
        t = t.append_column("_bucket", pa.array(b, pa.int64()))
        return t.append_column("_delete", pa.array(np.zeros(len(t), dtype=bool)))

    def tag_deletes(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        cols = {}
        for name in canon_names:
            f = canon.field(name)
            cols[name] = t[name].cast(f.type) if name in key_cols else _pad(f.type, len(t))
        padded = pa.table(cols)
        b = bucket_of_keys(padded, key_cols, num_buckets)
        padded = padded.append_column("_bucket", pa.array(b, pa.int64()))
        return padded.append_column("_delete", pa.array(np.ones(len(t), dtype=bool)))

    tagged = (
        updates.map_batches(tag_updates, batch_format="pyarrow", batch_size=batch_size)
        if updates is not None
        else None
    )
    if deletes is not None:
        tag_d = deletes.map_batches(
            tag_deletes, batch_format="pyarrow", batch_size=batch_size
        )
        tagged = tag_d if tagged is None else tagged.union(tag_d)
    feed = None if feed_dir is None else {"dir": feed_dir, "values": feed_values, "lsn": True}
    group_fn = partial(
        _write_upsert,
        layout=layout,
        bases=_bases(manifests),
        mor=mode == "mor",
        out_dir=out_dir,
        seq=seq,
        feed=feed,
        staging=staging,
        run_id=run_id,
        metrics=metrics,
    )
    manifest_ds = tagged.groupby("_bucket").map_groups(group_fn, batch_format="pyarrow")
    published = _publish_stream(manifest_ds, out_dir)
    if feed_dir is not None or mode == "mor" or prev_seq:
        # keep the sequence monotonic across feed-less writes too
        tman["write_seq"] = seq
    all_manifests, snap = _commit_table(out_dir, tman, "upsert_published", run_id)
    return {
        "buckets_rewritten": len(published),
        "published_total": len(all_manifests),
        "rows_total": tman["rows_total"],
        "deltas_total": tman["mor_deltas"],
        "snapshot": snap,
        "out_dir": out_dir,
    }
