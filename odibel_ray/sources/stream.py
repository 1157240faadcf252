"""Stdin/pipe streaming source: JSONL change events → WAL spool → lake upsert.

The reference's CLI replays from ``-`` (stdin), a local file, or an HDFS
stream, processing lines sequentially inside one JVM
(``/root/reference/src/main/scala/ai/scads/odibel/main/DBpediaTKG.scala:106-133``).
The Ray-Data-native shape splits that into two roles:

- **one lightweight reader** (this module) chunks the unbounded byte stream —
  a single fd is inherently sequential — into micro-batches, parses each chunk
  with ``pyarrow.json`` (vectorized block parse, never a per-line Python
  loop), and spools it into the engine's partitioned WAL layout
  ``<spool>/part=<k>/stream-<seq>.parquet`` with ``part = hash(conv_id)``
  (key-aligned, exactly like the generated log);
- **the distributed engine** (``tail_log`` → ``incremental_apply``) upserts
  each micro-batch through the exactly-once sink. Nothing downstream knows the
  events arrived by pipe.

At cluster scale the spool directory is shared storage and the reader is a
trivial sidecar process; per-event work in this process is one hash + one
Parquet column write. Events may carry their own ``lsn`` (a real binlog
position); otherwise arrival order assigns one — monotone per part because the
global sequence is monotone.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    pass

from odibel_ray.sources.io import detect_codec


def open_stream(path: str) -> IO[bytes]:
    """Binary input stream from a path spec, reference-CLI style:
    ``"-"`` → stdin; ``*.gz``/``*.bz2``/``*.zst`` → decompressing reader
    (codec by extension, same registry as :func:`~odibel_ray.sources.io.read_table_auto`);
    anything else → plain file."""
    if path == "-":
        return sys.stdin.buffer
    codec, _ = detect_codec(path)
    if codec:
        import pyarrow as _pa

        return _pa.CompressedInputStream(_pa.OSFile(path, "rb"), codec)
    return open(path, "rb")


def _parse_jsonl(chunk: bytes, schema: pa.Schema) -> pa.Table:
    """Vectorized JSONL block parse → table cast to the log schema. Fields
    missing from the JSON become nulls; unknown fields are ignored (the
    schema-evolution channel is the ``schema_change`` payload, not physical
    columns)."""
    from pyarrow import json as pa_json

    raw = pa_json.read_json(
        io.BytesIO(chunk),
        parse_options=pa_json.ParseOptions(
            explicit_schema=schema, unexpected_field_behavior="ignore"
        ),
    )
    return raw.cast(schema)


def _debezium_schema() -> pa.Schema:
    """Wire schema of a (flattened) Debezium change-event envelope over the
    transcript table: ``op`` c/u/d/r, row images in ``before``/``after``,
    binlog position in ``source.lsn``, event time in ``ts_ms``. This is the
    shape Debezium's JSON converter emits with ``schemas.enable=false`` (the
    common deployment; with the preamble enabled, strip to ``payload`` before
    piping). ``schema_change`` is this engine's inline extension — the analog
    of Debezium's schema-history topic folded into the same stream."""
    from odibel_ray.datagen import LOG_SCHEMA

    row = pa.struct(
        [
            (n, LOG_SCHEMA.field(n).type)
            for n in ("conv_id", "turn_idx", "role", "text", "tool", "tool_name", "score")
        ]
    )
    return pa.schema(
        [
            ("op", pa.string()),
            ("before", row),
            ("after", row),
            ("source", pa.struct([("lsn", pa.int64())])),
            ("ts_ms", pa.int64()),
            ("schema_change", pa.string()),
        ]
    )


def debezium_to_log(t: pa.Table) -> pa.Table:
    """Vectorized Debezium envelope → native change-log rows:

    - ``op``: c (create) / r (snapshot read) → I, u → U, d → D; any message
      carrying ``schema_change`` becomes an S event regardless of its op;
    - row columns come from ``after`` for c/u/r and from ``before`` for d
      (a Debezium delete's ``after`` is null — the key lives in ``before``);
    - ``lsn`` comes from ``source.lsn`` (null → the spool assigns arrival
      order, same as the native path); ``ts`` is ``ts_ms`` widened to µs.

    All Arrow compute kernels — no per-row Python."""
    import pyarrow.compute as pc

    from odibel_ray.datagen import LOG_SCHEMA

    t = t.combine_chunks()
    is_del = pc.equal(t["op"], "d")

    def pick(field: str) -> pa.Array:
        return pc.if_else(
            is_del,
            pc.struct_field(t["before"], field),
            pc.struct_field(t["after"], field),
        )

    opn = t["op"].to_numpy(zero_copy_only=False)
    log_op = np.where(opn == "d", "D", np.where(opn == "u", "U", "I"))
    sc = t["schema_change"]
    is_schema = pc.and_(pc.is_valid(sc), pc.not_equal(pc.coalesce(sc, ""), ""))
    log_op = np.where(is_schema.to_numpy(zero_copy_only=False), "S", log_op)
    ts = pc.cast(
        pc.multiply_checked(t["ts_ms"], pa.scalar(1000, pa.int64())), pa.timestamp("us")
    )
    cols = {
        "op": pa.array(log_op, pa.string()),
        "lsn": pc.struct_field(t["source"], "lsn"),
        "conv_id": pick("conv_id"),
        "turn_idx": pick("turn_idx"),
        "role": pick("role"),
        "text": pick("text"),
        "tool": pick("tool"),
        "tool_name": pick("tool_name"),
        "score": pick("score"),
        "ts": ts,
        "schema_change": sc,
    }
    return pa.table(cols).cast(LOG_SCHEMA)


def _parse_debezium(chunk: bytes) -> pa.Table:
    return debezium_to_log(_parse_jsonl(chunk, _debezium_schema()))


STREAM_FORMATS = {"native": None, "debezium": _parse_debezium}


def _read_line_chunks(stream: IO[bytes], batch_rows: int) -> Iterator[bytes]:
    """Yield byte chunks of up to ``batch_rows`` complete lines. Reads in
    64 KiB blocks and splits on the last newline — O(block) per iteration,
    no per-line Python objects."""
    buf = b""
    pending_lines = 0
    out: list[bytes] = []
    while True:
        block = stream.read(64 * 1024)
        if not block:
            break
        buf += block
        nl = buf.rfind(b"\n")
        if nl < 0:
            continue
        complete, buf = buf[: nl + 1], buf[nl + 1 :]
        out.append(complete)
        pending_lines += complete.count(b"\n")
        if pending_lines >= batch_rows:
            yield b"".join(out)
            out, pending_lines = [], 0
    if buf.strip():
        out.append(buf if buf.endswith(b"\n") else buf + b"\n")
    if out:
        yield b"".join(out)


def spool_jsonl(
    stream: IO[bytes] | str,
    spool_dir: str,
    *,
    num_parts: int = 8,
    batch_rows: int = 65536,
    start_seq: int | None = None,
    assign_lsn: bool = True,
    fmt: str = "native",
) -> dict:
    """Spool a JSONL change-event stream into the WAL layout the engine's
    sinks consume (``part=<k>/stream-<seq>.parquet``). Returns
    ``{"n_events", "files", "last_lsn", "next_seq"}``.

    ``part`` is the same conv_id hash the engine buckets by, so the spool is
    key-aligned (a key's events never split across parts — the invariant the
    watermark matrix and the shuffle-free partitioned replay rely on).
    ``assign_lsn``: rows with a null ``lsn`` get the next arrival-order
    sequence number (resumed from the spool's own max when ``start_seq`` is
    None), so a raw event feed without binlog positions still replays
    deterministically. ``fmt="debezium"`` accepts Debezium change-event
    envelopes instead of native log rows (see :func:`debezium_to_log`).
    """
    from odibel_ray.cdc.lww import bucket_of_keys
    from odibel_ray.datagen import LOG_SCHEMA

    if fmt not in STREAM_FORMATS:
        raise ValueError(f"unknown stream format {fmt!r} (have {sorted(STREAM_FORMATS)})")
    parse = STREAM_FORMATS[fmt] or (lambda c: _parse_jsonl(c, LOG_SCHEMA))
    if isinstance(stream, str):
        stream = open_stream(stream)
    os.makedirs(spool_dir, exist_ok=True)
    state_path = os.path.join(spool_dir, "_spool_state.json")
    st: dict = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            st = json.load(f)
    if start_seq is None:
        start_seq = int(st.get("next_seq", 0))
    # the LSN counter is independent of the file-sequence counter: an explicit
    # start_seq renumbers files only — reusing it as the next LSN could
    # collide with LSNs already spooled and silently flip LWW winners
    next_lsn = int(st.get("next_lsn", 0))

    seq = start_seq
    n_events = 0
    files: list[str] = []
    last_lsn = -1
    for chunk in _read_line_chunks(stream, batch_rows):
        t = parse(chunk)
        if len(t) == 0:
            continue
        if assign_lsn:
            null_mask = pa.compute.is_null(t["lsn"]).to_numpy(zero_copy_only=False)
            if null_mask.any():
                vals = np.nan_to_num(
                    t["lsn"].to_numpy(zero_copy_only=False).astype(np.float64),
                    nan=0.0,
                )
                arrival = next_lsn + np.cumsum(null_mask) - 1
                filled = np.where(null_mask, arrival, vals).astype(np.int64)
                t = t.set_column(
                    t.schema.get_field_index("lsn"), "lsn",
                    pa.array(filled, pa.int64()),
                )
                next_lsn = int(next_lsn + null_mask.sum())
        import pyarrow.parquet as pq

        # schema (S) events are partition-global: the generated WAL carries one
        # copy per part, so the spool replicates them to every part too —
        # each part's timeline then sees the change at the same LSN
        op = t["op"].to_numpy(zero_copy_only=False)
        s_mask = op == "S"
        s_rows = t.filter(pa.array(s_mask)) if s_mask.any() else None
        data_t = t.filter(pa.array(~s_mask)) if s_mask.any() else t
        parts = bucket_of_keys(data_t, ["conv_id"], num_parts)
        target_parts = range(num_parts) if s_rows is not None else np.unique(parts)
        for p in target_parts:
            sub = data_t.filter(pa.array(parts == int(p)))
            if s_rows is not None:
                sub = pa.concat_tables([sub, s_rows])
            if len(sub) == 0:
                continue
            pdir = os.path.join(spool_dir, f"part={int(p)}")
            os.makedirs(pdir, exist_ok=True)
            fname = f"stream-{seq:06d}.parquet"
            fpath = os.path.join(pdir, fname)
            # written under a hidden name that no ``*.parquet`` listing sees,
            # then renamed: a crash mid-write leaves no truncated file for
            # the next apply to choke on
            tmp = os.path.join(pdir, f".{fname}.tmp")
            pq.write_table(sub, tmp, store_schema=False)
            os.replace(tmp, fpath)
            files.append(fpath)
        lsn_max = int(pa.compute.max(t["lsn"]).as_py())
        last_lsn = max(last_lsn, lsn_max)
        next_lsn = max(next_lsn, lsn_max + 1)
        n_events += len(t)
        seq += 1
    with open(state_path + ".tmp", "w") as f:
        json.dump({"next_seq": seq, "next_lsn": next_lsn}, f)
    os.replace(state_path + ".tmp", state_path)
    return {
        "n_events": n_events,
        "files": files,
        "last_lsn": last_lsn,
        "next_seq": seq,
    }


def tail_stream(
    stream: IO[bytes] | str,
    out_dir: str,
    *,
    spool_dir: str,
    num_parts: int = 8,
    batch_rows: int = 65536,
    rounds_per_apply: int = 1,
    num_buckets: int | None = 16,
    run_prefix: str = "stream",
    heartbeat_interval_s: float = 0.0,
    metrics: str | None = None,
    mode: str = "cow",
    compact_every: int = 0,
    fmt: str = "native",
    snapshots: int | None = None,
) -> dict:
    """Live pipe → lake upsert: read JSONL micro-batches from ``stream``
    (``"-"`` = stdin), spool each into the WAL layout, and converge the
    published table after every ``rounds_per_apply`` micro-batches via the
    exactly-once incremental sink. The one reference CLI mode
    (``DBpediaTKG.scala:106-133``) with no batch-file analog.

    Resumable like everything else in the sink: the spool keeps its sequence
    state on disk, applies are watermark-filtered, and publish is per-bucket
    atomic — killing this loop mid-stream and re-piping the remainder
    converges to the same table. ``heartbeat_interval_s > 0`` logs live
    events/s through :class:`odibel_ray.monitor.ThroughputMonitor`;
    ``metrics`` names a live counter actor the distributed apply tasks
    update bucket-by-bucket (:func:`odibel_ray.monitor.metrics_actor`).

    ``mode="mor"`` upserts each micro-batch as merge-on-read deltas (no
    bucket rewrite per apply — the right trade when applies are frequent and
    small); ``compact_every=k`` folds deltas back into the bases after every
    k applies, plus once at stream end. ``fmt="debezium"`` ingests Debezium
    change-event envelopes (see :func:`debezium_to_log`) — pipe a connector's
    topic dump straight in.
    """
    from odibel_ray.cdc.sink import (
        compact_published,
        incremental_apply,
        load_manifests,
        replay_publish,
    )
    from odibel_ray.monitor import ThroughputMonitor

    if isinstance(stream, str):
        stream = open_stream(stream)
    os.makedirs(spool_dir, exist_ok=True)
    import glob as _glob

    archive_dir = spool_dir.rstrip("/") + "_applied"
    applies: list[dict] = []
    # leftovers from a killed previous run are pending too — the first apply
    # converges them (watermark-idempotent) and archives them with its batch
    pending_files: list[str] = sorted(
        _glob.glob(os.path.join(spool_dir, "part=*", "stream-*.parquet"))
    )
    spooled_rounds = 0
    total_events = 0
    run_i = 0
    # monotonic stamp of the first spool of the current pending set — the
    # apply's visibility latency is measured from the OLDEST buffered
    # micro-batch (the conservative, p95-relevant end-to-end number)
    pending_since: float | None = None

    def _apply() -> None:
        nonlocal run_i, pending_files, pending_since
        if not pending_files:
            return
        consumed = list(pending_files)
        from odibel_ray.cdc.sink import TABLE_MANIFEST

        # bootstrap iff the TABLE manifest is absent — not "no bucket
        # manifests": a first micro-batch of only schema/malformed events
        # publishes zero buckets but DOES persist the schema timeline, and
        # a second bootstrap would overwrite it with a timeline extracted
        # from the new batch alone, silently un-evolving the table
        if not os.path.exists(os.path.join(out_dir, TABLE_MANIFEST)):
            res = replay_publish(
                spool_dir, out_dir, num_buckets=num_buckets,
                run_id=f"{run_prefix}-bootstrap", metrics=metrics,
                snapshots=snapshots,
            )
            res["mode"] = "bootstrap"
        else:
            res = incremental_apply(
                spool_dir, out_dir, run_id=f"{run_prefix}-{run_i}",
                metrics=metrics, mode=mode, snapshots=snapshots,
            )
            res["mode"] = "incremental"
        run_i += 1
        applies.append(res)
        if (
            mode == "mor"
            and compact_every
            and sum(1 for a in applies if a["mode"] == "incremental") % compact_every == 0
            and res["mode"] == "incremental"
        ):
            cres = compact_published(
                out_dir, run_id=f"{run_prefix}-compact-{run_i}", metrics=metrics
            )
            cres["mode"] = "compact"
            applies.append(cres)
        # archive the micro-batch files this apply consumed so the next apply
        # reads only NEW files — per-round ingest IO stays O(new events), not
        # O(whole stream so far). Moving only after publish returns keeps the
        # crash story: files still pending are re-read and watermark-filtered
        # (idempotent); already-applied S events live on in the stored
        # timeline the incremental path merges.
        for f in consumed:
            dst = os.path.join(archive_dir, os.path.relpath(f, spool_dir))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            os.replace(f, dst)
        pending_files = []  # _apply always consumes the whole pending set
        if pending_since is not None:
            # stamped AFTER archiving: the table is published AND the spool
            # reflects it — the full ingest-to-queryable path
            res["visibility_latency_s"] = round(
                time.monotonic() - pending_since, 6
            )
        pending_since = None

    with ThroughputMonitor(heartbeat_interval_s, what="events") as mon:
        for chunk in _read_line_chunks(stream, batch_rows):
            t_round = time.monotonic()
            info = spool_jsonl(
                io.BytesIO(chunk), spool_dir,
                num_parts=num_parts, batch_rows=batch_rows, fmt=fmt,
            )
            if pending_since is None and info["n_events"]:
                pending_since = t_round
            total_events += info["n_events"]
            mon.add(info["n_events"])
            # a re-spooled sequence number (resume after a crash mid-spool)
            # rewrites a leftover file that is already pending
            pending_files.extend(f for f in info["files"] if f not in pending_files)
            spooled_rounds += 1
            if spooled_rounds % rounds_per_apply == 0:
                _apply()
        # anything still pending converges here — including leftovers from a
        # killed previous run when THIS stream contributed zero events (the
        # "re-pipe the remainder, remainder is empty" resume case)
        if pending_files:
            _apply()
        # stream-end compaction so the table isn't left carrying deltas
        if mode == "mor" and compact_every and applies:
            cres = compact_published(
                out_dir, run_id=f"{run_prefix}-compact-final", metrics=metrics
            )
            if cres.get("compacted", 0):
                cres["mode"] = "compact"
                applies.append(cres)
        summary = mon.stop()

    return {
        "n_events": total_events,
        "applies": sum(1 for a in applies if a["mode"] != "compact"),
        "compactions": sum(1 for a in applies if a["mode"] == "compact"),
        "rows_total": applies[-1]["rows_total"] if applies else 0,
        "throughput": summary,
        "history": applies,
    }
