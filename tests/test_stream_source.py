"""Stdin/pipe streaming source (spool → micro-batch upsert) + heartbeat."""

import io
import json
import os

import numpy as np
import pytest
import pyarrow as pa
import pyarrow.parquet as pq


def _jsonl_from_log(log_dir: str, drop_lsn: bool = False) -> bytes:
    """Serialize a generated change log to an LSN-ordered JSONL byte stream —
    the shape a live binlog feed pipes in."""
    import glob

    tables = []
    for f in sorted(glob.glob(os.path.join(log_dir, "part=*", "*.parquet"))):
        tables.append(pq.read_table(f))
    t = pa.concat_tables(tables, promote_options="default")
    t = t.take(pa.compute.sort_indices(t, sort_keys=[("lsn", "ascending")]))
    rows = t.to_pylist()
    out = []
    for r in rows:
        if r.get("ts") is not None:
            r["ts"] = r["ts"].isoformat()
        if drop_lsn:
            r.pop("lsn", None)
        out.append(json.dumps({k: v for k, v in r.items() if v is not None}))
    return ("\n".join(out) + "\n").encode()


def _fixture_log(tmp_path, n_convs=60):
    from odibel_ray.datagen import generate_change_log

    out = str(tmp_path / "gen")
    info = generate_change_log(out, n_convs=n_convs, max_turns=12, num_parts=4,
                               seed=3)
    return info["log_dir"], info["n_events"]


def test_spool_jsonl_roundtrip(ray_session, tmp_path):
    """Spooled WAL holds exactly the piped events, key-aligned by part."""
    from odibel_ray.sources.stream import spool_jsonl

    log_dir, n_events = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    spool = str(tmp_path / "spool")
    info = spool_jsonl(io.BytesIO(payload), spool, num_parts=4, batch_rows=500)
    assert info["n_events"] == n_events

    # every conv_id lives in exactly one part (key alignment)
    import glob

    seen: dict[str, set] = {}
    n_data = 0
    n_s_per_part: dict[str, int] = {}
    for f in glob.glob(os.path.join(spool, "part=*", "*.parquet")):
        part = os.path.basename(os.path.dirname(f))
        t = pq.read_table(f, columns=["conv_id", "op"])
        ops = np.array(t["op"].to_pylist())
        n_s_per_part[part] = n_s_per_part.get(part, 0) + int((ops == "S").sum())
        n_data += int((ops != "S").sum())
        for c in t["conv_id"].to_pylist():
            if c is not None:
                seen.setdefault(c, set()).add(part)
    assert all(len(parts) == 1 for parts in seen.values())
    # S events replicate to every part equally
    assert len(set(n_s_per_part.values())) == 1


def test_tail_stream_converges_to_oracle(ray_session, tmp_path):
    """Pipe → spool → incremental upserts must converge to the single-threaded
    oracle replay of the spooled log (per-turn text equality)."""
    import pandas as pd

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.oracle import replay_oracle
    from odibel_ray.sources.stream import tail_stream

    log_dir, n_events = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    spool = str(tmp_path / "spool")
    table = str(tmp_path / "table")
    res = tail_stream(
        io.BytesIO(payload), table, spool_dir=spool, num_parts=4,
        batch_rows=150, num_buckets=8,
    )
    assert res["n_events"] == n_events
    assert res["applies"] >= 2  # several micro-batch rounds actually ran

    # applied micro-batches are archived out of the spool (per-round IO stays
    # O(new events)); the oracle replays the archive, which holds them all
    archive = spool + "_applied"
    assert os.path.isdir(archive) and not any(
        f.endswith(".parquet")
        for _, _, fs in os.walk(spool)
        for f in fs
    ), "applied stream files must move to the archive"

    got = (
        read_published(table)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    want = (
        replay_oracle(archive)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        got[["conv_id", "turn_idx", "text"]], want[["conv_id", "turn_idx", "text"]]
    )
    assert len(got) == res["rows_total"]


def test_tail_stream_resume_mid_pipe(ray_session, tmp_path):
    """Kill-resume shape: stream the first half, then re-start with the second
    half — spool sequence state resumes and the final table equals a
    one-shot run."""
    import pandas as pd

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.sources.stream import tail_stream

    log_dir, _ = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    lines = payload.splitlines(keepends=True)
    half = len(lines) // 2
    spool = str(tmp_path / "spool")
    table = str(tmp_path / "table")
    tail_stream(io.BytesIO(b"".join(lines[:half])), table, spool_dir=spool,
                num_parts=4, batch_rows=400, num_buckets=8)
    tail_stream(io.BytesIO(b"".join(lines[half:])), table, spool_dir=spool,
                num_parts=4, batch_rows=400, num_buckets=8)

    spool2 = str(tmp_path / "spool2")
    table2 = str(tmp_path / "table2")
    tail_stream(io.BytesIO(payload), table2, spool_dir=spool2, num_parts=4,
                batch_rows=400, num_buckets=8)

    a = read_published(table).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    b = read_published(table2).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_tail_stream_applies_leftover_spool_on_empty_repipe(ray_session, tmp_path):
    """Killed-after-spool resume: micro-batches sit in the spool but were
    never applied, and the re-piped remainder is EMPTY. tail_stream must
    still converge the leftovers (the final apply keys off pending files,
    not off this stream's event count)."""
    import pandas as pd

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.sources.stream import spool_jsonl, tail_stream

    log_dir, _ = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    spool = str(tmp_path / "spool")
    table = str(tmp_path / "table")
    # simulate the killed run: events spooled, no apply ever happened
    spool_jsonl(io.BytesIO(payload), spool, num_parts=4, batch_rows=400)
    res = tail_stream(io.BytesIO(b""), table, spool_dir=spool, num_parts=4,
                      batch_rows=400, num_buckets=8)
    assert res["n_events"] == 0 and res["applies"] == 1
    assert res["rows_total"] > 0

    spool2 = str(tmp_path / "spool2")
    table2 = str(tmp_path / "table2")
    tail_stream(io.BytesIO(payload), table2, spool_dir=spool2, num_parts=4,
                batch_rows=400, num_buckets=8)
    a = read_published(table).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    b = read_published(table2).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)


def test_spool_assigns_arrival_lsn(ray_session, tmp_path):
    """A feed without binlog positions gets monotone arrival-order LSNs."""
    from odibel_ray.sources.stream import spool_jsonl

    rows = [
        {"op": "I", "conv_id": f"c{i % 3}", "turn_idx": i, "role": "user",
         "text": f"t{i}", "ts": "2024-01-01T00:00:00"}
        for i in range(20)
    ]
    payload = ("\n".join(json.dumps(r) for r in rows) + "\n").encode()
    spool = str(tmp_path / "spool")
    info = spool_jsonl(io.BytesIO(payload), spool, num_parts=2, batch_rows=7)
    assert info["n_events"] == 20
    assert info["last_lsn"] == 19

    import glob

    got = []
    for f in glob.glob(os.path.join(spool, "part=*", "*.parquet")):
        t = pq.read_table(f, columns=["turn_idx", "lsn"])
        got += list(zip(t["turn_idx"].to_pylist(), t["lsn"].to_pylist()))
    # arrival order == emission order: lsn must equal the row index
    assert sorted(got) == [(i, i) for i in range(20)]


def test_debezium_envelope_mapping(ray_session):
    """debezium_to_log: c/r→I, u→U, d→D with the row image taken from
    `before` on deletes; source.lsn carried; ts_ms widened to µs; a
    schema_change message becomes an S event."""
    from odibel_ray.sources.stream import _parse_debezium

    rows = [
        {"op": "c", "after": {"conv_id": "a", "turn_idx": 0, "role": "user", "text": "hi"},
         "source": {"lsn": 5}, "ts_ms": 1700000000000},
        {"op": "r", "after": {"conv_id": "b", "turn_idx": 1, "role": "tool", "text": "snap"},
         "source": {"lsn": 6}, "ts_ms": 1700000001000},
        {"op": "u", "after": {"conv_id": "a", "turn_idx": 0, "role": "user", "text": "hi2"},
         "source": {"lsn": 7}, "ts_ms": 1700000002000},
        {"op": "d", "before": {"conv_id": "b", "turn_idx": 1},
         "source": {"lsn": 8}, "ts_ms": 1700000003000},
        {"op": "c", "schema_change": '{"rename": {"tool": "tool_name"}}',
         "source": {"lsn": 9}, "ts_ms": 1700000004000},
    ]
    payload = ("\n".join(json.dumps(r) for r in rows) + "\n").encode()
    t = _parse_debezium(payload)
    assert t["op"].to_pylist() == ["I", "I", "U", "D", "S"]
    assert t["lsn"].to_pylist() == [5, 6, 7, 8, 9]
    # delete's key comes from `before`; its non-key columns are null
    assert t["conv_id"].to_pylist() == ["a", "b", "a", "b", None]
    assert t["turn_idx"].to_pylist() == [0, 1, 0, 1, None]
    assert t["text"].to_pylist() == ["hi", "snap", "hi2", None, None]
    assert t["ts"].to_pylist()[0].isoformat() == "2023-11-14T22:13:20"
    assert t["schema_change"].to_pylist()[-1] == '{"rename": {"tool": "tool_name"}}'


def test_debezium_stream_tail_matches_replay(ray_session, small_log, oracle_final, tmp_path):
    """End-to-end: the native log re-encoded as Debezium envelopes, piped
    through tail_stream(fmt='debezium'), converges to the batch-replay
    oracle — the envelope mapping is lossless."""
    import glob

    import pyarrow.compute as pc

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.sources.stream import tail_stream
    from tests.conftest import collect_sorted

    tables = [
        pq.read_table(f)
        for f in sorted(glob.glob(os.path.join(small_log["log_dir"], "part=*", "*.parquet")))
    ]
    t = pa.concat_tables(tables, promote_options="default")
    t = t.take(pc.sort_indices(t, sort_keys=[("lsn", "ascending")]))
    t = t.append_column(
        "ts_ms", pc.divide(pc.cast(t["ts"], pa.int64()), pa.scalar(1000, pa.int64()))
    )
    op_map = {"I": "c", "U": "u", "D": "d"}
    fields = ("conv_id", "turn_idx", "role", "text", "tool", "tool_name", "score")
    lines = []
    for r in t.to_pylist():
        env = {"op": op_map.get(r["op"], "c"), "source": {"lsn": r["lsn"]}, "ts_ms": r["ts_ms"]}
        img = {k: r[k] for k in fields if r.get(k) is not None}
        if r["op"] == "D":
            env["before"] = img
        elif r["op"] in ("I", "U"):
            env["after"] = img
        if r.get("schema_change"):
            env["schema_change"] = r["schema_change"]
        lines.append(json.dumps(env))
    payload = str(tmp_path / "dbz.jsonl")
    with open(payload, "w") as f:
        f.write("\n".join(lines) + "\n")
    out = str(tmp_path / "tbl")
    res = tail_stream(
        payload, out, spool_dir=str(tmp_path / "spool"),
        num_parts=4, batch_rows=500, num_buckets=4, fmt="debezium",
    )
    assert res["n_events"] == t.num_rows
    assert collect_sorted(read_published(out), ["conv_id", "turn_idx"]).equals(oracle_final)


def test_throughput_monitor_reports():
    import time

    from odibel_ray.monitor import ThroughputMonitor

    msgs = []
    with ThroughputMonitor(0.05, what="events", emit=msgs.append) as mon:
        for _ in range(4):
            mon.add(250)
            time.sleep(0.06)
    assert mon.total == 1000
    # at least one live heartbeat plus the final summary line
    assert len(msgs) >= 2
    assert any("heartbeat" in m for m in msgs)
    assert msgs[-1].startswith("done: 1000 events")

    # interval 0: inert, still counts and summarizes
    m2 = []
    with ThroughputMonitor(0.0, emit=m2.append) as mon:
        mon.add(5)
    assert mon.total == 5 and len(m2) == 1


def test_tail_stream_schema_only_first_batch_keeps_timeline(ray_session, tmp_path):
    """A stream whose FIRST micro-batches carry only a schema event must
    not lose the evolution when the first data batch arrives: bootstrap
    fires only while the TABLE manifest is absent, and the schema-only
    publish persists the timeline for the next apply to merge."""
    import io
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from odibel_ray.cdc import read_published
    from odibel_ray.datagen import LOG_SCHEMA
    from odibel_ray.sources.stream import tail_stream

    def jl(rows):
        out = []
        for r in rows:
            out.append(_json.dumps({k: v for k, v in r.items() if v is not None}))
        return ("\n".join(out) + "\n").encode()

    base_ts = "2023-11-14T22:13:20.000000"
    s_row = {"op": "S", "lsn": 0, "ts": base_ts,
             "schema_change": _json.dumps(
                 {"kind": "add_column", "name": "score", "type": "double"})}
    d_row = {"op": "I", "lsn": 1, "conv_id": "c0", "turn_idx": 0,
             "role": "user", "text": "hi", "score": 0.75, "ts": base_ts}
    table = str(tmp_path / "tbl")
    spool = str(tmp_path / "spool")
    tail_stream(io.BytesIO(jl([s_row])), table, spool_dir=spool,
                num_parts=2, batch_rows=10, rounds_per_apply=1, num_buckets=4)
    tail_stream(io.BytesIO(jl([d_row])), table, spool_dir=spool,
                num_parts=2, batch_rows=10, rounds_per_apply=1, num_buckets=4)
    rows = read_published(table).take_all()
    assert len(rows) == 1
    assert rows[0]["score"] == 0.75  # the evolution survived the bootstrap


def test_spool_crash_mid_write_leaves_no_truncated_file(ray_session, tmp_path, monkeypatch):
    """A crash inside the spool's Parquet write must not leave a truncated
    ``stream-*.parquet``: the next tail_stream treats every such file as
    pending, so a torn one would fail every later apply. Re-piping the
    stream after the crash converges to the oracle."""
    import glob

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.oracle import replay_oracle
    from odibel_ray.sources.stream import tail_stream
    from tests.conftest import collect_sorted

    log_dir, _ = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    spool = str(tmp_path / "spool")
    table = str(tmp_path / "table")
    real_write = pq.write_table
    spool_writes = []

    def torn_write(t, where, **kw):
        if not os.path.basename(os.path.dirname(str(where))).startswith("part="):
            return real_write(t, where, **kw)
        spool_writes.append(where)
        if len(spool_writes) < 6:
            return real_write(t, where, **kw)
        buf = pa.BufferOutputStream()
        real_write(t, buf, **kw)
        data = buf.getvalue().to_pybytes()
        with open(where, "wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError("simulated crash mid-write")

    monkeypatch.setattr(pq, "write_table", torn_write)
    with pytest.raises(OSError, match="simulated crash"):
        tail_stream(io.BytesIO(payload), table, spool_dir=spool, num_parts=4,
                    batch_rows=300, num_buckets=8)
    monkeypatch.setattr(pq, "write_table", real_write)

    for f in glob.glob(os.path.join(spool, "part=*", "stream-*.parquet")):
        pq.read_metadata(f)  # raises on a truncated file

    tail_stream(io.BytesIO(payload), table, spool_dir=spool, num_parts=4,
                batch_rows=300, num_buckets=8)
    got = collect_sorted(read_published(table), ["conv_id", "turn_idx"])
    assert got.equals(replay_oracle(log_dir))
