"""The sink's two executors for ``replay_publish``, ``incremental_apply``,
``compact_published`` and ``read_published``: the driver (small inputs) and
Ray Data (inputs above ``DRIVER_MAX_BYTES``) must publish the same table and
return the same rows, every write must refresh the TABLE manifest without
reloading the bucket manifests, and a read in the driver starts no Ray Data
execution."""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from odibel_ray.cdc import (
    alter_published,
    compact_published,
    count_published,
    incremental_apply,
    join_published,
    lookup_key,
    publish_dataset,
    read_published,
    replay_publish,
    sink,
)
from odibel_ray.cdc import apply as cdc_apply
from odibel_ray.cdc.apply import bucket_of_conv
from odibel_ray.cdc.ddl import SCHEMA_OPS, load_schema_ops, materialize_ddl
from odibel_ray.cdc.sink import MANIFEST_DIR, TABLE_MANIFEST, load_manifests
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import EXECUTOR_CUTOVERS, collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _logs(small_log, tmp_path):
    """Prefix (half), middle (three quarters) and full change logs."""
    logs = []
    for name, frac in (("prefix", 0.5), ("mid", 0.75)):
        split_log(small_log["log_dir"], str(tmp_path / name), frac=frac)
        logs.append(str(tmp_path / name / "change_log"))
    return logs + [small_log["log_dir"]]


def _table_state(out: str, feed: str | None) -> dict:
    """Everything the two executors must agree on."""
    state = {
        "rows": collect_sorted(read_published(out), KEYS).to_pylist(),
        "manifests": {
            b: (m["file"], m["rows_out"], m["watermarks"], m["key_filter"],
                [(d["file"], d["rows_out"], d["key_filter"]) for d in m.get("deltas", [])])
            for b, m in load_manifests(out).items()
        },
        "files": sorted(f for f in os.listdir(out) if f.endswith(".parquet")),
        "table_manifest": json.load(open(os.path.join(out, TABLE_MANIFEST))),
    }
    if feed:
        files = sorted(glob.glob(os.path.join(feed, "bucket=*", "*.parquet")))
        state["feed_files"] = [os.path.relpath(f, feed) for f in files]
        state["feed_rows"] = [
            pq.read_table(f).sort_by([(k, "ascending") for k in KEYS]).to_pylist()
            for f in files
        ]
    return state


LAYOUTS = {"partitioned": {"partitioned": True}, "hashed": {"num_buckets": 8}}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_replay_executors_publish_identical_tables(ray_session, small_log, oracle_final,
                                                   tmp_path, monkeypatch, layout):
    """A partitioned and a hashed replay, once per executor: each reports
    its executor, and both publish identical rows, data file names, bucket
    manifests (file, rows_out, watermarks, key filters) and TABLE
    manifest."""
    states = {}
    for executor, cutover in EXECUTOR_CUTOVERS.items():
        monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", cutover)
        out = str(tmp_path / executor)
        res = replay_publish(small_log["log_dir"], out, run_id="r1", **LAYOUTS[layout])
        assert res["executor"] == executor
        states[executor] = _table_state(out, None)
    assert states["driver"]["rows"] == oracle_final.to_pylist()
    assert len(states["driver"]["manifests"]) == (small_log["num_parts"]
                                                  if layout == "partitioned" else 8)
    assert states["driver"] == states["ray_data"]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("executor", sorted(EXECUTOR_CUTOVERS))
def test_replay_edge_logs(ray_session, small_log, oracle_final, tmp_path, monkeypatch,
                          executor, layout):
    """Under either executor, a replay skips an empty ``part=<k>`` dir, a
    log dir with no ``part=*`` dir but its schema sidecar publishes zero
    buckets, and one with nothing in it raises what the timeline read
    raises."""
    monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS[executor])
    kw = dict(run_id="r1", **LAYOUTS[layout])

    log = shutil.copytree(small_log["log_dir"], str(tmp_path / "holed"))
    os.makedirs(os.path.join(log, "part=9"))
    res = replay_publish(log, str(tmp_path / "t1"), **kw)
    assert res["executor"] == executor
    assert collect_sorted(read_published(str(tmp_path / "t1")), KEYS).equals(oracle_final)
    want = range(small_log["num_parts"]) if layout == "partitioned" else range(8)
    assert sorted(load_manifests(str(tmp_path / "t1"))) == list(want)

    bare = str(tmp_path / "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(small_log["log_dir"], "_schema_events.parquet"), bare)
    out = str(tmp_path / "t2")
    res = replay_publish(bare, out, **kw)
    assert res["executor"] == executor
    assert (res["published_now"], res["published_total"], res["rows_total"]) == (0, 0, 0)
    assert json.load(open(os.path.join(out, TABLE_MANIFEST)))["buckets"] == []

    os.makedirs(str(tmp_path / "void"))
    with pytest.raises(pa.ArrowInvalid):
        replay_publish(str(tmp_path / "void"), str(tmp_path / "t3"), **kw)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_driver_replay_leaves_arrow_pools_alone(ray_session, small_log, oracle_final,
                                                tmp_path, monkeypatch, layout):
    """A driver replay never caps the driver process's pyarrow thread pools:
    ``limit_arrow_threads`` belongs inside Ray tasks only."""
    monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS["driver"])
    calls = []
    # a core count above any cap, so a leaked limit_arrow_threads would act
    monkeypatch.setattr(pa, "cpu_count", lambda: 64)
    monkeypatch.setattr(pa, "set_cpu_count", lambda n: calls.append(("cpu", n)))
    monkeypatch.setattr(pa, "set_io_thread_count", lambda n: calls.append(("io", n)))
    out = str(tmp_path / "tbl")
    res = replay_publish(small_log["log_dir"], out, run_id="r1", **LAYOUTS[layout])
    assert res["executor"] == "driver"
    assert collect_sorted(read_published(out), KEYS).equals(oracle_final)
    assert calls == []
    cdc_apply.limit_arrow_threads()  # the patch does see a cap
    assert calls == [("cpu", 1), ("io", 2)]


@pytest.mark.parametrize("mode", ["mor", "cow"])
def test_executors_publish_identical_tables(ray_session, small_log, tmp_path, monkeypatch,
                                            mode):
    """Two applies (a feed alongside in copy-on-write) and a compaction, once
    per executor: identical rows, bucket manifests (file, rows_out,
    watermarks, key filters, delta files and their key filters), data and
    feed file names, feed rows and TABLE manifest."""
    prefix, mid, full = _logs(small_log, tmp_path)
    states = {}
    for executor, cutover in EXECUTOR_CUTOVERS.items():
        monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", cutover)
        out = str(tmp_path / executor / "tbl")
        feed = str(tmp_path / executor / "feed") if mode == "cow" else None
        replay_publish(prefix, out, num_buckets=8, run_id="r1")
        steps = []
        for i, log in enumerate((mid, full)):
            res = incremental_apply(log, out, run_id=f"a{i}", mode=mode, feed_dir=feed)
            assert res["executor"] == executor and res["touched"] > 0
            steps.append(_table_state(out, feed))
        res = compact_published(out, run_id="c1")
        assert res["executor"] == (executor if mode == "mor" else None)
        steps.append(_table_state(out, feed))
        states[executor] = steps
    if mode == "mor":
        assert any(deltas for *_, deltas in states["driver"][1]["manifests"].values())
    else:
        assert states["driver"][1]["feed_rows"]
    assert states["driver"] == states["ray_data"]


def test_table_manifest_needs_no_reload(ray_session, small_log, tmp_path, monkeypatch,
                                        sink_executor):
    """A MOR apply, a compaction and a CoW apply each load the bucket
    manifests once, and write the TABLE manifest (and snapshot) a reload
    would give."""
    prefix, mid, full = _logs(small_log, tmp_path)
    out = str(tmp_path / "tbl")
    # retains every version the three ops record, so no expiry sweep runs
    replay_publish(prefix, out, num_buckets=8, run_id="r1", snapshots=5)
    loads = []
    real_load = sink.load_manifests

    def counting_load(out_dir):
        loads.append(out_dir)
        return real_load(out_dir)

    monkeypatch.setattr(sink, "load_manifests", counting_load)
    # a CoW apply reads each touched bucket's base from the manifests it
    # loaded, under either executor
    ops = [(1, lambda: incremental_apply(mid, out, run_id="m1", mode="mor")),
           (1, lambda: compact_published(out, run_id="c1")),
           (1, lambda: incremental_apply(full, out, run_id="w1", mode="cow"))]
    for n_loads, op in ops:
        loads.clear()
        res = op()
        assert res["executor"] == sink_executor
        assert len(loads) == n_loads
        reloaded = real_load(out)
        tman = json.load(open(os.path.join(out, TABLE_MANIFEST)))
        assert tman == dict(
            tman,
            buckets=sorted(reloaded),
            rows_total=sum(m["rows_out"] for m in reloaded.values()),
            mor_deltas=sum(len(m.get("deltas", [])) for m in reloaded.values()),
        )
        snap = json.load(open(sink._snapshot_path(out, res["snapshot"])))
        assert snap["buckets"] == {str(b): m for b, m in reloaded.items()}


def test_executor_follows_the_size_cutover(ray_session, small_log, tmp_path, monkeypatch):
    """The driver runs at or below ``DRIVER_MAX_BYTES`` of input: the log's
    Parquet bytes for a replay and for a MOR apply, plus, for CoW, the
    bucket files of the buckets the log's keys route to, the target
    buckets' base and delta bytes for a compaction, and the bytes of the
    files a read opens after routing. A no-op apply reports the executor it
    read the log with."""
    prefix, mid, full = _logs(small_log, tmp_path)

    def log_bytes(log):
        return sum(os.path.getsize(f) for f in glob.glob(os.path.join(log, "part=*", "*.parquet")))

    def run(cutover, fn, **kw):
        monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", cutover)
        return fn(**kw)["executor"]

    for name, kw in (("part", {"partitioned": True}), ("tbl", {"num_buckets": 8})):
        assert run(log_bytes(prefix) - 1, replay_publish, log_dir=prefix,
                   out_dir=str(tmp_path / f"{name}-rd"), run_id="r1", **kw) == "ray_data"
        assert run(log_bytes(prefix), replay_publish, log_dir=prefix,
                   out_dir=str(tmp_path / name), run_id="r1", **kw) == "driver"
    out = str(tmp_path / "tbl")  # the hashed driver replay's table

    def table_bytes(deltas_only=False):
        files = [f for m in load_manifests(out).values() if m.get("deltas") or not deltas_only
                 for f in [m["file"], *(d["file"] for d in m.get("deltas", []))]]
        return sum(os.path.getsize(os.path.join(out, f)) for f in files)

    mid_apply = dict(log_dir=mid, out_dir=out, mode="mor")
    assert run(log_bytes(mid) - 1, incremental_apply, run_id="m1", **mid_apply) == "ray_data"
    assert run(log_bytes(mid), incremental_apply, run_id="m2", **mid_apply) == "driver"
    assert run(table_bytes(True) - 1, compact_published, out_dir=out, run_id="c1") == "ray_data"

    assert run(log_bytes(full), incremental_apply, log_dir=full, out_dir=out, run_id="m3",
               mode="mor") == "driver"

    # a routed scan weighs only the files it opens, deltas included, not
    # the table's
    convs = sorted(set(read_published(out, columns=["conv_id"]).to_pandas()["conv_id"]))
    where = [("conv_id", "in", convs[::len(convs) // 3][:3])]
    chosen = []
    real = sink._executor_for

    def scan(cutover):
        monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", cutover)
        chosen.clear()
        stats = {}
        with monkeypatch.context() as m:
            m.setattr(sink, "_executor_for",
                      lambda paths: chosen.append((list(paths), real(paths))) or chosen[-1][1])
            read_published(out, where=where, prune_stats=stats).count()
        (paths, executor), = chosen
        assert len(paths) == stats["files_read"] < stats["files_total"]
        return sum(os.path.getsize(p) for p in paths), executor

    scan_bytes, _ = scan(1 << 62)
    assert scan_bytes < table_bytes()
    assert scan(scan_bytes - 1) == (scan_bytes, "ray_data")
    assert scan(scan_bytes) == (scan_bytes, "driver")

    assert run(table_bytes(True), compact_published, out_dir=out, run_id="c2") == "driver"

    def routed_bytes(log):
        """Bytes of the buckets of ``out`` that ``log``'s keys hash to."""
        conv = pc.drop_null(pads.dataset(log, format="parquet", partitioning="hive")
                            .to_table(columns=["conv_id"])["conv_id"])
        routed = set(bucket_of_conv(conv.to_numpy(zero_copy_only=False), 8).tolist())
        return sum(os.path.getsize(os.path.join(out, f))
                   for b, m in load_manifests(out).items() if b in routed
                   for f in [m["file"], *(d["file"] for d in m.get("deltas", []))])

    cow = dict(log_dir=full, out_dir=out, mode="cow")
    assert run(log_bytes(full) + routed_bytes(full) - 1, incremental_apply, run_id="w1",
               **cow) == "ray_data"
    assert run(log_bytes(full) + routed_bytes(full), incremental_apply, run_id="w2",
               **cow) == "driver"

    # a CoW apply whose events touch one bucket weighs that bucket, not the
    # table: it takes the driver below the log plus the whole table
    one = _log_touching(full, str(tmp_path / "one"), -1, {3}, 8)
    assert 0 < routed_bytes(one) < table_bytes()
    assert run(log_bytes(one) + routed_bytes(one), incremental_apply, log_dir=one, out_dir=out,
               run_id="w3", mode="cow") == "driver"
    assert run(log_bytes(one) + routed_bytes(one) - 1, incremental_apply, log_dir=one,
               out_dir=out, run_id="w4", mode="cow") == "ray_data"


def test_driver_cow_apply_reads_each_log_file_once(ray_session, small_log, oracle_final,
                                                   tmp_path, monkeypatch):
    """A driver copy-on-write apply on a hashed table reads each WAL file
    once: the executor sizing (the log's keys route it to buckets) and the
    apply share one read of the log."""
    prefix, _, full = _logs(small_log, tmp_path)
    monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS["driver"])
    out = str(tmp_path / "tbl")
    replay_publish(prefix, out, num_buckets=8, run_id="r1")
    log_files = sorted(glob.glob(os.path.join(full, "part=*", "*.parquet")))
    reads = dict.fromkeys(log_files, 0)
    real = pq.read_table

    def counted(source, *a, **k):
        if source in reads:
            reads[source] += 1
        return real(source, *a, **k)

    class CountedFile(pq.ParquetFile):  # a read through its own ParquetFile
        def __init__(self, source, *a, **k):
            if source in reads:
                reads[source] += 1
            super().__init__(source, *a, **k)

    with monkeypatch.context() as m:
        m.setattr(pq, "read_table", counted)
        m.setattr(pq, "ParquetFile", CountedFile)
        res = incremental_apply(full, out, run_id="w1", mode="cow")
    assert res["executor"] == "driver" and res["touched"] > 0
    assert log_files and reads == dict.fromkeys(log_files, 1)
    assert collect_sorted(read_published(out), KEYS).equals(oracle_final)


def _log_touching(log_dir: str, out: str, cutoff: int, buckets: set[int],
                  num_buckets: int) -> str:
    """``log_dir`` cut to its events at or below ``cutoff``, its schema
    events, and the later events of conversations that hash to
    ``buckets``. Returns the new log directory."""
    t = pads.dataset(log_dir, format="parquet", partitioning="hive").to_table()
    conv = t["conv_id"].fill_null("").to_numpy(zero_copy_only=False)
    keep = (pc.less_equal(t["lsn"], cutoff).to_numpy(zero_copy_only=False)
            | (t["op"].to_numpy(zero_copy_only=False) == "S")
            | np.isin(bucket_of_conv(conv, num_buckets), sorted(buckets)))
    t = t.filter(keep)
    log = os.path.join(out, "change_log")
    for p in pc.unique(t["part"]).to_pylist():
        os.makedirs(os.path.join(log, f"part={p}"))
        part = t.filter(pc.equal(t["part"], p)).sort_by("lsn").drop(["part"])
        pq.write_table(part, os.path.join(log, f"part={p}", "log-00000.parquet"))
    side = os.path.join(log_dir, "_schema_events.parquet")
    if os.path.exists(side):
        shutil.copy(side, log)
    return log


@pytest.mark.parametrize("with_feed", [False, True], ids=["plain", "feed"])
def test_ray_data_cow_apply_reads_only_touched_buckets(ray_session, small_log, tmp_path,
                                                       monkeypatch, with_feed):
    """A Ray Data copy-on-write apply whose events touch at most half of an
    8-bucket table reads only those buckets' bases: it never scans the
    table, converges to the replay oracle, and leaves every untouched
    bucket's manifest byte for byte as it was."""
    cutoff = split_log(small_log["log_dir"], str(tmp_path / "prefix"), frac=0.5)
    out = str(tmp_path / "tbl")
    replay_publish(str(tmp_path / "prefix" / "change_log"), out, num_buckets=8, run_id="r1")
    chosen = {1, 4, 6}
    log = _log_touching(small_log["log_dir"], str(tmp_path / "log2"), cutoff, chosen, 8)

    def manifest_bytes():
        mdir = os.path.join(out, MANIFEST_DIR)
        return {f: open(os.path.join(mdir, f), "rb").read() for f in sorted(os.listdir(mdir))}

    before = manifest_bytes()
    assert len(before) == 8
    feed = str(tmp_path / "feed") if with_feed else None
    with monkeypatch.context() as m:
        m.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS["ray_data"])

        def no_scan(*a, **k):
            raise AssertionError("the apply scanned the whole table")

        m.setattr(sink, "read_published", no_scan)
        res = incremental_apply(log, out, run_id="a1", mode="cow", feed_dir=feed)
    assert res["executor"] == "ray_data" and 0 < res["touched"] <= len(chosen)
    after = manifest_bytes()
    changed = {f for f in before if after[f] != before[f]}
    assert len(changed) == res["touched"]
    assert {int(f.split("-")[1].split(".")[0]) for f in changed} <= chosen
    assert collect_sorted(read_published(out), KEYS).equals(replay_oracle(log))
    if with_feed:
        fed = {int(d.split("=")[1]) for d in os.listdir(feed)}
        assert fed and fed <= chosen


def _mor_table(small_log, tmp_path, **layout) -> str:
    """Half the log replayed (snapshots kept), the whole log applied on top
    in merge-on-read mode."""
    split_log(small_log["log_dir"], str(tmp_path / "prefix"), frac=0.5)
    out = str(tmp_path / "tbl")
    replay_publish(str(tmp_path / "prefix" / "change_log"), out, run_id="r1", snapshots=3,
                   **layout)
    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")
    assert any(m.get("deltas") for m in load_manifests(out).values())
    return out


def _some_convs(out: str, n: int = 8) -> list[str]:
    """``n`` conversations spread over the table's bases."""
    convs = sorted({c for m in load_manifests(out).values()
                    for c in pq.read_table(os.path.join(out, m["file"]),
                                           columns=["conv_id"])["conv_id"].to_pylist()})
    return convs[::len(convs) // n][:n]


def _generic_table(tmp_path) -> str:
    """A 4-bucket generic table with a pending rename, add and widen."""
    t = pa.table({"k": [f"k{i:03d}" for i in range(40)],
                  "v": pa.array(range(40), pa.int32()),
                  "label": [("a", "b", "c")[i % 3] for i in range(40)]})
    out = str(tmp_path / "gen")
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=4, run_id="p1")
    alter_published(out, rename={"v": "value"}, add={"note": "string"})
    alter_published(out, widen={"value": "int64"})
    return out


def _flip_some_buckets(out: str, monkeypatch) -> None:
    """Leave ``out`` as a crash inside ``materialize_ddl`` would: the op log
    stamped with the rewrite's run, every bucket but the first flipped."""
    before = load_manifests(out)
    stamped = {"ops": load_schema_ops(out), "materialized_run": "rwX-g0"}
    with monkeypatch.context() as m:
        m.setattr(sink, "_sweep_bucket_versions", lambda *a, **k: None)
        materialize_ddl(out, run_id="rwX")
    with open(os.path.join(out, SCHEMA_OPS), "w") as f:
        json.dump(stamped, f)
    rolled = min(before)
    mdir = os.path.join(out, MANIFEST_DIR)
    (name,) = [f for f in os.listdir(mdir) if f.startswith(f"bucket-{rolled:06d}")]
    with open(os.path.join(mdir, name), "w") as f:
        json.dump(before[rolled], f)


def _scan_case(case: str, small_log, tmp_path, monkeypatch) -> tuple[str, list[dict]]:
    """A table and the reads of one scan-equivalence case."""
    if case in ("partitioned", "hashed"):
        out = _mor_table(small_log, tmp_path, **LAYOUTS[case])
        keys = _some_convs(out)
        return out, [{}, {"where": [("conv_id", "in", keys)]},
                     {"where": [("turn_idx", ">", 3), ("role", "==", "user")]}]
    if case == "superseded":
        out = _mor_table(small_log, tmp_path, **LAYOUTS["hashed"])
        merged = {(r["conv_id"], r["turn_idx"]): r["text"]
                  for r in read_published(out, columns=[*KEYS, "text"]).take_all()}
        stale = next(r for m in load_manifests(out).values() if m.get("deltas")
                     for r in pq.read_table(os.path.join(out, m["file"]),
                                            columns=[*KEYS, "text"]).to_pylist()
                     if r["text"] is not None and merged.get((r["conv_id"], r["turn_idx"]))
                     != r["text"])
        return out, [{"where": [("text", "==", stale["text"])]},
                     {"where": [("conv_id", "==", stale["conv_id"]),
                                ("turn_idx", "==", stale["turn_idx"]),
                                ("text", "==", stale["text"])]}]
    if case == "nothing":
        out = _mor_table(small_log, tmp_path, **LAYOUTS["hashed"])
        # pruned to no file by the key filters, by the footers, or opened
        return out, [{"where": [("conv_id", "==", "no-such-conv")]},
                     {"where": [("turn_idx", "<", -1)]},
                     {"where": [("turn_idx", "<", -1)], "columns": ["text"]},
                     {"where": [("role", "==", "nobody")]}]
    if case == "columns_system":
        out = _mor_table(small_log, tmp_path, **LAYOUTS["hashed"])
        keys = _some_convs(out)
        return out, [{"system": True}, {"system": True, "where": [("conv_id", "in", keys)]},
                     {"columns": ["text", "conv_id"], "where": [("role", "==", "user")]},
                     {"columns": ["turn_idx", "_lsn"],
                      "where": [("conv_id", "in", keys), ("score", ">=", 0.5)]}]
    if case == "version":
        out = _mor_table(small_log, tmp_path, **LAYOUTS["hashed"])
        keys = _some_convs(out)
        v0 = sink.list_snapshots(out)[0]["version"]
        return out, [{"version": v0}, {"version": v0, "where": [("conv_id", "in", keys)]}]
    out = _generic_table(tmp_path)
    reads = [{}, {"where": [("value", ">=", 20)]}, {"where": [("k", "in", ["k001", "k017"])]},
             {"columns": ["note", "k"]}, {"where": [("note", "is_null")]},
             {"where": [("note", "==", "x")]}, {"where": [("label", "!=", "a")]}]
    if case == "flipped":
        _flip_some_buckets(out, monkeypatch)
        reads.append({"where": [("value", "not_in", [1, 2, 3])], "columns": ["k", "value"]})
    return out, reads


def _scan(out: str, kw: dict, executor: str, monkeypatch) -> dict:
    """``read_published(out, **kw)`` with the cutover forced to ``executor``,
    from a cold table cache: rows, schema, blocks and prune stats."""
    chosen = []
    with monkeypatch.context() as m:
        m.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS[executor])
        real = sink._executor_for
        m.setattr(sink, "_executor_for", lambda paths: chosen.append(real(paths)) or chosen[-1])
        sink._TABLES.clear()
        stats = {}
        blocks = ray.get(read_published(out, prune_stats=stats, **kw).to_arrow_refs())
    # a read that opens a file picks its executor once; one in the driver
    # returns one block
    assert chosen == ([executor] if stats["files_read"] else [])
    if executor == "driver":
        assert len(blocks) == 1
    t = pa.concat_tables(blocks)
    return {"schema": [(f.name, str(f.type)) for f in t.schema],
            "rows": sorted(t.to_pylist(), key=lambda r: json.dumps(r, sort_keys=True, default=str)),
            "prune_stats": stats, "blocks": None if chosen else len(blocks)}


SCAN_CASES = ["partitioned", "hashed", "superseded", "nothing", "columns_system",
              "pending_ddl", "version", "flipped"]


@pytest.mark.parametrize("case", SCAN_CASES)
def test_scan_executors_return_identical_rows(ray_session, small_log, tmp_path, monkeypatch,
                                              case):
    """Every read of each case returns the same rows, schema (column order
    and types) and prune stats through both executors: MOR tables of both
    layouts, a non-key ``where`` that only a superseded base row matches,
    reads that match nothing (one typed block), ``columns=`` and
    ``system=True``, a pending rename, add and widen, ``version=`` and a
    table some of whose buckets an in-flight ``materialize_ddl`` flipped."""
    out, reads = _scan_case(case, small_log, tmp_path, monkeypatch)
    for kw in reads:
        got = {ex: _scan(out, kw, ex, monkeypatch) for ex in sorted(EXECUTOR_CUTOVERS)}
        assert got["driver"] == got["ray_data"], kw
        if case == "nothing":
            assert got["driver"]["rows"] == []
            assert got["driver"]["blocks"] in (1, None)  # one typed block when pruned
    if case == "superseded":
        # the stale base row opens its bucket, and the merge drops it
        stale, both = [_scan(out, kw, "driver", monkeypatch) for kw in reads]
        assert both["rows"] == [] and both["prune_stats"]["files_read"] > 0
        key = tuple(v for _, _, v in reads[1]["where"][:2])
        assert key not in {(r["conv_id"], r["turn_idx"]) for r in stale["rows"]}


@pytest.fixture()
def executions(monkeypatch) -> list[str]:
    """Every Ray Data plan execution started: calls of ``ExecutionPlan``'s
    ``execute``, ``execute_to_iterator`` and ``create_executor``."""
    from ray.data._internal.plan import ExecutionPlan

    calls = []
    for attr in ("execute", "execute_to_iterator", "create_executor"):
        real = getattr(ExecutionPlan, attr)

        def counted(*a, _real=real, _attr=attr, **k):
            calls.append(_attr)
            return _real(*a, **k)

        monkeypatch.setattr(ExecutionPlan, attr, counted)
    return calls


def test_driver_reads_start_no_ray_data_execution(ray_session, small_log, tmp_path, monkeypatch,
                                                  executions):
    """At or below the cutover, a routed ``read_published(...).count()`` and a
    ``count_published(where=)`` start no Ray Data execution; above it they
    do. A ``lookup_key`` never starts one."""
    out = _mor_table(small_log, tmp_path, **LAYOUTS["hashed"])
    keys = _some_convs(out)
    where = [("conv_id", "in", keys)]
    counts = {}
    for executor, cutover in sorted(EXECUTOR_CUTOVERS.items()):
        monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", cutover)
        executions.clear()
        counts[executor] = (read_published(out, where=where).count(),
                            count_published(out, where=where))
        assert bool(executions) == (executor == "ray_data"), executions
        executions.clear()
        assert len(lookup_key(out, keys[0])) > 0
        assert executions == []
    assert counts["driver"] == counts["ray_data"] and counts["driver"][0] > 0


class _Killed(Exception):
    pass


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_replay_commits_without_reload(ray_session, small_log, oracle_final, tmp_path,
                                       monkeypatch, sink_executor, layout):
    """A fresh replay and one killed after two bucket publishes, then
    resumed, each load the bucket manifests once, at the start. Both write
    the TABLE manifest and snapshot a reload gives, and the resumed run's
    TABLE manifest keeps the buckets the killed run published."""
    loads = []
    real_load = sink.load_manifests
    monkeypatch.setattr(sink, "load_manifests", lambda d: loads.append(d) or real_load(d))
    kw = dict(run_id="r1", **LAYOUTS[layout])

    def check(out: str, res: dict) -> dict:
        assert res["executor"] == sink_executor
        assert len(loads) == 1
        reloaded = real_load(out)
        tman = json.load(open(os.path.join(out, TABLE_MANIFEST)))
        assert tman == dict(
            tman,
            buckets=sorted(reloaded),
            rows_total=sum(m["rows_out"] for m in reloaded.values()),
            mor_deltas=0,
        )
        snap = json.load(open(sink._snapshot_path(out, res["snapshot"])))
        assert snap["buckets"] == {str(b): m for b, m in reloaded.items()}
        assert collect_sorted(read_published(out), KEYS).equals(oracle_final)
        return tman

    fresh = str(tmp_path / "fresh")
    sink.enable_snapshots(fresh, keep_last=3)
    loads.clear()
    want = check(fresh, replay_publish(small_log["log_dir"], fresh, **kw))

    out = str(tmp_path / "resumed")
    sink.enable_snapshots(out, keep_last=3)
    real_publish = sink._publish_base_row
    published = []

    def dying_publish(*a, **k):
        if len(published) == 2:
            raise _Killed
        published.append(real_publish(*a, **k))
        return published[-1]

    with monkeypatch.context() as m:
        m.setattr(sink, "_publish_base_row", dying_publish)
        with pytest.raises(_Killed):
            replay_publish(small_log["log_dir"], out, **kw)
    assert len(real_load(out)) == 2
    loads.clear()
    res = replay_publish(small_log["log_dir"], out, **kw)
    assert res["published_now"] == res["published_total"] - 2
    assert check(out, res) == want


def test_ddl_rewrite_and_join_follow_the_cutover(ray_session, tmp_path, sink_executor,
                                                 executions):
    """``materialize_ddl`` and ``join_published`` pick their executor by the
    size cutover: the rewrite reports it, and a driver join starts no Ray
    Data execution and returns one block. Both executors give the rows a
    pandas merge of the two tables gives."""
    left = _generic_table(tmp_path)
    res = materialize_ddl(left, run_id="rw")
    assert res["executor"] == sink_executor and res["materialized"] == 4
    right = str(tmp_path / "right")
    publish_dataset(rd.from_arrow(pa.table({"k": [f"k{i:03d}" for i in range(0, 60, 3)],
                                            "w": list(range(20))})),
                    right, key_cols=["k"], num_buckets=4, run_id="p1")
    executions.clear()
    joined = join_published(left, right, how="left_outer")
    n = joined.count()
    assert bool(executions) == (sink_executor == "ray_data"), executions
    if sink_executor == "driver":
        assert joined.num_blocks() == 1
    got = joined.to_pandas().sort_values("k").reset_index(drop=True)
    want = read_published(left).to_pandas().merge(
        read_published(right).to_pandas(), on="k", how="left").sort_values("k")
    assert n == 40
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True), check_dtype=False)
