"""The sink's two executors for ``replay_publish``, ``incremental_apply`` and
``compact_published``: the driver (small inputs) and Ray Data (inputs above
``DRIVER_MAX_BYTES``) must publish the same table, and both must refresh the
TABLE manifest without reloading the bucket manifests."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from odibel_ray.cdc import (
    compact_published,
    incremental_apply,
    read_published,
    replay_publish,
    sink,
)
from odibel_ray.cdc import apply as cdc_apply
from odibel_ray.cdc.apply import bucket_of_conv
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
    Parquet bytes for a replay and for a MOR apply, plus the table's bucket
    files for CoW, and the target buckets' base and delta bytes for a
    compaction. A no-op apply reports the executor it read the log with."""
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
    assert run(table_bytes(True), compact_published, out_dir=out, run_id="c2") == "driver"

    cow = dict(log_dir=full, out_dir=out, mode="cow")
    assert run(log_bytes(full) + table_bytes() - 1, incremental_apply, run_id="w1", **cow) \
        == "ray_data"
    assert run(log_bytes(full) + table_bytes(), incremental_apply, run_id="w2", **cow) \
        == "driver"


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
