"""Merge-on-read incremental apply: delta staging, reader merge, compaction,
tombstones, crash-resume idempotence, vacuum of orphan deltas.

The MOR path is the write-amplification complement of the copy-on-write
incremental (`test_sink_resume.py::test_incremental_apply_converges`): a run
stages only its compacted new events per bucket and the reader LWW-merges
base ∪ deltas, so every test here pins the merged read against the same
from-scratch replay oracle the CoW path uses."""

import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from odibel_ray.cdc import (
    compact_published,
    incremental_apply,
    read_published,
    replay_publish,
    sink,
)
from odibel_ray.cdc.sink import TABLE_MANIFEST, load_manifests, lookup_key, vacuum
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _published_table(out_dir):
    return collect_sorted(read_published(out_dir), KEYS)


def _mor_base(small_log, tmp_path, frac=0.5, num_buckets=8):
    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=frac)
    out = str(tmp_path / "tbl")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=num_buckets, run_id="r1")
    return out, os.path.join(prefix, "change_log")


def test_mor_apply_converges_and_stacks_deltas(ray_session, small_log, oracle_final, tmp_path):
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    mid = str(tmp_path / "mid")
    split_log(small_log["log_dir"], mid, frac=0.75)

    res1 = incremental_apply(os.path.join(mid, "change_log"), out, run_id="m1", mode="mor")
    assert res1["touched"] > 0 and res1["deltas_total"] > 0
    mid_oracle = replay_oracle(os.path.join(mid, "change_log"))
    assert _published_table(out).equals(mid_oracle)

    res2 = incremental_apply(small_log["log_dir"], out, run_id="m2", mode="mor")
    assert res2["deltas_total"] > res1["deltas_total"]
    manifests = load_manifests(out)
    assert any(len(m.get("deltas", [])) >= 2 for m in manifests.values())
    assert _published_table(out).equals(oracle_final)

    # no base file was rewritten by either MOR run (the whole point)
    assert all(m["run_id"] == "r1" for m in manifests.values())
    # re-running is a watermark-filtered no-op: it records no version and
    # leaves the TABLE manifest as it was
    sink.enable_snapshots(out, keep_last=3)
    versions = sink.list_snapshots(out)
    tman = open(os.path.join(out, TABLE_MANIFEST), "rb").read()
    res3 = incremental_apply(small_log["log_dir"], out, run_id="m3", mode="mor")
    assert res3["touched"] == 0
    assert res3["snapshot"] is None and sink.list_snapshots(out) == versions
    assert open(os.path.join(out, TABLE_MANIFEST), "rb").read() == tman
    assert _published_table(out).equals(oracle_final)


def test_mor_tombstone_shadows_base(ray_session, small_log, oracle_final, tmp_path):
    """A key deleted after the base publish must vanish from the merged read
    even though its base row is still physically present in the bucket file."""
    out, prefix_log = _mor_base(small_log, tmp_path, frac=0.5)
    prefix_oracle = replay_oracle(prefix_log)
    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")

    final_keys = {
        (c, t)
        for c, t in zip(
            oracle_final["conv_id"].to_pylist(), oracle_final["turn_idx"].to_pylist()
        )
    }
    deleted = [
        (c, t)
        for c, t in zip(
            prefix_oracle["conv_id"].to_pylist(), prefix_oracle["turn_idx"].to_pylist()
        )
        if (c, t) not in final_keys
    ]
    assert deleted, "fixture must delete at least one prefix key in the suffix"
    conv, turn = deleted[0]
    got = lookup_key(out, conv, turn_idx=int(turn))
    assert len(got) == 0
    merged = _published_table(out)
    assert merged.equals(oracle_final)


def test_lookup_key_merges_deltas(ray_session, small_log, oracle_final, tmp_path):
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")
    import pyarrow.compute as pc

    conv = oracle_final["conv_id"][0].as_py()
    expect = oracle_final.filter(pc.equal(oracle_final["conv_id"], conv))
    got = lookup_key(out, conv)
    assert len(got) == len(expect)
    got_cols = lookup_key(out, conv, columns=["conv_id", "turn_idx", "text"])
    assert got_cols.column_names == ["conv_id", "turn_idx", "text"]
    assert len(got_cols) == len(expect)


def test_compact_published_folds_deltas(ray_session, small_log, oracle_final, tmp_path):
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    mid = str(tmp_path / "mid")
    split_log(small_log["log_dir"], mid, frac=0.75)
    incremental_apply(os.path.join(mid, "change_log"), out, run_id="m1", mode="mor")
    incremental_apply(small_log["log_dir"], out, run_id="m2", mode="mor")

    res = compact_published(out, run_id="c1")
    assert res["compacted"] > 0 and res["deltas_total"] == 0
    manifests = load_manifests(out)
    assert all(not m.get("deltas") for m in manifests.values())
    assert not [f for f in os.listdir(out) if f.startswith("delta-")]
    assert _published_table(out).equals(oracle_final)
    # table manifest's logical row count is exact again after compaction
    tman = json.load(open(os.path.join(out, TABLE_MANIFEST)))
    assert tman["rows_total"] == oracle_final.num_rows
    # idempotent: nothing left to compact
    res2 = compact_published(out, run_id="c2")
    assert res2["compacted"] == 0
    # a later incremental over the compacted table still converges
    res3 = incremental_apply(small_log["log_dir"], out, run_id="m3", mode="mor")
    assert res3["touched"] == 0


def test_mor_new_bucket_writes_base(ray_session, small_log, oracle_final, tmp_path):
    """Events for a bucket with no published base yet degenerate to an
    ordinary base write (a delta with nothing to merge under it would strand
    tombstones and break the reader's base-column layout)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from odibel_ray.cdc.apply import bucket_of_conv

    # base log: only conversations hashing to buckets 0..3 of 8 (S events kept
    # for the schema timeline); the full log then introduces buckets 4..7
    src = small_log["log_dir"]
    filtered = str(tmp_path / "filtered" / "change_log")
    for entry in os.listdir(src):
        src_p = os.path.join(src, entry)
        dst_p = os.path.join(filtered, entry)
        if entry.startswith("part="):
            os.makedirs(dst_p, exist_ok=True)
            for fn in os.listdir(src_p):
                t = pq_.read_table(os.path.join(src_p, fn))
                conv = t["conv_id"].to_numpy(zero_copy_only=False)
                null = conv == None  # noqa: E711 (S/malformed rows stay)
                buckets = bucket_of_conv(np.where(null, "", conv), 8)
                keep = null | (buckets < 4)
                pq_.write_table(t.filter(pa.array(keep)), os.path.join(dst_p, fn))
        else:
            os.makedirs(filtered, exist_ok=True)
            import shutil

            shutil.copyfile(src_p, dst_p)

    out = str(tmp_path / "tbl")
    replay_publish(filtered, out, num_buckets=8, run_id="r1")
    base_buckets = set(load_manifests(out))
    assert base_buckets == {0, 1, 2, 3}

    res = incremental_apply(src, out, run_id="m1", mode="mor")
    assert res["published_total"] == 8
    manifests = load_manifests(out)
    for b, m in manifests.items():
        if b in base_buckets:
            assert m["run_id"] == "r1"  # base untouched, delta appended
        else:
            assert m["run_id"] == "m1" and not m.get("deltas")
            assert m["file"].startswith("part-")
    assert _published_table(out).equals(oracle_final)


MOR_KILL_SCRIPT = r"""
import sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from odibel_ray.cdc import incremental_apply, sink
sink.DRIVER_MAX_BYTES = int(sys.argv[3])  # the calling test's executor cutover
incremental_apply(sys.argv[1], sys.argv[2], run_id="victim", mode="mor")
"""


def test_mor_kill_resume_exactly_once(ray_session, small_log, oracle_final, tmp_path):
    """SIGKILL a MOR apply mid-publish; the resume must converge with no
    duplicate delta descriptors and at most one delta per bucket (the victim's
    published buckets are watermark-filtered out of the resume)."""
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    env = dict(
        os.environ,
        ODIBEL_TEST_PUBLISH_DELAY="1.0",
        RAY_ADDRESS="local",
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", MOR_KILL_SCRIPT, small_log["log_dir"], out,
         str(sink.DRIVER_MAX_BYTES)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    victim_published = False
    while time.time() < deadline:
        if any(m.get("deltas") for m in load_manifests(out).values()):
            victim_published = True
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait()

    res = incremental_apply(small_log["log_dir"], out, run_id="resume", mode="mor")
    manifests = load_manifests(out)
    for m in manifests.values():
        deltas = m.get("deltas", [])
        files = [d["file"] for d in deltas]
        assert len(files) == len(set(files))
        assert len(deltas) <= 1
    assert _published_table(out).equals(oracle_final)
    if victim_published:
        # at least one bucket survived from the killed run
        assert any(
            d["run_id"] == "victim"
            for m in manifests.values()
            for d in m.get("deltas", [])
        )
    # converged: nothing further to apply
    res2 = incremental_apply(small_log["log_dir"], out, run_id="again", mode="mor")
    assert res2["touched"] == 0
    assert res["published_now"] >= 0


def test_vacuum_removes_orphan_deltas(ray_session, small_log, tmp_path):
    import shutil

    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")
    live = [f for f in os.listdir(out) if f.startswith("delta-")]
    assert live
    orphan = os.path.join(out, "delta-000000-deadbeefdeadbeef.parquet")
    shutil.copyfile(os.path.join(out, live[0]), orphan)
    removed = vacuum(out)
    assert not os.path.exists(orphan)
    assert removed["orphan_files"] >= 1
    for f in live:
        assert os.path.exists(os.path.join(out, f))


def test_cow_on_top_of_mor_folds_deltas(ray_session, small_log, oracle_final, tmp_path):
    """A copy-on-write incremental over a MOR table reads the merged state and
    its per-bucket rewrite clears the folded deltas (fresh manifest, files
    swept)."""
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    mid = str(tmp_path / "mid")
    split_log(small_log["log_dir"], mid, frac=0.75)
    incremental_apply(os.path.join(mid, "change_log"), out, run_id="m1", mode="mor")
    res = incremental_apply(small_log["log_dir"], out, run_id="c1", mode="cow")
    assert res["touched"] > 0
    manifests = load_manifests(out)
    for m in manifests.values():
        if m["run_id"] == "c1":
            assert not m.get("deltas")
    touched_cow = {b for b, m in manifests.items() if m["run_id"] == "c1"}
    for f in os.listdir(out):
        if f.startswith("delta-"):
            assert int(f.split("-")[1]) not in touched_cow
    assert _published_table(out).equals(oracle_final)


def test_tail_log_mor_with_periodic_compaction(ray_session, small_log, oracle_final, tmp_path):
    """The tailer's natural MOR shape: bootstrap from a prefix, tail the full
    log as merge-on-read deltas, compact on the configured cadence — the
    table converges to the replay oracle and ends delta-free."""
    import shutil

    from odibel_ray.cdc.tail import tail_log

    live = str(tmp_path / "live_log")
    split_log(small_log["log_dir"], str(tmp_path / "pfx"), frac=0.5)
    shutil.copytree(os.path.join(str(tmp_path / "pfx"), "change_log"), live)
    out = str(tmp_path / "tbl")
    tail_log(live, out, max_rounds=2, mode="mor", compact_every=1)

    shutil.rmtree(live)
    shutil.copytree(small_log["log_dir"], live)
    res = tail_log(live, out, max_rounds=4, stop_when_idle=1, mode="mor", compact_every=1)
    assert res["compactions"] >= 1
    manifests = load_manifests(out)
    assert all(not m.get("deltas") for m in manifests.values())
    assert _published_table(out).equals(oracle_final)


def test_tail_stream_mor_compacts_at_end(ray_session, tmp_path):
    import io

    from odibel_ray.oracle import replay_oracle
    from odibel_ray.sources.stream import tail_stream
    from tests.test_stream_source import _fixture_log, _jsonl_from_log

    log_dir, n_events = _fixture_log(tmp_path)
    payload = _jsonl_from_log(log_dir)
    spool = str(tmp_path / "spool")
    out = str(tmp_path / "tbl")
    res = tail_stream(
        io.BytesIO(payload), out, spool_dir=spool, num_parts=4,
        batch_rows=150, num_buckets=8, mode="mor", compact_every=2,
    )
    assert res["n_events"] == n_events
    assert res["applies"] >= 2 and res["compactions"] >= 1
    manifests = load_manifests(out)
    assert all(not m.get("deltas") for m in manifests.values())
    got = collect_sorted(read_published(out), KEYS)
    want = replay_oracle(spool + "_applied")
    assert got.equals(want)


def test_mor_rejects_feed_dir(ray_session, small_log, tmp_path):
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    with pytest.raises(ValueError, match="cow"):
        incremental_apply(
            small_log["log_dir"], out, run_id="x", mode="mor", feed_dir=str(tmp_path / "feed")
        )
    with pytest.raises(ValueError, match="mode"):
        incremental_apply(small_log["log_dir"], out, run_id="x", mode="nope")


def test_table_lock_blocks_live_writer_and_reclaims_dead(ray_session, small_log, tmp_path):
    """Single-writer enforcement: a second writer fails fast while the
    holder's pid is alive, reclaims instantly once it's dead (the SIGKILL
    resume story), and reclaims by TTL for cross-host locks."""
    import socket
    import subprocess
    import sys as _sys

    from odibel_ray.cdc import ConcurrentWriterError, table_lock

    out, _ = _mor_base(small_log, tmp_path, frac=0.5)

    # a live foreign holder (real process so the pid-liveness probe is honest)
    holder = subprocess.Popen([_sys.executable, "-c", "import time; time.sleep(60)"])
    lock_path = os.path.join(out, "_LOCK.json")
    with open(lock_path, "w") as f:
        json.dump({"owner": "other", "pid": holder.pid,
                   "host": socket.gethostname(), "ttl_s": 3600}, f)
    with pytest.raises(ConcurrentWriterError, match="other"):
        incremental_apply(small_log["log_dir"], out, run_id="blocked", mode="mor")

    # holder dies -> same-host pid probe reclaims immediately
    holder.kill()
    holder.wait()
    res = incremental_apply(small_log["log_dir"], out, run_id="reclaim", mode="mor")
    assert res["touched"] > 0
    assert not os.path.exists(lock_path)  # released after the op

    # cross-host lock (pid probe not trusted): blocks until TTL expires
    with open(lock_path, "w") as f:
        json.dump({"owner": "remote", "pid": 1, "host": "elsewhere", "ttl_s": 3600}, f)
    with pytest.raises(ConcurrentWriterError):
        compact_published(out, run_id="blocked2")
    old = time.time() - 7200
    os.utime(lock_path, (old, old))
    res = compact_published(out, run_id="c-ttl")
    assert res["compacted"] >= 1
    assert not os.path.exists(lock_path)

    # context-manager reentry from a second lock object fails while held
    with table_lock(out, owner="a"):
        with pytest.raises(ConcurrentWriterError):
            table_lock(out, owner="b").acquire()
    # released cleanly on exit
    with table_lock(out, owner="c"):
        pass


def test_table_stats_reports_delta_backlog(ray_session, small_log, tmp_path):
    from odibel_ray.cdc.sink import table_stats

    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    s0 = table_stats(out)
    assert s0["deltas_total"] == 0 and s0["rows_delta"] == 0
    assert s0["published_buckets"] == 8 and s0["rows_base"] > 0
    assert s0["bytes_base"] > 0 and s0["bucket_skew_max_over_mean"] >= 1.0

    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")
    s1 = table_stats(out)
    assert s1["deltas_total"] > 0 and s1["rows_delta"] > 0
    assert s1["buckets_with_deltas"] > 0 and s1["bytes_delta"] > 0
    assert s1["rows_base"] == s0["rows_base"]  # bases untouched by MOR

    compact_published(out, run_id="c1")
    s2 = table_stats(out)
    assert s2["deltas_total"] == 0 and s2["buckets_with_deltas"] == 0
    assert len(s2["buckets"]) == 8

    # column_bytes: compressed column-chunk bytes per stored column, summed
    # from the footers of every live base and delta, with no data read
    def footer_bytes(name):
        md = pq.read_metadata(os.path.join(out, name))
        return sum(md.row_group(r).column(i).total_compressed_size
                   for r in range(md.num_row_groups) for i in range(md.num_columns))

    stored = [*KEYS, "role", "text", "tool_name", "score", "ts", "_lsn", "_part", "_bucket"]
    for s, ops in ((s0, False), (s1, True), (s2, False)):
        cb = s["column_bytes"]
        assert sorted(cb) == sorted(stored + ["_op"] * ops) and all(v > 0 for v in cb.values())
        assert sum(cb.values()) < s["bytes_base"] + s["bytes_delta"]
    assert s1["column_bytes"]["text"] > s0["column_bytes"]["text"]
    files = [f for m in load_manifests(out).values()
             for f in [m["file"], *(d["file"] for d in m.get("deltas", []))]]
    assert sum(s2["column_bytes"].values()) == sum(map(footer_bytes, files))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pq, "read_table", lambda *a, **k: pytest.fail("table_stats read data"))
        assert table_stats(out)["column_bytes"] == s2["column_bytes"]


def test_table_stats_reports_logical_contract(ray_session, tmp_path):
    """DESCRIBE surfaces the table's logical contract: pending DDL ops, the
    CHECK constraint, clustering and the write sequence."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc import alter_published, set_expectations
    from odibel_ray.cdc.sink import publish_dataset, table_stats, upsert_published

    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]})), out,
                    key_cols=["k"], num_buckets=1, run_id="p1")
    alter_published(out, rename={"v": "value"})
    set_expectations(out, [["value", ">=", 0.0]])
    upsert_published(rd.from_arrow(pa.table({"k": ["b"], "value": [2.0]})), out,
                     run_id="u1", mode="mor")
    s = table_stats(out)
    assert s["schema_ops"] == [{"kind": "rename", "from": "v", "to": "value"}]
    assert s["expectations"] == [["value", ">=", 0.0]]
    assert s["write_seq"] == 1 and s["cluster_by"] is None
    assert s["deltas_total"] == 1


def test_table_lock_wait_queues_writers(ray_session, tmp_path):
    """wait_s > 0 turns fail-fast into writer queueing: the second writer
    polls until the lease frees (within the deadline) instead of raising;
    a too-short deadline still raises."""
    import threading

    from odibel_ray.cdc import ConcurrentWriterError, table_lock

    out = str(tmp_path / "tbl")
    os.makedirs(out, exist_ok=True)
    a = table_lock(out, owner="a").acquire()
    release_at = time.monotonic() + 0.5
    threading.Timer(0.5, a.release).start()

    # deadline shorter than the holder's release: still fails
    with pytest.raises(ConcurrentWriterError):
        table_lock(out, owner="fast", wait_s=0.1).acquire()

    with table_lock(out, owner="b", wait_s=10.0):
        assert time.monotonic() >= release_at - 0.05  # actually waited
    # env default keeps fail-fast semantics (wait_s=0)
    assert table_lock(out, owner="c").wait_s == 0.0


COMPACT_KILL_SCRIPT = r"""
import sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from odibel_ray.cdc import compact_published, sink
sink.DRIVER_MAX_BYTES = int(sys.argv[2])  # the calling test's executor cutover
compact_published(sys.argv[1], run_id="victim-compact")
"""


def test_compaction_kill_resume(ray_session, small_log, oracle_final, tmp_path):
    """SIGKILL a compaction mid-publish. Readers must never see a
    half-compacted table (every read matches the oracle throughout), and a
    re-run compaction converges: all deltas folded, read unchanged."""
    out, _ = _mor_base(small_log, tmp_path, frac=0.5)
    incremental_apply(small_log["log_dir"], out, run_id="d1", mode="mor")
    assert any(m.get("deltas") for m in load_manifests(out).values())
    assert _published_table(out).equals(oracle_final)

    env = dict(os.environ, ODIBEL_TEST_PUBLISH_DELAY="1.0", RAY_ADDRESS="local")
    proc = subprocess.Popen(
        [sys.executable, "-c", COMPACT_KILL_SCRIPT, out, str(sink.DRIVER_MAX_BYTES)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    partially_folded = False
    while time.time() < deadline:
        manifests = load_manifests(out)
        folded = sum(1 for m in manifests.values() if not m.get("deltas"))
        if 0 < folded < len(manifests):
            partially_folded = True
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait()

    # mid-crash state: reads are still exactly the converged table
    assert _published_table(out).equals(oracle_final)

    # the dead victim's lease is auto-reclaimed (dead pid, same host) —
    # the resume needs no operator intervention
    compact_published(out, run_id="resume-compact")
    manifests = load_manifests(out)
    assert all(not m.get("deltas") for m in manifests.values())
    assert _published_table(out).equals(oracle_final)
    del partially_folded  # informational only: kill may land before any fold


def test_load_manifests_drops_a_file_removed_while_checked(ray_session, small_log, tmp_path,
                                                           monkeypatch):
    """A compaction removes an old base right after its flip, so a reader may
    list a manifest whose base is gone by the time it opens the footer.
    ``load_manifests`` then drops that bucket, as for any missing file,
    instead of raising."""
    out, _ = _mor_base(small_log, tmp_path)
    live = load_manifests(out)
    victim = live[min(live)]["file"]
    read_metadata = pq.read_metadata

    def remove_then_read(where, *a, **kw):
        if os.path.basename(str(where)) == victim and os.path.exists(where):
            os.remove(where)
        return read_metadata(where, *a, **kw)

    monkeypatch.setattr(pq, "read_metadata", remove_then_read)
    # the first call warmed the table's cache entry: start cold, so the
    # second call reads every footer again
    sink._TABLES.pop(os.path.abspath(out))
    assert sorted(load_manifests(out)) == sorted(live)[1:]
