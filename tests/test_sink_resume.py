"""Exactly-once sink: publish, audit, resume, kill-resume, incremental apply."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from odibel_ray.cdc import incremental_apply, read_published, replay_publish, sink
from odibel_ray.cdc.sink import MANIFEST_DIR, TABLE_MANIFEST, load_manifests
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _published_table(out_dir):
    return collect_sorted(read_published(out_dir), KEYS)


def test_publish_matches_oracle_and_is_audited(ray_session, small_log, oracle_final, tmp_path):
    out = str(tmp_path / "tbl")
    res = replay_publish(small_log["log_dir"], out, num_buckets=8, run_id="r1")
    assert res["published_now"] == 8
    assert _published_table(out).equals(oracle_final)
    # manifests carry per-partition watermarks + counts (north-rule lineage)
    manifests = load_manifests(out)
    assert len(manifests) == 8
    for m in manifests.values():
        assert m["rows_out"] >= 0 and m["n_events"] >= m["rows_out"]
        assert all(int(l) >= 0 for l in m["watermarks"].values())
    tman = json.load(open(os.path.join(out, TABLE_MANIFEST)))
    assert tman["rows_total"] == oracle_final.num_rows
    assert tman["schema_version"] == len(json.loads(tman["timeline"]))


def test_second_run_is_noop(ray_session, small_log, tmp_path):
    out = str(tmp_path / "tbl")
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r1")
    res2 = replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r2")
    assert res2["published_now"] == 0
    assert res2["published_total"] == 4


def test_publish_is_copy_on_write(ray_session, small_log, oracle_final, tmp_path):
    """Publish must never invalidate the previous version of a bucket before
    the manifest pointer flip: data lands under a run-versioned filename, the
    old file + manifest stay consistent up to the atomic manifest write, and
    superseded/orphaned versions are swept after. Guards against the
    crash-window where an in-place data replace broke the old manifest's
    row-count audit and the bucket silently vanished from the base (an
    incremental resume over a tail-only log then rebuilt it from new events
    alone — base-row loss)."""
    import shutil

    log = small_log["log_dir"]
    prefix = str(tmp_path / "prefix")
    split_log(log, prefix, frac=0.6)
    out = str(tmp_path / "tbl")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=4, run_id="r1")
    before = load_manifests(out)
    before_table = _published_table(out)

    # simulate a crashed publish: a NEW versioned data file exists for every
    # bucket but no manifest was flipped — readers must still see the old,
    # audited state, not a torn or missing bucket
    for b, m in before.items():
        shutil.copyfile(
            os.path.join(out, m["file"]),
            os.path.join(out, f"part-{b:06d}-crashed.parquet"),
        )
    assert load_manifests(out).keys() == before.keys()
    assert _published_table(out).equals(before_table)

    # resume: the incremental apply converges and sweeps the orphans of
    # every bucket it republished
    res = incremental_apply(log, out, run_id="r2")
    assert _published_table(out).equals(oracle_final)
    after = load_manifests(out)
    republished = {b for b, m in after.items() if m["run_id"] == "r2"}
    assert republished  # the tail touched at least one bucket
    root_files = {f for f in os.listdir(out) if f.endswith(".parquet")}
    assert root_files == {m["file"] for m in after.values()} | {
        f"part-{b:06d}-crashed.parquet" for b in after if b not in republished
    }
    # superseded r1 versions of republished buckets are gone
    for b in republished:
        assert not os.path.exists(os.path.join(out, before[b]["file"]))
    assert res["published_total"] == 4


def test_rebucket_published_round_trip(ray_session, small_log, oracle_final, tmp_path):
    """Out-of-place rebucket: destination at a different bucket count reads
    identical to the source (and to the replay oracle); source untouched;
    resume skips already-published destination buckets; incremental apply on
    the rebucketed table still converges (regressed-watermark safety)."""
    from odibel_ray.cdc.sink import rebucket_published

    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    replay_publish(small_log["log_dir"], src, num_buckets=8, run_id="r1")
    res = rebucket_published(src, dst, num_buckets=3, run_id="rb")
    assert res["published_total"] == 3
    assert _published_table(dst).equals(oracle_final)
    assert _published_table(src).equals(oracle_final)  # source still serves
    tman = json.load(open(os.path.join(dst, TABLE_MANIFEST)))
    assert tman["num_buckets"] == 3 and tman["rows_total"] == oracle_final.num_rows

    # resume: a second rebucket into the same destination is a no-op
    res2 = rebucket_published(src, dst, num_buckets=3, run_id="rb2")
    assert res2["published_now"] == 0 and res2["published_total"] == 3

    # incremental apply onto the REBUCKETED table converges to the same state
    inc = incremental_apply(small_log["log_dir"], dst, run_id="inc")
    assert _published_table(dst).equals(oracle_final)
    assert inc["published_total"] == 3


def test_dead_letter_scan_reasons(ray_session, small_log, tmp_path):
    """DLQ complements the replay filter: dead letters + applied events
    account for every data row; reasons are machine-readable; quarantine
    parquet round-trips."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from odibel_ray.cdc.apply import dead_letter_batch, dead_letter_scan

    log = small_log["log_dir"]
    dl = dead_letter_scan(log).take_all()
    assert len(dl) > 0  # datagen plants ~1% malformed events
    assert all(r["reason"] == "null_key" for r in dl)
    assert all(r["conv_id"] is None or r["turn_idx"] is None for r in dl)

    # complement: dead letters + valid data events == all non-S rows
    t = pads.dataset(log, format="parquet", partitioning="hive").to_table()
    n_data = len(t.filter(pa.compute.not_equal(t["op"], "S")))
    n_valid = len(
        t.filter(
            pa.compute.and_(
                pa.compute.is_in(t["op"], value_set=pa.array(["I", "U", "D"])),
                pa.compute.and_(
                    pa.compute.is_valid(t["conv_id"]), pa.compute.is_valid(t["turn_idx"])
                ),
            )
        )
    )
    assert len(dl) + n_valid == n_data

    # unknown op codes get their own reason (precedence over null_key)
    bad = pa.table(
        {
            "part": pa.array([0, 0], pa.int64()),
            "lsn": pa.array([1, 2], pa.int64()),
            "op": pa.array(["X", "I"]),
            "conv_id": pa.array([None, "c"], pa.string()),
            "turn_idx": pa.array([None, 1], pa.int32()),
        }
    )
    out = dead_letter_batch(bad)
    assert out["reason"].to_pylist() == ["unknown_op"]

    # quarantine write round-trips
    qdir = str(tmp_path / "quarantine")
    dead_letter_scan(log, quarantine_dir=qdir)
    assert rd.read_parquet(qdir).count() == len(dl)


def test_incremental_apply_converges(ray_session, small_log, oracle_final, tmp_path):
    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    out = str(tmp_path / "tbl")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=8, run_id="r1")
    res = incremental_apply(small_log["log_dir"], out, run_id="r2")
    assert res["touched"] > 0
    assert _published_table(out).equals(oracle_final)
    # re-running the incremental is idempotent (watermarks filter
    # everything): no version recorded, the TABLE manifest as it was
    sink.enable_snapshots(out, keep_last=3)
    versions = sink.list_snapshots(out)
    tman = open(os.path.join(out, TABLE_MANIFEST), "rb").read()
    res2 = incremental_apply(small_log["log_dir"], out, run_id="r3")
    assert res2["touched"] == 0
    assert res2["snapshot"] is None and sink.list_snapshots(out) == versions
    assert open(os.path.join(out, TABLE_MANIFEST), "rb").read() == tman
    assert _published_table(out).equals(oracle_final)


KILL_SCRIPT = r"""
import sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from odibel_ray.cdc import replay_publish, sink
sink.DRIVER_MAX_BYTES = int(sys.argv[3])  # the calling test's executor cutover
replay_publish(sys.argv[1], sys.argv[2], num_buckets=8, run_id="victim")
"""


def test_kill_resume_exactly_once(ray_session, small_log, oracle_final, tmp_path):
    """SIGKILL a publishing run mid-stream; resume must converge to the oracle
    and republish only the missing buckets (SURVEY.md §5 item 4)."""
    out = str(tmp_path / "tbl")
    env = dict(os.environ, ODIBEL_TEST_APPLY_DELAY="1.0",
               ODIBEL_TEST_PUBLISH_DELAY="1.5", RAY_ADDRESS="local",
               PYTHONPATH="/root/repo")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_SCRIPT, small_log["log_dir"], out,
         str(sink.DRIVER_MAX_BYTES)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    mdir = os.path.join(out, MANIFEST_DIR)
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            if os.path.isdir(mdir) and len(load_manifests(out)) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        assert proc.poll() is None, "victim finished before we could kill it"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    done_before = set(load_manifests(out))
    assert 1 <= len(done_before) < 8, f"expected a partial publish, got {len(done_before)}"
    before_mtimes = {
        b: os.path.getmtime(os.path.join(mdir, f"bucket-{b:06d}.json")) for b in done_before
    }

    res = replay_publish(small_log["log_dir"], out, num_buckets=8, run_id="resume")
    assert res["published_now"] == 8 - len(done_before)
    assert _published_table(out).equals(oracle_final)
    # previously published buckets were reused, not rewritten
    for b, mt in before_mtimes.items():
        assert os.path.getmtime(os.path.join(mdir, f"bucket-{b:06d}.json")) == mt


KILL_SCRIPT_PARTITIONED = r"""
import sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from odibel_ray.cdc import replay_publish, sink
sink.DRIVER_MAX_BYTES = int(sys.argv[3])  # the calling test's executor cutover
replay_publish(sys.argv[1], sys.argv[2], partitioned=True, run_id="victim")
"""


def test_kill_resume_partitioned_sink(ray_session, small_log, oracle_final, tmp_path):
    """SIGKILL the shuffle-free partitioned publish mid-stream; resume must
    converge and republish only missing partitions."""
    out = str(tmp_path / "tbl")
    env = dict(os.environ, ODIBEL_TEST_APPLY_DELAY="0.6",
               ODIBEL_TEST_PUBLISH_DELAY="1.5", RAY_ADDRESS="local",
               PYTHONPATH="/root/repo")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_SCRIPT_PARTITIONED, small_log["log_dir"], out,
         str(sink.DRIVER_MAX_BYTES)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    mdir = os.path.join(out, MANIFEST_DIR)
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            if os.path.isdir(mdir) and len(load_manifests(out)) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        assert proc.poll() is None, "victim finished before we could kill it"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    done_before = set(load_manifests(out))
    assert 1 <= len(done_before) < small_log["num_parts"], f"partial expected, got {len(done_before)}"

    res = replay_publish(small_log["log_dir"], out, partitioned=True, run_id="resume")
    assert res["published_now"] == small_log["num_parts"] - len(done_before)
    assert _published_table(out).equals(oracle_final)


def test_retried_group_write_is_idempotent(tmp_path):
    """A retried sink task overwrites its OWN deterministic staging file —
    no duplicate data files, identical manifest row (the no-wall-clock-ids
    exactly-once invariant)."""
    import os

    import pyarrow as pa

    from odibel_ray.cdc.sink import _table_layout, _write_events

    staging = tmp_path / "stage"
    staging.mkdir()
    t = pa.table(
        {
            "op": ["I", "U", "D", "I"],
            "lsn": pa.array([1, 2, 3, 4], pa.int64()),
            "conv_id": ["a", "a", "b", "c"],
            "turn_idx": pa.array([0, 0, 0, 0], pa.int64()),
            "role": ["u"] * 4,
            "text": ["t1", "t2", "t3", "t4"],
            "tool_name": [None] * 4,
            "score": pa.array([None] * 4, pa.float64()),
            "ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
            "part": pa.array([0, 0, 0, 0], pa.int64()),
            "bucket": pa.array([5, 5, 5, 5], pa.int64()),
        }
    )
    kw = dict(layout=_table_layout(str(tmp_path)), staging=str(staging), run_id="r")
    m1 = _write_events(t, **kw)
    m2 = _write_events(t, **kw)  # simulated retry
    assert m1.equals(m2)
    assert os.listdir(staging) == ["part-000005-r.parquet"]
    assert m1["rows_out"][0].as_py() == 2  # 'a' upserted, 'b' deleted, 'c' live
    # empty group (all events invalid upstream) publishes nothing, no error
    assert len(_write_events(t.slice(0, 0), **kw)) == 0


def test_incremental_feed_matches_generic_diff(ray_session, small_log, tmp_path):
    """The CDF the sink writes during incremental apply must equal the generic
    two-state diff between the prefix-converged and full-converged states,
    and a rerun (nothing new to apply) must leave the feed untouched."""
    import ray.data as rd

    from odibel_ray.cdc import replay_dataset
    from odibel_ray.cdc.lww import change_feed

    log = small_log["log_dir"]
    prefix = str(tmp_path / "prefix")
    split_log(log, prefix, frac=0.6)
    out = str(tmp_path / "tbl")
    feed_dir = str(tmp_path / "feed")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=4, run_id="r1")
    incremental_apply(log, out, run_id="r2", feed_dir=feed_dir)

    cols = ["conv_id", "turn_idx", "change", "text_before", "text_after"]
    feed = collect_sorted(
        rd.read_parquet(feed_dir).select_columns(cols), ["conv_id", "turn_idx"]
    )
    expected = collect_sorted(
        change_feed(
            replay_dataset(os.path.join(prefix, "change_log")),
            replay_dataset(log),
            ["conv_id", "turn_idx"],
            ["text"],
        ),
        ["conv_id", "turn_idx"],
    ).select(cols)
    assert feed.num_rows > 0
    assert feed.equals(expected)

    # rerun: all events below the watermark -> nothing applied, feed unchanged
    res = incremental_apply(log, out, run_id="r3", feed_dir=feed_dir)
    assert res["touched"] == 0
    feed2 = collect_sorted(
        rd.read_parquet(feed_dir).select_columns(cols), ["conv_id", "turn_idx"]
    )
    assert feed2.equals(feed)


def test_lookup_key_point_read(ray_session, small_log, oracle_final, tmp_path):
    """Point lookup prunes to one bucket (hashed layout) or by footer stats
    (partitioned layout) and matches the oracle's rows for that key; a miss
    returns a typed empty table."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from odibel_ray.cdc.sink import LOGICAL_COLUMNS, lookup_key

    log = small_log["log_dir"]
    out_h = str(tmp_path / "hashed")
    out_p = str(tmp_path / "parted")
    replay_publish(log, out_h, num_buckets=8, run_id="r1")
    replay_publish(log, out_p, partitioned=True, run_id="r1")

    conv = oracle_final["conv_id"][0].as_py()
    want = (
        oracle_final.filter(pc.equal(oracle_final["conv_id"], conv))
        .select([c for c in LOGICAL_COLUMNS if c in oracle_final.column_names])
        .sort_by("turn_idx")
    )
    for out_dir in (out_h, out_p):
        got = lookup_key(out_dir, conv).select(want.column_names).sort_by("turn_idx")
        assert got.equals(want), out_dir

    one = lookup_key(out_h, conv, turn_idx=int(want["turn_idx"][0].as_py()))
    assert len(one) == 1 and one["conv_id"][0].as_py() == conv

    sub = lookup_key(out_h, conv, columns=["conv_id", "text"])
    assert sub.column_names == ["conv_id", "text"] and len(sub) == len(want)

    miss = lookup_key(out_h, "no-such-conv")
    assert len(miss) == 0 and set(miss.column_names) == set(LOGICAL_COLUMNS)


def test_metrics_actor_totals_after_replay(ray_session, small_log, tmp_path):
    """Distributed apply tasks fire progress into the named metrics actor as
    they stage buckets; the final totals equal the manifest sums (the
    fire-and-forget updates may still be in flight when the replay
    returns, so the poller waits for the last bucket counter)."""
    import time as _time

    import ray

    from odibel_ray.monitor import metrics_actor

    name = "test-replay-metrics-totals"
    actor = metrics_actor(name)
    out = str(tmp_path / "tbl")
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="m1",
                   metrics=name)

    manifests = load_manifests(out)
    final = {}
    for _ in range(600):
        final = ray.get(actor.snapshot.remote())
        if final.get("buckets_staged") == 4:
            break
        _time.sleep(0.05)
    assert final["events"] == sum(m["n_events"] for m in manifests.values())
    assert final["rows"] == sum(m["rows_out"] for m in manifests.values())
    assert final["buckets_staged"] == 4
    assert final["events_per_sec"] > 0
    ray.kill(actor)


def test_metrics_visible_while_task_runs(ray_session, tmp_path):
    """The property that makes the named actor a LIVE heartbeat: a counter
    fired from inside a still-running distributed task is observable from
    any process BEFORE the task completes. Deterministic — the task fires
    its update and then blocks until the observer acknowledges (a flag
    file), so there is no race against task completion."""
    import time as _time

    import ray

    from odibel_ray.monitor import metrics_actor, record_task_metrics

    name = "test-midrun-metrics"
    actor = metrics_actor(name)  # pre-create so the observer sees 0 first
    ack = str(tmp_path / "observed.flag")

    @ray.remote(num_cpus=0)
    def slow_worker(metrics_name, ack_path):
        record_task_metrics(metrics_name, events=7)
        deadline = _time.monotonic() + 30
        while not os.path.exists(ack_path) and _time.monotonic() < deadline:
            _time.sleep(0.02)
        return "done"

    ref = slow_worker.remote(name, ack)
    observed = 0
    for _ in range(600):  # ≤30 s
        observed = ray.get(actor.snapshot.remote()).get("events", 0)
        if observed:
            break
        _time.sleep(0.05)
    # the task has NOT completed (it is blocked on our ack), yet its
    # counter update is already visible — progress DURING the job
    ready, _ = ray.wait([ref], timeout=0)
    assert observed == 7 and not ready
    open(ack, "w").close()
    assert ray.get(ref) == "done"
    ray.kill(actor)


def test_vacuum_sweeps_staging_orphans_and_feed(
    ray_session, small_log, oracle_final, tmp_path
):
    """vacuum removes crash leftovers (staging dirs, unreferenced root data
    files) and prunes old change-feed states per bucket, without touching
    manifested data."""
    import pyarrow.parquet as pq

    from odibel_ray.cdc.sink import vacuum

    log = small_log["log_dir"]
    prefix = str(tmp_path / "prefix")
    split_log(log, prefix, frac=0.5)
    out = str(tmp_path / "tbl")
    feed = str(tmp_path / "feed")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=4, run_id="r1")
    incremental_apply(log, out, run_id="r2", feed_dir=feed)

    # plant crash leftovers: a staged file and an unreferenced root file
    stag = os.path.join(out, "_staging", "crashed-run")
    os.makedirs(stag, exist_ok=True)
    open(os.path.join(stag, "part-000000-crashed-run.parquet"), "wb").close()
    orphan = os.path.join(out, "part-000002-zombie.parquet")
    open(orphan, "wb").close()
    # age an extra fake feed state so retention has something to prune
    bdirs = [d for d in os.listdir(feed) if d.startswith("bucket=")]
    extra = []
    for d in bdirs:
        for i in range(3):
            p = os.path.join(feed, d, f"state-old{i}.parquet")
            open(p, "wb").close()
            old = time.time() - 1000 - i
            os.utime(p, (old, old))
            extra.append(p)

    before = _published_table(out)
    removed = vacuum(out, feed_dir=feed, keep_feed_states=1)
    assert removed["staging_dirs"] >= 1
    assert removed["orphan_files"] >= 1 and not os.path.exists(orphan)
    assert removed["feed_files"] >= len(extra)  # fakes pruned first (oldest)
    # manifested data untouched; table still equals the oracle
    assert _published_table(out).equals(before)
    assert before.equals(oracle_final)
    for d in bdirs:  # newest state per bucket survives
        left = os.listdir(os.path.join(feed, d))
        assert len(left) == 1 and left[0].startswith("state-")
