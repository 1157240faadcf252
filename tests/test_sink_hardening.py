"""Hardening regressions for the exactly-once sink: lock fencing, orphaned
takeover recovery, typed single-key lookup routing, resume layout pinning,
empty-shard tolerance, phantom-bucket suppression, and generic CDF defaults."""

import json
import os
import time

import pyarrow as pa
import pytest
import ray.data as rd

from odibel_ray.cdc import ConcurrentWriterError, table_lock
from odibel_ray.cdc.sink import (
    load_manifests,
    lookup_key,
    publish_dataset,
    read_published,
    replay_publish,
    table_changes,
    upsert_published,
)


def test_lock_release_refresh_are_fenced(tmp_path):
    """A writer whose lease was reclaimed must neither delete nor extend the
    NEW holder's lock (fencing token), and refresh() must tell it to stop."""
    out = str(tmp_path / "t")
    os.makedirs(out)
    a = table_lock(out, owner="a").acquire()
    lock_path = os.path.join(out, "_LOCK.json")

    # simulate a TTL reclaim: B overwrites the lock with its own payload
    b_payload = {"owner": "b", "pid": os.getpid(), "host": "elsewhere",
                 "ttl_s": 3600, "token": "b-token"}
    with open(lock_path, "w") as f:
        json.dump(b_payload, f)

    with pytest.raises(ConcurrentWriterError, match="reclaimed"):
        a.refresh()
    a.release()  # must be a no-op on B's lock
    assert os.path.exists(lock_path)
    with open(lock_path) as f:
        assert json.load(f)["owner"] == "b"

    # a normal holder still releases its own lock
    os.remove(lock_path)
    with table_lock(out, owner="c") as c:
        c.refresh()  # owned: extends quietly
        assert os.path.exists(lock_path)
    assert not os.path.exists(lock_path)


def test_orphan_takeover_file_does_not_wedge_reclaim(tmp_path):
    """A reclaimer that died between creating .takeover and os.replace must
    not block reclaim forever: a stale takeover is cleared by TTL."""
    out = str(tmp_path / "t")
    os.makedirs(out)
    lock_path = os.path.join(out, "_LOCK.json")
    # stale lock (cross-host, mtime far past TTL)
    with open(lock_path, "w") as f:
        json.dump({"owner": "dead", "pid": 1, "host": "elsewhere", "ttl_s": 1}, f)
    old = time.time() - 7200
    os.utime(lock_path, (old, old))
    # orphaned takeover from a crashed reclaimer, also old
    takeover = lock_path + ".takeover"
    with open(takeover, "w") as f:
        f.write("{}")
    os.utime(takeover, (old, old))

    with table_lock(out, owner="new") as lk:
        assert lk._held
    assert not os.path.exists(takeover)

    # a FRESH takeover (live reclaimer mid-flight) still blocks fail-fast
    with open(lock_path, "w") as f:
        json.dump({"owner": "dead", "pid": 1, "host": "elsewhere", "ttl_s": 1}, f)
    os.utime(lock_path, (old, old))
    with open(takeover, "w") as f:
        f.write("{}")
    with pytest.raises(ConcurrentWriterError):
        table_lock(out, owner="racer").acquire()
    os.remove(takeover)


def test_lookup_key_casts_single_key_probe(ray_session, tmp_path):
    """int32 keys hash differently from the int64 a bare Python probe infers;
    the probe must be cast to the canonical key type before routing."""
    out = str(tmp_path / "t")
    keys = pa.array([-5, -1, 3, 7, 1000, -998], pa.int32())
    publish_dataset(
        rd.from_arrow(pa.table({"id": keys, "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})),
        out, key_cols=["id"], num_buckets=4, run_id="p1",
    )
    for k, v in [(-5, 1.0), (7, 4.0), (-998, 6.0)]:
        got = lookup_key(out, k)
        assert got["v"].to_pylist() == [v], f"key {k} misrouted"
    assert len(lookup_key(out, 12345)) == 0  # absent key: clean empty


def test_replay_layout_pin_blocks_mismatched_resume(ray_session, small_log, tmp_path):
    out = str(tmp_path / "t")
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r1")
    with open(os.path.join(out, "_replay_layout.json")) as f:
        assert json.load(f) == {"num_buckets": 4, "partitioned": False}
    # same layout: idempotent re-run is fine
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r2")
    with pytest.raises(ValueError, match="layout mismatch"):
        replay_publish(small_log["log_dir"], out, num_buckets=8, run_id="r3")
    with pytest.raises(ValueError, match="layout mismatch"):
        replay_publish(small_log["log_dir"], out, partitioned=True, run_id="r4")


def test_partitioned_replay_tolerates_empty_part_and_records_snapshot(
    ray_session, small_log, tmp_path
):
    import shutil

    log2 = str(tmp_path / "log2")
    shutil.copytree(small_log["log_dir"], log2)
    os.makedirs(os.path.join(log2, "part=99"))  # producer died pre-first-file

    out = str(tmp_path / "t")
    res = replay_publish(log2, out, partitioned=True, run_id="r1", snapshots=2)
    assert res["snapshot"] == 1  # partitioned branch records a version too
    assert 99 not in load_manifests(out)
    base = read_published(out).to_pandas()
    v1 = read_published(out, version=1).to_pandas()
    assert len(v1) == len(base) > 0


def test_delete_only_unpublished_bucket_is_skipped(ray_session, tmp_path):
    """CoW upsert of deletes that hash to a never-published bucket must not
    publish a phantom zero-row bucket file."""
    from odibel_ray.cdc.lww import bucket_of_keys

    out = str(tmp_path / "t")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]})),
        out, key_cols=["k"], num_buckets=8, run_id="p1",
    )
    published = set(load_manifests(out))
    assert len(published) == 1
    # find a key routed to an UNpublished bucket
    victim = next(
        c for c in "bcdefghijklmnop"
        if int(bucket_of_keys(pa.table({"k": [c]}), ["k"], 8)[0]) not in published
    )
    upsert_published(
        rd.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                "v": pa.array([], pa.float64())})),
        out, deletes=rd.from_arrow(pa.table({"k": [victim]})), run_id="u1",
    )
    assert set(load_manifests(out)) == published  # no phantom bucket
    assert read_published(out).to_pandas().k.tolist() == ["a"]


def test_table_changes_generic_default_values(ray_session, tmp_path):
    """On a generic table (no 'text' column) the CDF diff defaults to all
    non-key columns instead of crashing on the transcript default."""
    from odibel_ray.cdc.sink import enable_snapshots

    out = str(tmp_path / "t")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b"], "score": [1.0, 2.0], "n": [1, 2]})),
        out, key_cols=["k"], num_buckets=2, run_id="p1",
    )
    enable_snapshots(out, keep_last=4)
    from odibel_ray.cdc.sink import record_snapshot

    record_snapshot(out, "base")
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b"], "score": [20.0], "n": [2]})),
        out, run_id="u1",
    )
    feed = table_changes(out, 1).to_pandas()
    changed = feed[feed.k == "b"]
    assert not changed.empty
    # both non-key columns were picked up as diffed values
    for col in ("score", "n"):
        assert any(c.startswith(col) for c in feed.columns), feed.columns


def test_table_changes_default_values_under_pending_rename(ray_session, tmp_path):
    """The default diffed values are the LOGICAL non-key columns: a pending
    rename must not make the diff ask for the physical name."""
    from odibel_ray.cdc import alter_published
    from odibel_ray.cdc.sink import enable_snapshots

    out = str(tmp_path / "t")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b"], "v": [1.0, 2.0]})),
        out, key_cols=["k"], num_buckets=8, run_id="p1",
    )
    enable_snapshots(out, keep_last=4)
    alter_published(out, rename={"v": "w"})
    upsert_published(rd.from_arrow(pa.table({"k": ["b"], "w": [20.0]})), out, run_id="u1")
    feed = table_changes(out, 1).to_pandas()
    assert feed.k.tolist() == ["b"]
    assert any(c.startswith("w") for c in feed.columns), feed.columns
    assert not any(c.startswith("v") for c in feed.columns), feed.columns
