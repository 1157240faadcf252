"""Snapshot retention + time travel over the copy-on-write sink."""

import os

import pytest

from odibel_ray.cdc import (
    compact_published,
    enable_snapshots,
    incremental_apply,
    list_snapshots,
    read_published,
    replay_publish,
)
from odibel_ray.cdc.sink import snapshot_policy, table_stats, vacuum
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _read(out, **kw):
    return collect_sorted(read_published(out, **kw), KEYS)


@pytest.fixture()
def prefixed(small_log, tmp_path):
    """60%-prefix log + its replay oracle."""
    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    plog = os.path.join(prefix, "change_log")
    return {"log": small_log["log_dir"], "plog": plog, "poracle": replay_oracle(plog)}


def test_time_travel_round_trip(ray_session, prefixed, oracle_final, tmp_path):
    """Publish prefix with snapshots on (v1), apply the tail (v2): version 1
    must keep reading as the prefix replay while the live table converges."""
    out = str(tmp_path / "tbl")
    r1 = replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=2)
    assert r1["snapshot"] == 1
    r2 = incremental_apply(prefixed["log"], out, run_id="r2")
    assert r2["snapshot"] == 2
    assert _read(out).equals(oracle_final)
    assert _read(out, version=1).equals(prefixed["poracle"])
    assert _read(out, version=2).equals(oracle_final)
    assert [s["version"] for s in list_snapshots(out)] == [1, 2]
    st = table_stats(out)
    assert st["snapshot_policy"] == 2
    assert [s["version"] for s in st["snapshots"]] == [1, 2]


def test_enable_on_existing_table_bootstraps(ray_session, prefixed, oracle_final, tmp_path):
    """Enabling retention on an already-published table pins its CURRENT
    state as v1 — the next apply must not sweep the files v1 needs."""
    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1")  # snapshots off
    enable_snapshots(out, keep_last=2)
    assert [s["op"] for s in list_snapshots(out)] == ["bootstrap"]
    incremental_apply(prefixed["log"], out, run_id="r2")
    assert _read(out, version=1).equals(prefixed["poracle"])
    assert _read(out).equals(oracle_final)


def test_expiry_and_vacuum_respect_retention(ray_session, prefixed, oracle_final, tmp_path):
    """keep_last=1: the apply's new version evicts the bootstrap version and
    sweeps its files; vacuum never removes retained-snapshot files."""
    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=1)
    v1_files = {m["file"] for m in list_snapshots(out)[0]["buckets"].values()}
    incremental_apply(prefixed["log"], out, run_id="r2")
    assert [s["version"] for s in list_snapshots(out)] == [2]
    with pytest.raises(FileNotFoundError):
        read_published(out, version=1)
    # superseded v1 files of republished buckets are swept by expiry
    live = {m["file"] for m in list_snapshots(out)[0]["buckets"].values()}
    for f in v1_files - live:
        assert not os.path.exists(os.path.join(out, f))
    assert _read(out).equals(oracle_final)
    # vacuum keeps everything the retained snapshot references
    vacuum(out)
    assert _read(out, version=2).equals(oracle_final)
    # dropping retention entirely via vacuum removes time travel
    res = vacuum(out, keep_snapshots=0)
    assert res["snapshots"] == 1
    with pytest.raises(FileNotFoundError):
        read_published(out, version=2)
    assert _read(out).equals(oracle_final)


def test_mor_snapshot_survives_compaction(ray_session, prefixed, oracle_final, tmp_path):
    """A version captured while buckets carried merge-on-read deltas must
    read identically after compaction folds the deltas away (the snapshot
    pins base + delta files; the in-publish sweep keeps them)."""
    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=3)
    r2 = incremental_apply(prefixed["log"], out, run_id="r2", mode="mor")
    assert r2["snapshot"] == 2
    c = compact_published(out, run_id="c1")
    assert c["snapshot"] == 3
    assert _read(out).equals(oracle_final)
    # v2 still merges base ∪ (now-compacted-away) deltas
    assert _read(out, version=2).equals(oracle_final)
    assert _read(out, version=1).equals(prefixed["poracle"])
    assert snapshot_policy(out) == 3


def test_read_columns_pruning_and_versioned_lookup(ray_session, prefixed, oracle_final, tmp_path):
    """read_published(columns=...) prunes at the scan on both the plain and
    merge-on-read paths; lookup_key(version=...) answers from a retained
    snapshot."""
    from odibel_ray.cdc.sink import lookup_key

    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=2)
    incremental_apply(prefixed["log"], out, run_id="r2", mode="mor")  # MOR buckets + v2
    want = oracle_final.select(["conv_id", "text"]).sort_by(
        [("conv_id", "ascending"), ("text", "ascending")]
    )
    got = collect_sorted(read_published(out, columns=["conv_id", "text"]), ["conv_id", "text"])
    assert got.equals(want)
    # versioned point lookup: pick a key whose text changed between v1 and v2
    pre = {
        (c, i): t
        for c, i, t in zip(*(prefixed["poracle"][k].to_pylist() for k in ("conv_id", "turn_idx", "text")))
    }
    post = {
        (c, i): t
        for c, i, t in zip(*(oracle_final[k].to_pylist() for k in ("conv_id", "turn_idx", "text")))
    }
    changed = next(k for k in pre if k in post and pre[k] != post[k])
    old = lookup_key(out, changed[0], turn_idx=changed[1], version=1)
    new = lookup_key(out, changed[0], turn_idx=changed[1])
    assert old["text"][0].as_py() == pre[changed]
    assert new["text"][0].as_py() == post[changed]


def test_table_changes_between_versions(ray_session, prefixed, oracle_final, tmp_path):
    """table_changes(v1, v2) recovers the exact insert/update/delete set
    between the prefix state and the final state, computed purely from
    snapshots (no write-time feed)."""
    from odibel_ray.cdc import table_changes

    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=2)
    incremental_apply(prefixed["log"], out, run_id="r2")
    got = collect_sorted(table_changes(out, 1, 2), ["conv_id", "turn_idx"])
    pre = {
        (c, i): t
        for c, i, t in zip(*(prefixed["poracle"][k].to_pylist() for k in ("conv_id", "turn_idx", "text")))
    }
    post = {
        (c, i): t
        for c, i, t in zip(*(oracle_final[k].to_pylist() for k in ("conv_id", "turn_idx", "text")))
    }
    want = {}
    for k in pre.keys() | post.keys():
        if k not in pre:
            want[k] = ("insert", None, post[k])
        elif k not in post:
            want[k] = ("delete", pre[k], None)
        elif pre[k] != post[k]:
            want[k] = ("update", pre[k], post[k])
    rows = {
        (c, i): (ch, b, a)
        for c, i, ch, b, a in zip(
            *(got[k].to_pylist() for k in ("conv_id", "turn_idx", "change", "text_before", "text_after"))
        )
    }
    assert rows == want
    # diff against the live table (to_version=None) is the same set
    live = collect_sorted(table_changes(out, 1), ["conv_id", "turn_idx"])
    assert live.equals(got)


def test_restore_snapshot_rolls_back_and_reapplies(ray_session, prefixed, oracle_final, tmp_path):
    """RESTORE: after applying the tail, rolling back to v1 serves the
    prefix state again (metadata-only flip), records a NEW version (history
    moves forward — the restore is itself restorable), and a subsequent
    incremental apply re-converges to the final state."""
    from odibel_ray.cdc import restore_snapshot

    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=4)
    incremental_apply(prefixed["log"], out, run_id="r2")
    assert _read(out).equals(oracle_final)
    res = restore_snapshot(out, 1, run_id="rb")
    assert res["restored_to"] == 1 and res["snapshot"] == 3
    assert _read(out).equals(prefixed["poracle"])
    assert [s["op"] for s in list_snapshots(out)][-1] == "restore"
    # the rolled-back table accepts the tail again and re-converges
    r = incremental_apply(prefixed["log"], out, run_id="r3")
    assert r["touched"] > 0
    assert _read(out).equals(oracle_final)
    # and the pre-restore final state (v2) is still readable
    assert _read(out, version=2).equals(oracle_final)


def test_tail_log_records_version_per_round(ray_session, prefixed, tmp_path):
    """A tailer with snapshots=k keeps 'the table as of N rounds ago'
    readable: bootstrap and each applying round record a version."""
    from odibel_ray.cdc.tail import tail_log

    out = str(tmp_path / "tbl")
    tail_log(prefixed["plog"], out, max_rounds=2, stop_when_idle=1, snapshots=3)
    v_after_prefix = [s["version"] for s in list_snapshots(out)]
    assert len(v_after_prefix) >= 1
    tail_log(prefixed["log"], out, max_rounds=3, stop_when_idle=1, snapshots=3)
    snaps = list_snapshots(out)
    assert len(snaps) > len(v_after_prefix)
    assert _read(out, version=v_after_prefix[-1]).equals(prefixed["poracle"])


def test_noop_publish_records_no_duplicate_version(ray_session, prefixed, tmp_path):
    """A no-op resume (nothing republished) and an idle compact must not
    spam identical snapshot versions."""
    from odibel_ray.cdc import compact_published

    out = str(tmp_path / "tbl")
    replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1", snapshots=3)
    r2 = replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r2")
    assert r2["published_now"] == 0 and r2["snapshot"] is None
    r3 = incremental_apply(prefixed["plog"], out, run_id="r3")  # watermark no-op
    assert r3["snapshot"] is None
    c = compact_published(out, run_id="c0")  # nothing to compact
    assert c.get("snapshot") is None
    assert [s["version"] for s in list_snapshots(out)] == [1]


def test_no_policy_means_no_snapshots(ray_session, prefixed, tmp_path):
    """Without enable_snapshots the sink behaves exactly as before: no
    versions recorded, version reads fail."""
    out = str(tmp_path / "tbl")
    r = replay_publish(prefixed["plog"], out, num_buckets=4, run_id="r1")
    assert r["snapshot"] is None
    assert list_snapshots(out) == []
    with pytest.raises(FileNotFoundError):
        read_published(out, version=1)


def test_as_of_timestamp_time_travel(ray_session, small_log, tmp_path):
    """read_published(as_of=...) resolves the newest retained snapshot at or
    before a wall-clock instant (unix ts or ISO string)."""
    import time as _time

    import pytest

    from odibel_ray.cdc.sink import (
        enable_snapshots,
        incremental_apply,
        list_snapshots,
        read_published,
        replay_publish,
    )
    from odibel_ray.datagen import split_log

    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    out = str(tmp_path / "t")
    enable_snapshots_dir = out  # readability
    import os as _os

    _os.makedirs(out, exist_ok=True)
    enable_snapshots(enable_snapshots_dir, keep_last=4)
    replay_publish(_os.path.join(prefix, "change_log"), out, num_buckets=4, run_id="r1")
    v1_rows = read_published(out).count()
    t_mid = _time.time()
    _time.sleep(0.05)
    incremental_apply(small_log["log_dir"], out, run_id="r2")
    v2_rows = read_published(out).count()
    snaps = list_snapshots(out)
    assert len(snaps) == 2
    assert read_published(out, as_of=t_mid).count() == v1_rows
    assert read_published(out, as_of=_time.time()).count() == v2_rows
    from datetime import datetime, timezone

    iso = datetime.fromtimestamp(t_mid, tz=timezone.utc).isoformat()
    assert read_published(out, as_of=iso).count() == v1_rows
    with pytest.raises(FileNotFoundError, match="no retained snapshot"):
        read_published(out, as_of=snaps[0]["unix_ts"] - 10)
    with pytest.raises(ValueError, match="not both"):
        read_published(out, version=1, as_of=t_mid)


def test_fsck_table(ray_session, small_log, tmp_path):
    """fsck: clean table OK; a truncated data file and a broken snapshot ref
    are errors; staging leftovers and orphans are warnings."""
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from odibel_ray.cdc.sink import fsck_table, load_manifests, replay_publish

    out = str(tmp_path / "t")
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r1")
    res = fsck_table(out)
    assert res["ok"] and res["errors"] == []
    # warnings: stage a leftover + an orphan root file
    _os.makedirs(_os.path.join(out, "_staging", "ghost"), exist_ok=True)
    pq.write_table(pa.table({"x": [1]}),
                   _os.path.join(out, "_staging", "ghost", "stuck.parquet"))
    pq.write_table(pa.table({"x": [1]}), _os.path.join(out, "part-999999-x.parquet"))
    res = fsck_table(out)
    assert res["ok"] and len(res["warnings"]) >= 2
    # error: truncate a manifested file
    m = next(iter(load_manifests(out).values()))
    pq.write_table(pa.table({"x": [1]}), _os.path.join(out, m["file"]))
    res = fsck_table(out)
    assert not res["ok"] and any("rows" in e or "missing" in e for e in res["errors"])
    # error: a deleted merge-on-read delta — fsck names it and readers
    # stop trusting its bucket (one shared manifest check)
    import ray.data as rd

    from odibel_ray.cdc.sink import publish_dataset, upsert_published

    gen = str(tmp_path / "g")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1, 2, 3]})),
                    gen, key_cols=["k"], num_buckets=2, run_id="p1")
    upsert_published(rd.from_arrow(pa.table({"k": ["a"], "v": [10]})), gen,
                     run_id="u1", mode="mor")
    b, m = next((b, m) for b, m in load_manifests(gen).items() if m.get("deltas"))
    delta = m["deltas"][0]["file"]
    _os.remove(_os.path.join(gen, delta))
    res = fsck_table(gen)
    assert not res["ok"]
    assert res["errors"] == [f"bucket {b}: delta file missing: {delta}"]
    assert b not in load_manifests(gen) and len(load_manifests(gen)) == 1
