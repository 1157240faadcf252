"""Incrementally-maintained row-level derived tables (cdc/derived.py) — the
bronze→silver hop: filter + projection + scalar-derived columns kept current
from the base table's change feed."""

import os

import pandas as pd
import pytest

from odibel_ray.cdc import (
    create_derived,
    incremental_apply,
    read_derived,
    refresh_derived,
    replay_publish,
)
from odibel_ray.cdc.sink import list_snapshots
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle

SPEC = {
    "where": [["score", ">=", 0.5]],
    "columns": ["role", "score"],
    "derive": {"text_len": ["len", "text"], "role_uc": ["upper", "role"]},
}
FEED_VALUES = ["role", "score", "text"]  # everything the transform reads
KEYS = ["conv_id", "turn_idx"]


def _expected(oracle_t) -> pd.DataFrame:
    """Pandas recompute of the derived table over a converged oracle state."""
    df = oracle_t.to_pandas()
    df = df[df["score"] >= 0.5]  # NaN fails, matching SQL WHERE
    out = df[["conv_id", "turn_idx", "role", "score"]].copy()
    out["text_len"] = df["text"].str.len()
    out["role_uc"] = df["role"].str.upper()
    return out.sort_values(KEYS).reset_index(drop=True)


def _got(out_dir) -> pd.DataFrame:
    return read_derived(out_dir).to_pandas().sort_values(KEYS).reset_index(drop=True)


def _assert_matches(out_dir, oracle_t):
    got = _got(out_dir)
    exp = _expected(oracle_t)
    pd.testing.assert_frame_equal(
        got[exp.columns.tolist()], exp, check_dtype=False, atol=1e-9
    )


@pytest.fixture()
def based(small_log, tmp_path):
    """60%-prefix base table published at 4 buckets, plus the full log."""
    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    plog = os.path.join(prefix, "change_log")
    out = str(tmp_path / "base")
    replay_publish(plog, out, num_buckets=4, run_id="r1")
    return {"log": small_log["log_dir"], "plog": plog, "base": out}


def test_create_matches_recompute(ray_session, based, tmp_path):
    out = str(tmp_path / "dt")
    r = create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    assert r["base_version"] == 1
    _assert_matches(out, replay_oracle(based["plog"]))


@pytest.mark.parametrize("use_feed", [False, True])
def test_refresh_rescan_converges(ray_session, based, oracle_final, tmp_path, use_feed):
    """create at the prefix state → apply the tail → refresh: rows enter and
    leave the WHERE, keys are deleted — rescan converges from either a
    write-time feed or the snapshot diff."""
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed") if use_feed else None
    kw = dict(feed_dir=feed, feed_values=FEED_VALUES) if use_feed else {}
    incremental_apply(based["log"], based["base"], run_id="r2", **kw)
    r = refresh_derived(out, run_id="d1", strategy="rescan", feed=feed)
    assert r["refreshed"] and r["strategy"] == "rescan" and r["base_version"] == 2
    _assert_matches(out, oracle_final)


def test_refresh_feed_strategy_no_base_read(ray_session, based, oracle_final, tmp_path):
    """The O(feed) path: after-images from the write-time CDF are transformed
    directly — no base read — and still converge (deletes + filter exits
    included)."""
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed")
    incremental_apply(
        based["log"], based["base"], run_id="r2", feed_dir=feed,
        feed_values=FEED_VALUES,
    )
    r = refresh_derived(out, run_id="d1", strategy="feed", feed=feed)
    assert r["refreshed"] and r["strategy"] == "feed"
    _assert_matches(out, oracle_final)


def test_feed_strategy_telescoped_feeds_with_lsn(ray_session, small_log, tmp_path):
    """Two successive applies each emitting a feed with feed_lsn=True; one
    feed-strategy refresh over BOTH state files must pick each key's latest
    transition via _lsn and converge."""
    log = small_log["log_dir"]
    p1, p2 = str(tmp_path / "p40"), str(tmp_path / "p70")
    split_log(log, p1, frac=0.4)
    split_log(log, p2, frac=0.7)
    base = str(tmp_path / "base")
    replay_publish(os.path.join(p1, "change_log"), base, num_buckets=4, run_id="r1")
    out = str(tmp_path / "dt")
    create_derived(base, out, transform=SPEC, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed")
    for rid, lg in (("r2", os.path.join(p2, "change_log")), ("r3", log)):
        incremental_apply(
            lg, base, run_id=rid, feed_dir=feed, feed_values=FEED_VALUES,
            feed_lsn=True,
        )
    refresh_derived(out, run_id="d1", strategy="feed", feed=feed)
    _assert_matches(out, replay_oracle(log))


def test_feed_strategy_telescoped_without_lsn_errors(ray_session, small_log, tmp_path):
    """Telescoped feeds WITHOUT the _lsn ordering column must fail loudly
    instead of returning a silently wrong answer."""
    log = small_log["log_dir"]
    p1, p2 = str(tmp_path / "p40"), str(tmp_path / "p70")
    split_log(log, p1, frac=0.4)
    split_log(log, p2, frac=0.7)
    base = str(tmp_path / "base")
    replay_publish(os.path.join(p1, "change_log"), base, num_buckets=4, run_id="r1")
    out = str(tmp_path / "dt")
    create_derived(base, out, transform=SPEC, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed")
    for rid, lg in (("r2", os.path.join(p2, "change_log")), ("r3", log)):
        incremental_apply(lg, base, run_id=rid, feed_dir=feed, feed_values=FEED_VALUES)
    with pytest.raises(Exception, match="_lsn"):
        refresh_derived(out, run_id="d1", strategy="feed", feed=feed)
    # rescan stays correct over the same unordered feeds (dirty keys only)
    refresh_derived(out, run_id="d2", strategy="rescan", feed=feed)
    _assert_matches(out, replay_oracle(log))


def test_feed_strategy_missing_after_images_errors(ray_session, based, tmp_path):
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed")
    # default feed_values=("text",) lacks role/score after-images
    incremental_apply(based["log"], based["base"], run_id="r2", feed_dir=feed)
    with pytest.raises(ValueError, match="after-images"):
        refresh_derived(out, run_id="d1", strategy="feed", feed=feed)


def test_full_refresh_fallback_when_pin_expired(ray_session, based, oracle_final, tmp_path):
    from odibel_ray.cdc.sink import enable_snapshots

    enable_snapshots(based["base"], keep_last=1)
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    incremental_apply(based["log"], based["base"], run_id="r2")  # v1 expires here
    assert 1 not in {s["version"] for s in list_snapshots(based["base"])}
    r = refresh_derived(out, run_id="d1")
    assert r["refreshed"] and r["strategy"] == "full"
    _assert_matches(out, oracle_final)


def test_mor_full_refresh_when_pin_expired(ray_session, small_log, tmp_path):
    """A derived table with merge-on-read deltas whose pinned base version
    expired: refresh_derived(mode='mor') recomputes in full as a merge-on-read
    upsert (the bucket manifests gain deltas, nothing is rewritten) and
    converges."""
    from odibel_ray.cdc.sink import enable_snapshots, load_manifests

    logs = []
    for frac in (0.4, 0.6, 0.8):
        d = str(tmp_path / f"p{int(frac * 100)}")
        split_log(small_log["log_dir"], d, frac=frac)
        logs.append(os.path.join(d, "change_log"))
    base, out = str(tmp_path / "base"), str(tmp_path / "dt")
    replay_publish(logs[0], base, num_buckets=4, run_id="r0")
    create_derived(base, out, transform=SPEC, num_buckets=4, run_id="d0")
    incremental_apply(logs[1], base, run_id="r1")
    pinned = refresh_derived(out, run_id="d1", mode="mor")["base_version"]

    def n_deltas():
        return sum(len(m.get("deltas", [])) for m in load_manifests(out).values())

    before = n_deltas()
    assert before > 0
    enable_snapshots(base, keep_last=2)
    incremental_apply(logs[2], base, run_id="r2")
    incremental_apply(small_log["log_dir"], base, run_id="r3")
    assert pinned not in {s["version"] for s in list_snapshots(base)}
    r = refresh_derived(out, run_id="d2", mode="mor")
    assert r["refreshed"] and r["strategy"] == "full"
    assert n_deltas() > before
    _assert_matches(out, replay_oracle(small_log["log_dir"]))


def test_refresh_noop_and_validation(ray_session, based, tmp_path):
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=SPEC, num_buckets=4, run_id="d0")
    assert refresh_derived(out, run_id="d1")["refreshed"] is False
    with pytest.raises(ValueError, match="strategy"):
        refresh_derived(out, run_id="d1", strategy="bogus")
    with pytest.raises(ValueError, match="unsupported where op"):
        create_derived(
            based["base"], str(tmp_path / "x"),
            transform={"where": [["score", "~", 1]]},
        )
    with pytest.raises(ValueError, match="unsupported derive fn"):
        create_derived(
            based["base"], str(tmp_path / "x"),
            transform={"derive": {"z": ["sqrt", "score"]}},
        )


def test_default_columns_resolve_to_all(ray_session, based, tmp_path):
    """columns=None snapshots the base's full value-column list at create
    time; a plain filter keeps every column."""
    out = str(tmp_path / "dt")
    create_derived(
        based["base"], out,
        transform={"where": [["role", "==", "assistant"]]},
        num_buckets=4, run_id="d0",
    )
    got = read_derived(out).to_pandas()
    oracle = replay_oracle(based["plog"]).to_pandas()
    exp = oracle[oracle["role"] == "assistant"]
    assert set(got.columns) == set(exp.columns)
    assert len(got) == len(exp)


@pytest.mark.parametrize("strategy", ["rescan", "feed"])
def test_refresh_deletes_only_keys_the_table_holds(ray_session, based, oracle_final, tmp_path,
                                                   strategy):
    """A dirty key that fails the WHERE is a delete only when the derived
    table holds it: with a WHERE few rows pass, ``rows_deleted`` is exactly
    the keys that left the table (so at most its row count), and the rows
    still match the full recompute."""
    spec = {**SPEC, "where": [["score", ">=", 0.9]]}
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=spec, num_buckets=4, run_id="d0")
    before = {(r["conv_id"], r["turn_idx"]) for r in read_derived(out).take_all()}
    feed = str(tmp_path / "feed")
    incremental_apply(based["log"], based["base"], run_id="r2", feed_dir=feed,
                      feed_values=FEED_VALUES)
    r = refresh_derived(out, run_id="d1", strategy=strategy, feed=feed)
    after = {(r["conv_id"], r["turn_idx"]) for r in read_derived(out).take_all()}
    assert r["rows_deleted"] <= len(before)
    assert r["rows_deleted"] == len(before - after)
    want = replay_oracle(based["log"]).to_pandas()
    want = want[want["score"] >= 0.9]
    assert after == set(zip(want["conv_id"], want["turn_idx"]))


def test_refresh_deletes_past_the_broadcast_limit(ray_session, based, tmp_path, monkeypatch):
    """Delete candidates that pass the broadcast limit are not collected to
    the driver: every one is kept, and the rows still match the full
    recompute."""
    from odibel_ray.ops import relational

    spec = {**SPEC, "where": [["score", ">=", 0.9]]}
    out = str(tmp_path / "dt")
    create_derived(based["base"], out, transform=spec, num_buckets=4, run_id="d0")
    feed = str(tmp_path / "feed")
    incremental_apply(based["log"], based["base"], run_id="r2", feed_dir=feed,
                      feed_values=FEED_VALUES)
    monkeypatch.setattr(relational, "DEFAULT_BROADCAST_LIMIT", 0)
    refresh_derived(out, run_id="d1", strategy="feed", feed=feed)
    after = {(r["conv_id"], r["turn_idx"]) for r in read_derived(out).take_all()}
    want = replay_oracle(based["log"]).to_pandas()
    want = want[want["score"] >= 0.9]
    assert after == set(zip(want["conv_id"], want["turn_idx"]))
