"""Write-time change feeds on generic upserts (upsert_published feed_dir=)
and the feed cascade in refresh_pipeline(chain_feeds=True)."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from odibel_ray.cdc import (
    create_derived,
    incremental_apply,
    refresh_pipeline,
    replay_publish,
)
from odibel_ray.cdc.mview import create_view, read_view
from odibel_ray.cdc.sink import publish_dataset, upsert_published
from odibel_ray.datagen import split_log

KEYS = ["conv_id", "turn_idx"]


def _feed_df(feed_dir) -> pd.DataFrame:
    files = glob.glob(os.path.join(feed_dir, "bucket=*", "*.parquet"))
    import pyarrow.parquet as pq

    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def test_upsert_feed_shape(ray_session, tmp_path):
    """insert/update/delete rows with before/after images, no-op updates
    dropped, _lsn increasing across runs."""
    out, feed = str(tmp_path / "t"), str(tmp_path / "feed")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]})),
        out, key_cols=["k"], num_buckets=2, run_id="p1",
    )
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b", "d"], "v": [20.0, 4.0]})),
        out,
        deletes=rd.from_arrow(pa.table({"k": ["c", "zz"]})),  # zz: no such key
        run_id="u1", feed_dir=feed,
    )
    df = _feed_df(feed).sort_values("k").reset_index(drop=True)
    assert df.columns.tolist() == ["k", "change", "v_before", "v_after", "_lsn"]
    assert df.k.tolist() == ["b", "c", "d"]  # zz emitted nothing
    assert df.change.tolist() == ["update", "delete", "insert"]
    assert df.v_before.tolist()[0] == 2.0 and df.v_after.tolist()[0] == 20.0
    assert pd.isna(df.v_after.tolist()[1]) and pd.isna(df.v_before.tolist()[2])
    lsn1 = df._lsn.unique().tolist()
    assert lsn1 == [1]
    # second run: a no-op update (same value) emits nothing; lsn advances
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b", "d"], "v": [20.0, 44.0]})),
        out, run_id="u2", feed_dir=feed,
    )
    df2 = _feed_df(feed)
    assert len(df2) == 4 and set(df2._lsn) == {1, 2}
    newest = df2[df2._lsn == 2]
    assert newest.k.tolist() == ["d"] and newest.change.tolist() == ["update"]


def test_two_upserts_under_the_default_run_id_keep_both_feeds(ray_session, tmp_path):
    """Two copy-on-write upserts with the default run_id into one feed
    directory: each names its feed file by its write sequence too, so the
    second does not overwrite the first's rows."""
    out, feed = str(tmp_path / "t"), str(tmp_path / "feed")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a", "b"], "v": [1.0, 2.0]})), out,
                    key_cols=["k"], num_buckets=1, run_id="p1")
    upsert_published(rd.from_arrow(pa.table({"k": ["a"], "v": [10.0]})), out, feed_dir=feed)
    upsert_published(rd.from_arrow(pa.table({"k": ["b"], "v": [20.0]})), out, feed_dir=feed)
    df = _feed_df(feed).sort_values("k").reset_index(drop=True)
    assert df[["k", "change", "_lsn"]].values.tolist() == [["a", "update", 1], ["b", "update", 2]]
    assert len(glob.glob(os.path.join(feed, "bucket=*", "*.parquet"))) == 2


def test_feed_refused_with_pending_ddl(ray_session, tmp_path):
    from odibel_ray.cdc import alter_published

    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]})), out,
                    key_cols=["k"], num_buckets=1, run_id="p1")
    alter_published(out, rename={"v": "value"})
    with pytest.raises(ValueError, match="op log"):
        upsert_published(
            rd.from_arrow(pa.table({"k": ["a"], "value": [2.0]})), out,
            run_id="u1", feed_dir=str(tmp_path / "feed"),
        )


@pytest.fixture()
def chain(small_log, tmp_path):
    """bronze → silver (derived) → gold (mview over silver)."""
    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    bronze = str(tmp_path / "bronze")
    replay_publish(os.path.join(prefix, "change_log"), bronze, num_buckets=4, run_id="r1")
    silver = str(tmp_path / "silver")
    create_derived(
        bronze, silver,
        transform={"where": [["score", ">=", 0.5]], "columns": ["role", "score"],
                   "derive": {"text_len": ["len", "text"]}},
        num_buckets=4, run_id="d0",
    )
    gold = str(tmp_path / "gold")
    create_view(silver, gold, group_keys=["role"],
                aggs={"n": ("count", ""), "sum_len": ("sum", "text_len")}, run_id="g0")
    return {"log": small_log["log_dir"], "bronze": bronze, "silver": silver, "gold": gold}


def _expected_gold(oracle_t) -> pd.DataFrame:
    df = oracle_t.to_pandas()
    df = df[df["score"] >= 0.5].copy()
    df["text_len"] = df["text"].str.len().astype("int64")
    return (
        df.groupby("role", as_index=False)
        .agg(n=("role", "size"), sum_len=("text_len", "sum"))
        .sort_values("role").reset_index(drop=True)
    )


def test_cascade_skips_snapshot_diffs(ray_session, chain, oracle_final, tmp_path, monkeypatch):
    """chain_feeds=True: gold consumes silver's upsert feed — NO snapshot
    diff runs anywhere (table_changes is poisoned), and the result matches
    the recompute."""
    from odibel_ray.cdc import sink as _sink

    feed = str(tmp_path / "bfeed")
    incremental_apply(chain["log"], chain["bronze"], run_id="r2", feed_dir=feed,
                      feed_values=["role", "score", "text"], feed_lsn=True)

    def _boom(*a, **k):  # any diff = the cascade failed
        raise AssertionError("snapshot diff ran despite chained feeds")

    monkeypatch.setattr(_sink, "table_changes", _boom)
    res = refresh_pipeline(
        [chain["gold"], chain["silver"]], run_id="p1",
        feeds={chain["silver"]: feed},
        strategies={chain["silver"]: "feed", chain["gold"]: "delta"},
        chain_feeds=True,
    )
    monkeypatch.undo()
    assert all(r["refreshed"] for r in res["results"].values())
    got = read_view(chain["gold"]).to_pandas().sort_values("role").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["role", "n", "sum_len"]], _expected_gold(oracle_final), check_dtype=False
    )
    # consumed feed dirs were cleaned up
    assert not os.path.isdir(os.path.join(chain["silver"], "_feeds", "p1"))


def test_cascade_stale_pin_falls_back_to_diff(ray_session, chain, oracle_final, tmp_path):
    """Make gold stale (silver refreshes once without gold), then cascade:
    gold's pin no longer matches silver's pre-refresh version, so the chained
    feed is rejected and the snapshot diff converges it instead."""
    from odibel_ray.cdc.derived import refresh_derived

    mid = str(tmp_path / "mid")
    split_log(chain["log"], mid, frac=0.8)
    incremental_apply(os.path.join(mid, "change_log"), chain["bronze"], run_id="r2")
    refresh_derived(chain["silver"], run_id="s-solo")  # gold now one version behind
    incremental_apply(chain["log"], chain["bronze"], run_id="r3")
    res = refresh_pipeline(
        [chain["gold"], chain["silver"]], run_id="p2", chain_feeds=True,
    )
    assert all(r["refreshed"] for r in res["results"].values())
    got = read_view(chain["gold"]).to_pandas().sort_values("role").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["role", "n", "sum_len"]], _expected_gold(oracle_final), check_dtype=False
    )


def test_tail_feed_cascade(ray_session, chain, oracle_final, monkeypatch):
    """tail_log(feed_values=...): downstream converges once up front, then
    every applying round rides the accumulated bronze feed + chained hop
    feeds — NO snapshot diff runs during the rounds."""
    from odibel_ray.cdc import sink as _sink
    from odibel_ray.cdc.tail import tail_log

    def _boom(*a, **k):
        raise AssertionError("snapshot diff ran during a feed-cascade round")

    # the boot convergence MAY diff (that's its job); poison only afterwards
    import odibel_ray.cdc.pipeline as _pipe

    real_refresh = _pipe.refresh_pipeline
    calls = {"n": 0}

    def wrapped(*a, **k):
        calls["n"] += 1
        if calls["n"] > 1:  # past the boot convergence
            monkeypatch.setattr(_sink, "table_changes", _boom)
        return real_refresh(*a, **k)

    monkeypatch.setattr(_pipe, "refresh_pipeline", wrapped)
    res = tail_log(
        chain["log"], chain["bronze"], max_rounds=4, stop_when_idle=1,
        downstream=[chain["gold"], chain["silver"]],
        feed_values=["role", "score", "text"], snapshots=4,
    )
    monkeypatch.undo()
    assert any(r["mode"] == "downstream" for r in res["history"])
    got = read_view(chain["gold"]).to_pandas().sort_values("role").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["role", "n", "sum_len"]], _expected_gold(oracle_final), check_dtype=False
    )
