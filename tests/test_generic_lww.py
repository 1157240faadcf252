"""The one LWW merge behind every generic bucket write: nested payloads and
null keys in both upsert modes, and a derandomized upsert property test
(table rows and change-feed rows) against a pandas reference."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from odibel_ray.cdc.dml import update_published
from odibel_ray.cdc.sink import (
    compact_published,
    publish_dataset,
    read_published,
    upsert_published,
)

ITEMS = pa.list_(pa.struct([("name", pa.string()), ("n", pa.int64())]))


def _rows(out: str) -> dict:
    return {r["k"]: r for r in read_published(out).take_all()}


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_nested_upsert_and_update(ray_session, tmp_path, mode):
    """An upsert and an ``update_published`` into a table with a
    ``list<struct>`` column return the new nested values, before and after
    a compaction."""
    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(pa.table({
        "k": ["a", "b", "c", "d"], "v": [1, 2, 3, 4],
        "items": pa.array([[{"name": "x", "n": 1}], [], None,
                           [{"name": "y", "n": 2}, {"name": "z", "n": 3}]], ITEMS),
    })), out, key_cols=["k"], num_buckets=2, run_id="p1")
    upsert_published(rd.from_arrow(pa.table({
        "k": ["b", "e"], "v": [20, 5],
        "items": pa.array([[{"name": "w", "n": 9}], [{"name": "e", "n": 5}]], ITEMS),
    })), out, deletes=rd.from_arrow(pa.table({"k": ["c"]})), run_id="u1", mode=mode)
    update_published(out, {"v": 40}, [("k", "==", "d")], run_id="u2", mode=mode)
    rows = _rows(out)
    assert sorted(rows) == ["a", "b", "d", "e"]
    assert rows["b"] == {"k": "b", "v": 20, "items": [{"name": "w", "n": 9}]}
    assert rows["d"] == {"k": "d", "v": 40,
                         "items": [{"name": "y", "n": 2}, {"name": "z", "n": 3}]}
    assert rows["e"]["items"] == [{"name": "e", "n": 5}]
    assert rows["a"]["items"] == [{"name": "x", "n": 1}]
    compact_published(out, run_id="c1")
    assert _rows(out) == rows


def test_cow_feed_compares_nested_values(ray_session, tmp_path):
    """A copy-on-write upsert with ``feed_dir`` and the default
    ``feed_values`` (every non-key column, the ``list<struct>`` one
    included) feeds the delete, the insert and the two updates (one of a
    nested value only), and nothing for an unchanged or an untouched key."""
    out, feed = str(tmp_path / "t"), str(tmp_path / "feed")
    items = [[{"name": "x", "n": 1}], [], None, [{"name": "y", "n": 2}], [{"name": "z", "n": 3}]]
    publish_dataset(rd.from_arrow(pa.table({
        "k": ["a", "b", "c", "d", "f"], "v": [1, 2, 3, 4, 6], "items": pa.array(items, ITEMS),
    })), out, key_cols=["k"], num_buckets=2, run_id="p1")
    upsert_published(rd.from_arrow(pa.table({
        "k": ["a", "b", "d", "e"], "v": [1, 2, 40, 5],
        "items": pa.array([[{"name": "x", "n": 1}], [{"name": "w", "n": 9}],
                           [{"name": "y", "n": 2}], None], ITEMS),
    })), out, deletes=rd.from_arrow(pa.table({"k": ["c"]})), run_id="u1", feed_dir=feed)
    assert _feed_rows(feed, "u1") == [
        ("b", "update", 2, 2, [], [{"name": "w", "n": 9}], 1),
        ("c", "delete", 3, None, None, None, 1),
        ("d", "update", 4, 40, [{"name": "y", "n": 2}], [{"name": "y", "n": 2}], 1),
        ("e", "insert", None, 5, None, None, 1),
    ]


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_null_key_upsert_is_one_key(ray_session, tmp_path, mode):
    """An upsert of a null key replaces the null-keyed row, as the transcript
    apply treats null as one key: 3 rows, before and after a compaction."""
    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a", "b", None], "v": [1.0, 2.0, 3.0]})),
                    out, key_cols=["k"], num_buckets=2, run_id="p1")
    upsert_published(rd.from_arrow(pa.table({"k": pa.array([None], pa.string()), "v": [30.0]})),
                     out, run_id="u1", mode=mode)
    for _ in range(2):
        df = read_published(out).to_pandas()
        assert len(df) == 3
        assert df[df.k.isna()].v.tolist() == [30.0]
        compact_published(out, run_id="c1")


def _table_df(out: str) -> pd.DataFrame:
    return read_published(out).to_pandas().sort_values("k", na_position="first")\
        .reset_index(drop=True)


def _by_key(rows) -> list[tuple]:
    return sorted(rows, key=lambda r: (r[0] is not None, r[0] or ""))


def _feed_rows(feed: str, run_id: str) -> list[tuple]:
    files = glob.glob(os.path.join(feed, "bucket=*", f"upsert-*-{run_id}.parquet"))
    return _by_key(tuple(r.values()) for f in files for r in pq.read_table(f).to_pylist())


def _ref_feed(old: pd.DataFrame, new: pd.DataFrame, seq: int) -> list[tuple]:
    """The reference change feed: an outer merge of the two states on ``k``
    (pandas pairs null keys), one row per inserted, deleted or changed key."""
    m = old.merge(new, on="k", how="outer", suffixes=("_before", "_after"), indicator=True)
    rows = []
    for r in m.to_dict("records"):
        side = {s: [None if pd.isna(r[f"v_{s}"]) else float(r[f"v_{s}"]),
                    None if pd.isna(r[f"w_{s}"]) else int(r[f"w_{s}"])]
                for s in ("before", "after")}
        change = {"left_only": "delete", "right_only": "insert", "both": "update"}[r["_merge"]]
        if change == "update" and side["before"] == side["after"]:
            continue
        k = None if pd.isna(r["k"]) else r["k"]
        rows.append((k, change, side["before"][0], side["after"][0],
                     side["before"][1], side["after"][1], seq))
    return _by_key(rows)


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_upsert_matches_pandas_reference(ray_session, tmp_path, mode):
    """Derandomized upsert rounds (a null key, float values with nulls,
    updates that change nothing, deletes of updated and of absent keys)
    leave the table a pandas reference computes; in copy-on-write mode
    each round's ``feed_dir`` rows equal the reference's state diff."""
    rng = np.random.default_rng(7)
    universe = np.array([None, *(f"k{i:02d}" for i in range(24))], dtype=object)

    def values(n: int) -> tuple[list, list]:
        v = [None if x < 0.15 else float(np.round(x * 10, 1)) for x in rng.random(n)]
        return v, [int(x) for x in rng.integers(0, 3, n)]

    first = rng.choice(universe, 14, replace=False)
    v, w = values(len(first))
    state = pd.DataFrame({"k": first, "v": v, "w": w})
    out, feed = str(tmp_path / "t"), str(tmp_path / "feed")
    publish_dataset(rd.from_arrow(pa.Table.from_pandas(state, preserve_index=False)),
                    out, key_cols=["k"], num_buckets=3, run_id="p1")
    for seq in range(1, 5):
        up_keys = rng.choice(universe, 6, replace=False)
        v, w = values(len(up_keys))
        ups = pd.DataFrame({"k": up_keys, "v": v, "w": w})
        # an update that repeats a live row's values changes nothing
        same = state.iloc[[seq % len(state)]]
        ups = pd.concat([ups[~ups.k.isin(same.k)], same], ignore_index=True)
        del_keys = rng.choice(universe, 4, replace=False)
        kw = {"feed_dir": feed} if mode == "cow" else {}
        upsert_published(
            rd.from_arrow(pa.Table.from_pandas(ups, preserve_index=False)), out,
            deletes=rd.from_arrow(pa.table({"k": pa.array(list(del_keys), pa.string())})),
            run_id=f"u{seq}", mode=mode, **kw)
        old = state
        kept = state[~state.k.isin(list(del_keys) + list(ups.k))]
        state = pd.concat([kept, ups], ignore_index=True)
        want = state.sort_values("k", na_position="first").reset_index(drop=True)
        pd.testing.assert_frame_equal(_table_df(out), want, check_dtype=False)
        if mode == "cow":
            assert _feed_rows(feed, f"u{seq}") == _ref_feed(old, state, seq)
    compact_published(out, run_id="c1")
    pd.testing.assert_frame_equal(_table_df(out), want, check_dtype=False)
