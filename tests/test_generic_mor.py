"""Merge-on-read upserts on generic published tables: delta staging, the
key-generic LWW merge on read/lookup, compaction fold-back, and the
maintained-table refresh pass-through."""

import os

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from odibel_ray.cdc.sink import (
    compact_published,
    load_manifests,
    lookup_key,
    publish_dataset,
    read_published,
    upsert_published,
)


def _df(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("k").reset_index(drop=True)


@pytest.fixture()
def gen(ray_session, tmp_path):
    out = str(tmp_path / "t")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]})),
        out, key_cols=["k"], num_buckets=2, run_id="p1",
    )
    return out


def test_mor_upsert_read_lookup_compact(ray_session, gen):
    base_files = {b: m["file"] for b, m in load_manifests(gen).items()}
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b", "d"], "v": [20.0, 4.0]})),
        gen, deletes=rd.from_arrow(pa.table({"k": ["c"]})),
        run_id="u1", mode="mor",
    )
    # a second delta shadows the first (max write-seq wins)
    r = upsert_published(
        rd.from_arrow(pa.table({"k": ["b"], "v": [200.0]})),
        gen, run_id="u2", mode="mor",
    )
    assert r["deltas_total"] >= 2
    # base files untouched: only deltas appended
    for b, m in load_manifests(gen).items():
        assert m["file"] == base_files[b] and m.get("deltas")
    df = _df(read_published(gen))
    assert df.k.tolist() == ["a", "b", "d"]
    assert df.v.tolist() == [1.0, 200.0, 4.0]
    assert list(df.columns) == ["k", "v"]  # no _lsn/_op leak on generic reads
    # point lookups merge the same way
    assert lookup_key(gen, "b", system=True)["v"].to_pylist() == [200.0]
    assert len(lookup_key(gen, "c", system=True)) == 0  # tombstoned
    # column projection through the merge
    only_v = read_published(gen, columns=["v"]).to_pandas()
    assert sorted(only_v.v.tolist()) == [1.0, 4.0, 200.0]
    # compaction folds deltas into fresh bases; the answer is unchanged
    c = compact_published(gen, run_id="c1")
    assert c["deltas_total"] == 0
    pd.testing.assert_frame_equal(_df(read_published(gen)), df)
    # CoW upserts work again after the fold
    upsert_published(rd.from_arrow(pa.table({"k": ["e"], "v": [5.0]})), gen, run_id="u3")
    assert _df(read_published(gen)).k.tolist() == ["a", "b", "d", "e"]


def test_mor_new_bucket_degenerates_to_base(ray_session, tmp_path):
    out = str(tmp_path / "t")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]})), out,
        key_cols=["k"], num_buckets=4, run_id="p1",
    )
    # keys landing in never-published buckets become ordinary base writes
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b", "c", "d", "e"], "v": [2.0, 3.0, 4.0, 5.0]})),
        out, run_id="u1", mode="mor",
    )
    df = _df(read_published(out))
    assert df.k.tolist() == list("abcde")


def test_mor_guards(ray_session, gen):
    with pytest.raises(ValueError, match="change feed"):
        upsert_published(
            rd.from_arrow(pa.table({"k": ["x"], "v": [0.0]})), gen,
            run_id="u1", mode="mor", feed_dir="/tmp/nope",
        )
    upsert_published(
        rd.from_arrow(pa.table({"k": ["x"], "v": [0.0]})), gen,
        run_id="u2", mode="mor",
    )
    with pytest.raises(ValueError, match="compact_published first"):
        upsert_published(  # CoW onto a delta-bearing table
            rd.from_arrow(pa.table({"k": ["y"], "v": [0.0]})), gen, run_id="u3",
        )


def test_mor_respects_expectations(ray_session, gen):
    from odibel_ray.cdc import set_expectations

    set_expectations(gen, [["v", ">=", 0.0]])
    with pytest.raises(ValueError, match="violates"):
        upsert_published(
            rd.from_arrow(pa.table({"k": ["z"], "v": [-1.0]})), gen,
            run_id="u1", mode="mor",
        )


def test_derived_refresh_mor(ray_session, small_log, oracle_final, tmp_path):
    """A maintained silver table refreshed with mode='mor': the refresh
    appends deltas instead of rewriting buckets, reads merge correctly, and
    compaction folds without changing the answer."""
    from odibel_ray.cdc import create_derived, incremental_apply, read_derived, refresh_derived, replay_publish
    from odibel_ray.datagen import split_log

    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    bronze = str(tmp_path / "bronze")
    replay_publish(os.path.join(prefix, "change_log"), bronze, num_buckets=4, run_id="r1")
    silver = str(tmp_path / "silver")
    create_derived(
        bronze, silver,
        transform={"where": [["score", ">=", 0.5]], "columns": ["role", "score"],
                   "derive": {}},
        num_buckets=4, run_id="d0",
    )
    incremental_apply(small_log["log_dir"], bronze, run_id="r2")
    r = refresh_derived(silver, run_id="s1", mode="mor")
    assert r["refreshed"]
    assert any(m.get("deltas") for m in load_manifests(silver).values())
    exp = oracle_final.to_pandas()
    exp = exp[exp["score"] >= 0.5][["conv_id", "turn_idx", "role", "score"]]
    exp = exp.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    got = (read_derived(silver).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp,
                                  check_dtype=False, atol=1e-9)
    compact_published(silver, run_id="c1")
    got2 = (read_derived(silver).to_pandas()
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got2[exp.columns.tolist()], exp,
                                  check_dtype=False, atol=1e-9)


def test_generic_lookup_plain_returns_full_row(ray_session, gen):
    """Non-system lookups on GENERIC tables must not project to the
    transcript logical columns (regression: returned zero columns)."""
    t = lookup_key(gen, "b")
    assert t.column_names == ["k", "v"] and t.to_pylist() == [{"k": "b", "v": 2.0}]


def test_mor_default_run_id_repeats_keep_every_delta(ray_session, tmp_path):
    """Two MOR upserts under the default run_id each stage their own delta:
    the second must not overwrite the first (losing its update), and a third
    with a different row count must not break the manifest row-count audit
    (which would drop the bucket from reads)."""
    out = str(tmp_path / "one")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b", "c"], "v": [1.0, 2.0, 3.0]})),
        out, key_cols=["k"], num_buckets=1, run_id="p1",
    )
    upsert_published(rd.from_arrow(pa.table({"k": ["a"], "v": [10.0]})), out, mode="mor")
    upsert_published(rd.from_arrow(pa.table({"k": ["b"], "v": [20.0]})), out, mode="mor")
    df = _df(read_published(out))
    assert df.v.tolist() == [10.0, 20.0, 3.0]
    upsert_published(
        rd.from_arrow(pa.table({"k": ["c", "d"], "v": [30.0, 4.0]})), out, mode="mor"
    )
    assert len(load_manifests(out)[0]["deltas"]) == 3
    df = _df(read_published(out))
    assert df.k.tolist() == ["a", "b", "c", "d"]
    assert df.v.tolist() == [10.0, 20.0, 30.0, 4.0]


@pytest.mark.parametrize("mode", ["cow", "mor"])
def test_update_wins_over_delete_of_same_key(ray_session, gen, mode):
    """One upsert that updates AND deletes a key keeps the update — the same
    rule in copy-on-write and merge-on-read."""
    upsert_published(
        rd.from_arrow(pa.table({"k": ["a"], "v": [10.0]})), gen,
        deletes=rd.from_arrow(pa.table({"k": ["a", "c"]})), run_id="u1", mode=mode,
    )
    df = _df(read_published(gen))
    assert df.k.tolist() == ["a", "b"]
    assert df.v.tolist() == [10.0, 2.0]
    assert lookup_key(gen, "a")["v"].to_pylist() == [10.0]
    compact_published(gen, run_id="c1")
    assert _df(read_published(gen)).v.tolist() == [10.0, 2.0]


def test_mor_delete_on_fixed_size_list_table(ray_session, tmp_path):
    """A merge-on-read delete pads its tombstone's fixed-size-list column
    with a list of null elements, which Parquet stores readably (a null
    fixed-size list reads back as a short list and fails the read)."""
    out = str(tmp_path / "fsl")
    vec = pa.array([[1, 2], [3, 4], [5, 6]], pa.list_(pa.int32(), 2))
    publish_dataset(rd.from_arrow(pa.table({"k": ["a", "b", "c"], "vec": vec})), out,
                    key_cols=["k"], num_buckets=1, run_id="p1")
    upsert_published(None, out, deletes=rd.from_arrow(pa.table({"k": ["b"]})),
                     run_id="d1", mode="mor")
    assert len(load_manifests(out)[0]["deltas"]) == 1
    rows = sorted(read_published(out).take_all(), key=lambda r: r["k"])
    assert [(r["k"], list(r["vec"])) for r in rows] == [("a", [1, 2]), ("c", [5, 6])]
    assert lookup_key(out, "b").num_rows == 0
    compact_published(out, run_id="c1")
    assert sorted(r["k"] for r in read_published(out).take_all()) == ["a", "c"]
