"""Zone-map data skipping (cdc/skipping.py): footer-stats file pruning,
scan-level predicate pushdown on read_published(where=...), range-clustered
publish layouts, and merge-then-filter on merge-on-read buckets."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from odibel_ray.cdc import incremental_apply, read_published, replay_publish
from odibel_ray.cdc.skipping import (
    bucket_of_range,
    check_where,
    file_may_match,
    where_expr,
)
from odibel_ray.cdc.sink import publish_dataset, upsert_published
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _write(tmp_path, name, table, row_group_size=None):
    p = str(tmp_path / name)
    pq.write_table(table, p, row_group_size=row_group_size)
    return p


def test_file_may_match_ops(ray_session, tmp_path):
    t = pa.table({"a": [1, 2, 3, 10, 11, 12], "s": ["aa", "ab", "ac", "xa", "xb", None]})
    p = _write(tmp_path, "f.parquet", t, row_group_size=3)  # two row groups

    assert file_may_match(p, [("a", "==", 2)])
    assert not file_may_match(p, [("a", "==", 5)])  # falls between both groups
    assert not file_may_match(p, [("a", ">", 12)])
    assert file_may_match(p, [("a", ">=", 12)])
    assert not file_may_match(p, [("a", "<", 1)])
    assert file_may_match(p, [("a", "<=", 1)])
    assert file_may_match(p, [("a", "in", [5, 11])])
    assert not file_may_match(p, [("a", "in", [5, 6])])
    assert file_may_match(p, [("s", "==", "ab")])
    assert not file_may_match(p, [("s", "==", "b")])
    assert file_may_match(p, [("s", "is_null", None)])
    assert file_may_match(p, [("s", "not_null", None)])
    # conjunction must hold within ONE row group: a<=3 lives in rg0, s>='xa'
    # in rg1 — no single group satisfies both
    assert not file_may_match(p, [("a", "<=", 3), ("s", ">=", "xa")])
    # absent column null-fills: value ops can't match, is_null can
    assert not file_may_match(p, [("zzz", "==", 1)])
    assert file_may_match(p, [("zzz", "is_null", None)])
    # constant column + != / not_in
    c = _write(tmp_path, "c.parquet", pa.table({"a": [7, 7, 7]}))
    assert not file_may_match(c, [("a", "!=", 7)])
    assert not file_may_match(c, [("a", "not_in", [7, 9])])
    assert file_may_match(c, [("a", "not_in", [8, 9])])
    # all-null column never matches a value comparison
    n = _write(tmp_path, "n.parquet", pa.table({"a": pa.array([None, None], pa.int64())}))
    assert not file_may_match(n, [("a", "==", 1)])
    assert file_may_match(n, [("a", "is_null", None)])
    assert not file_may_match(n, [("a", "not_null", None)])
    with pytest.raises(ValueError, match="unsupported where op"):
        check_where([("a", "~", 1)])


@pytest.fixture()
def published(small_log, tmp_path):
    out = str(tmp_path / "table")
    replay_publish(small_log["log_dir"], out, num_buckets=4, run_id="r1")
    return {"log": small_log["log_dir"], "out": out}


def _oracle_filtered(log_dir, fn) -> pd.DataFrame:
    df = replay_oracle(log_dir).to_pandas()
    return fn(df).sort_values(KEYS).reset_index(drop=True)


def _got(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values(KEYS).reset_index(drop=True)


def test_where_on_hash_table_matches_oracle(ray_session, published):
    got = _got(read_published(published["out"], where=[("score", ">=", 0.5)]))
    exp = _oracle_filtered(published["log"], lambda df: df[df["score"] >= 0.5])
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)
    # conjunction + string op
    got2 = _got(
        read_published(
            published["out"], where=[("role", "==", "user"), ("turn_idx", "<", 3)]
        )
    )
    exp2 = _oracle_filtered(
        published["log"], lambda df: df[(df["role"] == "user") & (df["turn_idx"] < 3)]
    )
    pd.testing.assert_frame_equal(got2[exp2.columns.tolist()], exp2, check_dtype=False)


def test_where_prunes_everything_returns_typed_empty(ray_session, published):
    stats = {}
    ds = read_published(published["out"], where=[("score", ">", 10.0)], prune_stats=stats)
    assert stats["files_read"] == 0 and stats["files_total"] == 4
    assert ds.count() == 0
    assert "conv_id" in ds.schema().names


def test_clustered_publish_prunes_files(ray_session, published, tmp_path):
    serving = str(tmp_path / "serving")
    publish_dataset(
        read_published(published["out"]),
        serving,
        key_cols=KEYS,
        num_buckets=8,
        cluster_by="conv_id",
        run_id="c1",
    )
    stats = {}
    got = _got(
        read_published(
            serving, system=True, where=[("conv_id", "<", "conv_00000010")],
            prune_stats=stats,
        )
    )
    assert stats["files_read"] < stats["files_total"]  # zone maps bite
    exp = _oracle_filtered(
        published["log"], lambda df: df[df["conv_id"] < "conv_00000010"]
    )
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)
    # full read of the clustered copy still equals the source table
    assert read_published(serving, system=True).count() == read_published(published["out"]).count()
    with pytest.raises(ValueError, match="range-clustered"):
        upsert_published(read_published(published["out"]).limit(1), serving, run_id="u1")


def test_where_on_mor_table_filters_after_merge(ray_session, small_log, tmp_path):
    """Updates move rows across the predicate boundary; the filter must see
    the post-LWW-merge value, not the base file's."""
    log = small_log["log_dir"]
    prefix = str(tmp_path / "prefix")
    split_log(log, prefix, frac=0.6)
    out = str(tmp_path / "table")
    replay_publish(os.path.join(prefix, "change_log"), out, num_buckets=4, run_id="r1")
    incremental_apply(log, out, run_id="r2", mode="mor")
    stats = {}
    got = _got(read_published(out, where=[("score", ">=", 0.5)], prune_stats=stats))
    assert stats["files_read"] > 4  # deltas counted too
    exp = _oracle_filtered(log, lambda df: df[df["score"] >= 0.5])
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)
    # column projection + predicate on a projected-away column still works
    got_cols = read_published(
        out, columns=["conv_id", "turn_idx"], where=[("score", ">=", 0.5)]
    ).to_pandas()
    assert len(got_cols) == len(exp) and set(got_cols.columns) == {"conv_id", "turn_idx"}


def test_null_semantics_match_sql(ray_session, tmp_path):
    """Rows with NULL in the predicate column fail every comparison (SQL
    WHERE), on both the scan-pushdown and post-merge paths."""
    t = pa.table(
        {
            "k": ["a", "b", "c", "d"],
            "v": pa.array([1.0, None, 3.0, None], pa.float64()),
        }
    )
    out = str(tmp_path / "t")
    import ray.data as rd

    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=2, run_id="p1")
    rows = read_published(out, system=True, where=[("v", ">=", 0.0)]).take_all()
    assert sorted(r["k"] for r in rows) == ["a", "c"]
    rows = read_published(out, system=True, where=[("v", "is_null", None)]).take_all()
    assert sorted(r["k"] for r in rows) == ["b", "d"]
    rows = read_published(out, system=True, where=[("v", "not_in", [1.0])]).take_all()
    assert sorted(r["k"] for r in rows) == ["c"]


def test_bucket_of_range_assignment():
    t = pa.table({"c": ["a", "m", "z", None, "mm"]})
    b = bucket_of_range(t, "c", ["g", "t"])
    assert list(b) == [0, 1, 2, 0, 1]
    assert list(bucket_of_range(t, "c", [])) == [0, 0, 0, 0, 0]


def test_where_expr_builds():
    e = where_expr([("a", ">=", 1), ("b", "in", ["x"]), ("c", "is_null", None)])
    assert e is not None


def test_zorder_publish_prunes_both_columns(ray_session, tmp_path):
    """Multi-column cluster_by publishes a Z-ORDERED layout: predicates on
    EITHER clustered column prune files, a conjunctive predicate on both
    prunes hardest, and every read matches the plain filter."""
    import numpy as np
    import ray.data as rd

    from odibel_ray.cdc.sink import publish_dataset, read_published, upsert_published

    rng = np.random.default_rng(7)
    n = 40000
    t = pa.table({
        "k": np.arange(n).astype(str),
        "x": rng.uniform(0, 100, n),
        "cat": rng.choice(list("abcdefgh"), n).astype(object),
    })
    out = str(tmp_path / "z")
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=16,
                    run_id="p1", cluster_by=["x", "cat"])
    df = t.to_pandas()

    def prune(where):
        stats = {}
        got = read_published(out, where=where, prune_stats=stats).to_pandas()
        return got, stats

    got, s1 = prune([("x", "<", 10.0)])
    assert len(got) == (df.x < 10).sum() and s1["files_read"] < s1["files_total"]
    got, s2 = prune([("cat", "==", "a")])
    assert len(got) == (df.cat == "a").sum() and s2["files_read"] < s2["files_total"]
    got, s3 = prune([("x", "<", 10.0), ("cat", "==", "a")])
    assert len(got) == ((df.x < 10) & (df.cat == "a")).sum()
    assert s3["files_read"] <= min(s1["files_read"], s2["files_read"])
    # full read equals the source; no _z helper column leaks
    full = read_published(out).to_pandas()
    assert len(full) == n and list(full.columns) == ["k", "x", "cat"]
    # clustered layouts are serving copies: upserts refused
    with pytest.raises(ValueError, match="range-clustered"):
        upsert_published(
            rd.from_arrow(pa.table({"k": ["zz"], "x": [1.0], "cat": ["a"]})),
            out, run_id="u1",
        )


def test_zorder_resume_reuses_layout(ray_session, tmp_path):
    """A killed z-ordered publish resumed under a different run reuses the
    pinned zref/bounds (re-ranking against a new sample would misroute
    rows); a different column list is refused."""
    import numpy as np
    import ray.data as rd

    from odibel_ray.cdc.sink import publish_dataset, read_published

    rng = np.random.default_rng(3)
    t = pa.table({"k": np.arange(1000).astype(str), "x": rng.uniform(size=1000),
                  "cat": rng.choice(list("ab"), 1000).astype(object)})
    out = str(tmp_path / "z")
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=4,
                    run_id="p1", cluster_by=["x", "cat"])
    # resume (idempotent re-publish) under another run id: same layout
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=4,
                    run_id="p2", cluster_by=["x", "cat"])
    assert read_published(out).count() == 1000
    with pytest.raises(ValueError, match="laid out with cluster_by"):
        publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=4,
                        run_id="p3", cluster_by=["cat", "x"])


def test_bucket_prune_key_equality(ray_session, published, tmp_path, monkeypatch):
    """Pinned hash-key equality routes the scan to the candidate bucket(s)
    only — lookup_key's bucket recomputation inside the general read."""
    log, out = published["log"], published["out"]
    full = replay_oracle(log).to_pandas()
    conv = full["conv_id"].iloc[0]

    # transcript table hashes conv_id only: == probe opens exactly 1 bucket
    stats = {}
    got = _got(read_published(out, where=[("conv_id", "==", conv)],
                              prune_stats=stats))
    exp = _oracle_filtered(log, lambda df: df[df["conv_id"] == conv])
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)
    assert stats["files_total"] == 4 and stats["files_read"] == 1

    # in-clause routes to at most len(values) buckets
    convs = sorted(full["conv_id"].unique())[:3]
    stats = {}
    got = _got(read_published(out, where=[("conv_id", "in", convs)],
                              prune_stats=stats))
    exp = _oracle_filtered(log, lambda df: df[df["conv_id"].isin(convs)])
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)
    assert stats["files_read"] <= 3

    # unpinned key: no bucket pruning (non-key predicate reads everything
    # the zone maps keep)
    stats = {}
    read_published(out, where=[("role", "==", "user")], prune_stats=stats)
    assert stats["files_read"] == 4

    # generic PAIR-key table: both keys pinned -> exactly 1 bucket;
    # one key pinned -> the pair hash is not recomputable, but each file's
    # key filter over conv_id is: only the buckets holding the key are read
    gen = str(tmp_path / "gen")
    publish_dataset(read_published(out), gen, key_cols=KEYS, num_buckets=8,
                    run_id="g1")
    row = full.iloc[len(full) // 2]
    stats = {}
    got = read_published(
        gen,
        where=[("conv_id", "==", row["conv_id"]),
               ("turn_idx", "==", int(row["turn_idx"]))],
        prune_stats=stats,
    ).take_all()
    assert len(got) == 1 and got[0]["text"] == row["text"]
    assert stats["files_read"] == 1 and stats["files_total"] == 8
    stats = {}
    read_published(gen, where=[("conv_id", "==", row["conv_id"])],
                   prune_stats=stats)
    from odibel_ray.cdc.lww import bucket_of_keys

    held = pa.Table.from_pandas(full[full["conv_id"] == row["conv_id"]][KEYS],
                                preserve_index=False)
    assert stats["files_read"] == len(set(bucket_of_keys(held, KEYS, 8).tolist())) < 8

    # nonexistent (valid-typed) probe: routed to one bucket, empty result
    stats = {}
    ds = read_published(gen, where=[("conv_id", "==", "conv_zzzzzz"),
                                    ("turn_idx", "==", 0)],
                        prune_stats=stats)
    assert ds.count() == 0 and stats["files_read"] <= 1

    # lookup_key routes through the same router: a pq.read_table spy sees
    # exactly the routed bucket's files (base + deltas) on every hash layout
    import ray.data as rd

    from odibel_ray.cdc import sink as sink_mod
    from odibel_ray.cdc.ddl import alter_published
    from odibel_ray.cdc.sink import load_manifests, lookup_key

    reads = []
    real_read = pq.read_table

    def spy(path, *a, **k):
        reads.append(os.path.basename(path))
        return real_read(path, *a, **k)

    monkeypatch.setattr(sink_mod.pq, "read_table", spy)

    def routed_lookup(table, num_buckets, hash_probe, *args, **kw):
        mans = load_manifests(table)
        schema = pq.read_schema(os.path.join(table, mans[min(mans)]["file"]))
        probe_t = pa.table({k: pa.array([v]).cast(schema.field(k).type)
                            for k, v in hash_probe.items()})
        m = mans[int(bucket_of_keys(probe_t, list(hash_probe), num_buckets)[0])]
        reads.clear()
        got = lookup_key(table, *args, **kw)
        assert sorted(reads) == sorted([m["file"], *(d["file"] for d in m.get("deltas", []))])
        return got

    # transcript table with num_buckets: hashes conv_id only
    got = routed_lookup(out, 4, {"conv_id": conv}, conv)
    assert len(got) == (full["conv_id"] == conv).sum()
    # two-key generic table probed with the full key
    got = routed_lookup(gen, 8, {"conv_id": row["conv_id"], "turn_idx": int(row["turn_idx"])},
                        row["conv_id"], turn_idx=int(row["turn_idx"]))
    assert got["text"].to_pylist() == [row["text"]]
    # single-key generic table, with a merge-on-read delta on the key's bucket
    one = str(tmp_path / "one")
    keys = [f"k{i}" for i in range(40)]
    publish_dataset(rd.from_arrow(pa.table({"k": keys, "v": list(range(40))})), one,
                    key_cols=["k"], num_buckets=4, run_id="o1")
    upsert_published(rd.from_arrow(pa.table({"k": ["k7"], "v": [70]})), one,
                     run_id="o2", mode="mor")
    got = routed_lookup(one, 4, {"k": "k7"}, "k7")
    assert got.to_pylist() == [{"k": "k7", "v": 70}]
    assert len(reads) == 2  # base + its delta
    # ... and with a pending (metadata-only) rename of a non-key column
    alter_published(one, rename={"v": "w"})
    got = routed_lookup(one, 4, {"k": "k7"}, "k7")
    assert got.to_pylist() == [{"k": "k7", "w": 70}]
    stats = {}
    ds = read_published(one, where=[("k", "==", "k7")], prune_stats=stats)
    assert ds.take_all() == [{"k": "k7", "w": 70}] and stats["files_read"] == 2


def test_filtered_scan_blocks_carry_schema(ray_session, tmp_path):
    """Every block of a filtered scan carries the read's schema, the blocks
    of files whose rows all fail the predicate too, so gathering the blocks
    (``collect_sorted`` concatenates them) works, with and without a
    projection that leaves the predicate column out."""
    import ray.data as rd

    rows = [{"k": i, "text": f"t{i % 50}", "role": "user" if i % 2 else "bot"}
            for i in range(200)]
    out = str(tmp_path / "t")
    publish_dataset(rd.from_items(rows), out, key_cols=["k"], num_buckets=8)
    where = [("text", "==", "t7")]
    got = collect_sorted(read_published(out, where=where), ["k"])
    assert got.column_names == ["k", "text", "role"]
    assert got["k"].to_pylist() == [7, 57, 107, 157]
    got = collect_sorted(read_published(out, columns=["k"], where=where), ["k"])
    assert got.column_names == ["k"] and got["k"].to_pylist() == [7, 57, 107, 157]
