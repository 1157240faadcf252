"""Storage-partitioned (bucket-aligned, shuffle-free) joins of published tables."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from odibel_ray.cdc import (
    join_published,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
)
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


@pytest.fixture()
def two_tables(ray_session, small_log, tmp_path):
    """Fact table (full state) + co-partitioned annotation table (subset)."""
    base = str(tmp_path / "base")
    fact = str(tmp_path / "fact")
    ann = str(tmp_path / "ann")
    replay_publish(small_log["log_dir"], base, num_buckets=4, run_id="r1")
    publish_dataset(read_published(base), fact, key_cols=KEYS, num_buckets=8,
                    run_id="f1")

    def annotate(t: pa.Table) -> pa.Table:
        t = t.filter(pc.fill_null(pc.greater_equal(t["score"], 0.5), False))
        return pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "text_len": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        })

    publish_dataset(
        read_published(fact).map_batches(annotate, batch_format="pyarrow"),
        ann, key_cols=KEYS, num_buckets=8, run_id="a1",
    )
    return fact, ann


def _expected(fact, ann, how):
    lt = collect_sorted(read_published(fact), KEYS)
    rt = collect_sorted(read_published(ann), KEYS)
    return collect_sorted_table(lt.join(rt, keys=KEYS, join_type=how), KEYS)


def collect_sorted_table(t, keys):
    return t.combine_chunks().take(
        pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys])
    )


def test_spj_inner_and_left_match_arrow_join(two_tables):
    fact, ann = two_tables
    for how, pa_how in (("inner", "inner"), ("left_outer", "left outer")):
        got = collect_sorted(join_published(fact, ann, how=how), KEYS)
        want = _expected(fact, ann, pa_how)
        assert got.select(sorted(got.column_names)).equals(
            want.select(sorted(want.column_names))
        ), how


def test_spj_semi_anti(two_tables):
    fact, ann = two_tables
    lt = collect_sorted(read_published(fact), KEYS)
    n_match = collect_sorted(join_published(fact, ann, how="inner"), KEYS).num_rows
    semi = collect_sorted(join_published(fact, ann, how="left_semi"), KEYS)
    anti = collect_sorted(join_published(fact, ann, how="left_anti"), KEYS)
    assert semi.num_rows == n_match
    assert semi.num_rows + anti.num_rows == lt.num_rows
    assert set(semi.column_names) == set(lt.column_names)


def test_spj_column_pruning_and_validation(two_tables, tmp_path, ray_session):
    fact, ann = two_tables
    got = collect_sorted(
        join_published(fact, ann, how="inner",
                       left_columns=["role"], right_columns=["text_len"]),
        KEYS,
    )
    assert set(got.column_names) == {"conv_id", "turn_idx", "role", "text_len"}

    with pytest.raises(ValueError, match="no columns"):
        join_published(fact, ann, left_columns=["nope"])
    with pytest.raises(ValueError, match="how must be"):
        join_published(fact, ann, how="cross")
    # mismatched bucket count refuses
    other = str(tmp_path / "other")
    publish_dataset(read_published(fact), other, key_cols=KEYS, num_buckets=4,
                    run_id="o1")
    with pytest.raises(ValueError, match="num_buckets differ"):
        join_published(fact, other)


def test_spj_merges_mor_deltas(two_tables, ray_session):
    import ray.data as rd

    fact, ann = two_tables
    rt = collect_sorted(read_published(ann), KEYS)
    one = rt.slice(0, 1).set_column(
        rt.schema.get_field_index("text_len"), "text_len",
        pa.array([999_999], pa.int64()),
    )
    upsert_published(rd.from_arrow(one), ann, run_id="m1", mode="mor")
    got = collect_sorted(join_published(fact, ann, how="inner"), KEYS)
    key = (one["conv_id"][0].as_py(), one["turn_idx"][0].as_py())
    hits = [r for r in got.to_pylist()
            if (r["conv_id"], r["turn_idx"]) == key]
    assert len(hits) == 1 and hits[0]["text_len"] == 999_999


def test_lookup_key_routes_composite_generic_key(
    ray_session, small_log, tmp_path, monkeypatch
):
    """Full-key point lookups on a composite-key generic table open ONLY the
    key's hash bucket (1 file read); a partial composite key is not
    hash-routable, but each file's key filter over the first key column
    routes it to exactly the buckets holding the key."""
    import pyarrow.parquet as ppq

    from odibel_ray.cdc import sink as sink_mod
    from odibel_ray.cdc.sink import lookup_key

    base = str(tmp_path / "base")
    out = str(tmp_path / "tbl")
    replay_publish(small_log["log_dir"], base, num_buckets=4, run_id="r1")
    publish_dataset(read_published(base), out, key_cols=KEYS, num_buckets=8,
                    run_id="g1")
    full = collect_sorted(read_published(out), KEYS)
    conv = full["conv_id"][0].as_py()
    turn = full["turn_idx"][0].as_py()

    reads = []
    real = ppq.read_table

    def counting(path, *a, **k):
        reads.append(path)
        return real(path, *a, **k)

    monkeypatch.setattr(sink_mod.pq, "read_table", counting)

    got = lookup_key(out, conv, turn_idx=turn)
    assert len(got) == 1 and got["text"][0].as_py() == full["text"][0].as_py()
    assert len(reads) == 1  # routed: exactly the key's bucket file

    reads.clear()
    got = lookup_key(out, conv)
    assert len(got) == len(
        [r for r in full.to_pylist() if r["conv_id"] == conv]
    )
    from odibel_ray.cdc.lww import bucket_of_keys

    held = full.filter(pc.equal(full["conv_id"], conv)).select(KEYS)
    assert len(reads) == len(set(bucket_of_keys(held, KEYS, 8).tolist())) < 8
