"""One read plan behind every table read: an in-process ``lookup_key`` and
the Ray Data scan ``read_published(where=<key ==>)`` return the same rows
and the same schema, for a hit and for a miss, on every layout."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from odibel_ray.cdc import alter_published, incremental_apply
from odibel_ray.cdc.sink import (
    enable_snapshots,
    lookup_key,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
)
from odibel_ray.datagen import split_log

KEYS = ["conv_id", "turn_idx"]
MISS = "conv_zzzzzz"


def _generic() -> pa.Table:
    return pa.table({"k": [f"k{i:02d}" for i in range(20)],
                     "v": [float(i) for i in range(20)],
                     "label": [f"l{i % 3}" for i in range(20)]})


def _transcript(log, d, **kw):
    out = os.path.join(d, "t")
    replay_publish(log, out, run_id="r1", **kw)
    return out


def _build(name, log, d):
    """Table ``name`` under ``d``: (out_dir, key columns probed, hit key,
    miss key, extra read_published/lookup_key kwargs)."""
    if name == "transcript_hashed":
        return _transcript(log, d, num_buckets=4), KEYS[:1], ("conv_00000003",), (MISS,), {}
    if name == "transcript_partitioned":
        return _transcript(log, d, partitioned=True), KEYS[:1], ("conv_00000003",), (MISS,), {}
    if name == "transcript_mor":
        prefix = os.path.join(d, "prefix")
        split_log(log, prefix, frac=0.6)
        out = _transcript(os.path.join(prefix, "change_log"), d, num_buckets=4)
        incremental_apply(log, out, run_id="r2", mode="mor")
        return out, KEYS[:1], ("conv_00000003",), (MISS,), {}
    if name in ("generic_two_key", "range_clustered"):
        out = os.path.join(d, "g")
        kw = {"cluster_by": "conv_id"} if name == "range_clustered" else {}
        publish_dataset(read_published(_transcript(log, d, num_buckets=4)), out,
                        key_cols=KEYS, num_buckets=8, run_id="g1", **kw)
        return out, KEYS, ("conv_00000003", 2), (MISS, 2), {}
    out = os.path.join(d, "g")
    publish_dataset(rd.from_arrow(_generic()), out, key_cols=["k"], num_buckets=4,
                    run_id="g1")
    extra = {}
    if name == "generic_mor":
        upsert_published(rd.from_arrow(pa.table({"k": ["k03", "k04"], "v": [30.0, 40.0],
                                                 "label": ["u", "u"]})),
                         out, run_id="u1", mode="mor")
    elif name == "pending_rename":
        alter_published(out, rename={"v": "value"})
    elif name == "version":
        enable_snapshots(out, keep_last=4)
        upsert_published(rd.from_arrow(pa.table({"k": ["k03"], "v": [30.0],
                                                 "label": ["u"]})), out, run_id="u1")
        extra = {"version": 1}
    return out, ["k"], ("k03",), ("k99",), extra


def _rows(t: pa.Table) -> list[dict]:
    return sorted(t.to_pylist(), key=repr)


@pytest.mark.parametrize("layout", [
    "transcript_hashed", "transcript_partitioned", "transcript_mor",
    "generic_single_key", "generic_two_key", "range_clustered", "generic_mor",
    "pending_rename", "version",
])
def test_lookup_key_agrees_with_routed_read(ray_session, small_log, tmp_path, layout):
    out, key_cols, hit, miss, extra = _build(layout, small_log["log_dir"], str(tmp_path))
    for key in (hit, miss):
        got = lookup_key(out, key[0], turn_idx=key[1] if len(key) > 1 else None, **extra)
        ds = read_published(out, where=[(c, "==", v) for c, v in zip(key_cols, key)],
                            **extra)
        exp_schema = ds.schema().base_schema
        assert got.schema.names == exp_schema.names, (layout, key)
        assert got.schema.types == exp_schema.types, (layout, key)
        rows = ds.take_all()
        assert len(got) == len(rows) and (len(got) > 0) == (key is hit), (layout, key)
        assert _rows(got) == _rows(pa.Table.from_pylist(rows, schema=exp_schema))


def test_base_lsn_follows_the_layout(ray_session, small_log, tmp_path, monkeypatch):
    """Only bases of tables with system columns carry ``_lsn`` (generic
    bases, compacted ones included, do not), so a projected merge-on-read
    bucket read takes the rule from the layout and opens no base footer."""
    from odibel_ray.cdc import sink
    from odibel_ray.cdc.sink import (
        _read_bucket,
        _table_layout,
        compact_published,
        load_manifests,
    )

    log = small_log["log_dir"]
    transcript = _build("transcript_mor", log, str(tmp_path / "t"))[0]
    generic = _build("generic_mor", log, str(tmp_path / "g"))[0]
    compacted = _build("generic_mor", log, str(tmp_path / "c"))[0]
    compact_published(compacted, run_id="c1")
    upsert_published(rd.from_arrow(pa.table({"k": ["k05"], "v": [50.0], "label": ["u"]})),
                     compacted, run_id="u2", mode="mor")
    schemas = []
    real = pq.read_schema

    def spy(path, *a, **k):
        schemas.append(path)
        return real(path, *a, **k)

    monkeypatch.setattr(sink.pq, "read_schema", spy)
    for out, system, cols in ((transcript, True, ["conv_id", "text"]),
                              (generic, False, ["k", "v"]), (compacted, False, ["k", "v"])):
        layout = _table_layout(out)
        assert layout["system"] is system
        mans = load_manifests(out)
        for m in mans.values():
            assert ("_lsn" in real(os.path.join(out, m["file"])).names) is system
        mor = [m for m in mans.values() if m.get("deltas")]
        assert mor
        for m in mor:
            schemas.clear()
            got = _read_bucket(out, m, layout, columns=cols)
            assert not schemas
            assert got.equals(_read_bucket(out, m, layout).select(cols))


def test_whole_table_read_decodes_no_bloom_filter(ray_session, tmp_path, monkeypatch):
    """Only a read with a predicate probes the files' Bloom filters, so a
    whole-table read never decodes one."""
    from odibel_ray.cdc import sink

    out = str(tmp_path / "g")
    publish_dataset(rd.from_arrow(_generic()), out, key_cols=["k"], num_buckets=4,
                    run_id="g1", bloom_cols=["label"])

    def decoded(self):
        raise AssertionError("a whole-table read decoded a Bloom filter")

    monkeypatch.setattr(sink._Bucket, "blooms", property(decoded))
    assert read_published(out).count() == 20
    assert read_published(out, columns=["k"]).count() == 20
