"""Bloom-filter skipping: equality pruning where zone maps can't bite.

Every base and delta file of a ``bloom_cols=["text"]`` table carries its
filters in its bucket manifest entry (``key_filter``): one on the first key
column, which routes key reads, and one on ``text``, which
``read_published(where=)`` probes.
"""

import base64
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from odibel_ray.cdc import (
    alter_published,
    compact_published,
    materialize_ddl,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
    vacuum,
)
from odibel_ray.cdc.sink import MANIFEST_DIR, _bucket_manifest_files, fsck_table
from odibel_ray.cdc.skipping import bloom_filter, file_may_match, filter_table
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]
#: the per-file filter file (``<file>.parquet.bloom``) tables carried before
#: every filter moved into the manifest entries
LEGACY_SIDECAR = ".bloom"


@pytest.fixture()
def bloom_table(ray_session, small_log, tmp_path):
    base = str(tmp_path / "base")
    out = str(tmp_path / "tbl")
    replay_publish(small_log["log_dir"], base, num_buckets=4, run_id="r1")
    publish_dataset(read_published(base), out, key_cols=KEYS, num_buckets=8,
                    run_id="g1", bloom_cols=["text"])
    return out


def _assert_filter_invariants(out, filters=("conv_id", "text")) -> set[str]:
    """Every live base and delta carries exactly one filter per filter
    column, every file a manifest references exists, and the table holds
    only Parquet and JSON files (no op writes a filter file). Returns the
    referenced file names."""
    entries = [e for m in _bucket_manifest_files(out) for e in [m, *m.get("deltas", [])]]
    for e in entries:
        assert list(e["key_filter"]) == list(filters), e["file"]
    referenced = {e["file"] for e in entries}
    assert len(referenced) == len(entries)
    on_disk = {f for f in os.listdir(out) if f.endswith(".parquet")}
    assert referenced <= on_disk  # no swept file is referenced
    kinds = {os.path.splitext(f)[1] for _, _, files in os.walk(out) for f in files}
    assert kinds <= {".parquet", ".json"}, kinds
    return referenced


def _matches(out, where) -> tuple[list[dict], dict]:
    """The rows ``read_published(where=)`` returns, sorted by key, and its
    prune stats."""
    stats: dict = {}
    rows = collect_sorted(read_published(out, where=where, prune_stats=stats), KEYS)
    return rows.to_pylist(), stats


def _assert_probes_match_full_scan(out, probes) -> pa.Table:
    """Each where list of ``probes`` returns the rows a full read filtered
    in memory keeps. Returns the full read."""
    full = collect_sorted(read_published(out), KEYS)
    for where in probes:
        assert _matches(out, where)[0] == filter_table(full, where).to_pylist(), where
    return full


def test_bloom_prunes_equality_probe(bloom_table):
    full = collect_sorted(read_published(bloom_table), KEYS)
    probe = full["text"][len(full) // 2].as_py()
    n_match = pc.sum(
        pc.equal(full["text"], probe).cast("int64")
    ).as_py()
    # every bucket published its base with a text filter
    assert len(_assert_filter_invariants(bloom_table)) == 8

    stats: dict = {}
    got = read_published(bloom_table, where=[("text", "==", probe)],
                         prune_stats=stats)
    rows = collect_sorted(got, KEYS).to_pylist()
    assert len(rows) == n_match and all(r["text"] == probe for r in rows)
    # texts are near-unique → the probe's owner file(s) plus rare false
    # positives; with 8 files an unpruned read would open all 8
    assert stats["files_read"] < stats["files_total"] == 8
    assert stats["files_read"] <= 3


def test_bloom_never_false_negative(bloom_table):
    full = collect_sorted(read_published(bloom_table), KEYS)
    texts = full["text"].to_pylist()
    for probe in texts[:: max(1, len(texts) // 30)]:
        got = collect_sorted(read_published(bloom_table, where=[("text", "==", probe)]),
                             KEYS).to_pylist()
        assert any(r["text"] == probe for r in got)


def test_bloom_refreshes_on_upsert_and_sweeps(bloom_table, ray_session):
    import ray.data as rd

    full = collect_sorted(read_published(bloom_table), KEYS)
    one = full.slice(0, 1)
    one = one.set_column(one.schema.get_field_index("text"), "text",
                         pa.array(["BLOOM-FRESH-VALUE"]))
    row = {c: one[c][0].as_py() for c in one.column_names}
    upsert_published(rd.from_arrow(one), bloom_table, run_id="u1")

    stats: dict = {}
    got = collect_sorted(read_published(bloom_table, where=[("text", "==", "BLOOM-FRESH-VALUE")],
                                        prune_stats=stats), KEYS).to_pylist()
    assert [ (r["conv_id"], r["turn_idx"]) for r in got ] == [
        (row["conv_id"], row["turn_idx"]) ]
    assert stats["files_read"] <= 2  # fresh bloom routes to the one rewritten file
    # every live data file still has exactly one text filter; the upsert
    # swept the file it replaced
    live = _assert_filter_invariants(bloom_table)
    assert len(live) == 8
    vacuum(bloom_table)
    assert _assert_filter_invariants(bloom_table) == live
    assert {f for f in os.listdir(bloom_table) if f.endswith(".parquet")} == live


def test_bloom_layout_is_pinned(bloom_table, ray_session, small_log, tmp_path):
    with pytest.raises(ValueError, match="bloom_cols"):
        publish_dataset(read_published(bloom_table), bloom_table,
                        key_cols=KEYS, run_id="g2", bloom_cols=["role"])


def test_bloom_survives_mor_compaction(bloom_table, ray_session):
    import ray.data as rd

    full = collect_sorted(read_published(bloom_table), KEYS)
    one = full.slice(0, 1)
    one = one.set_column(one.schema.get_field_index("text"), "text",
                         pa.array(["MOR-DELTA-VALUE"]))
    upsert_published(rd.from_arrow(one), bloom_table, run_id="m1", mode="mor")
    # the delta carries the same filters as the bases
    assert len(_assert_filter_invariants(bloom_table)) == 9
    got = collect_sorted(read_published(bloom_table, where=[("text", "==", "MOR-DELTA-VALUE")]),
                         KEYS)
    assert len(got) == 1
    compact_published(bloom_table, run_id="c1", min_deltas=1)
    assert len(_assert_filter_invariants(bloom_table)) == 8
    stats: dict = {}
    got = collect_sorted(read_published(bloom_table, where=[("text", "==", "MOR-DELTA-VALUE")],
                                        prune_stats=stats), KEYS)
    assert len(got) == 1
    assert stats["files_read"] <= 2  # compaction rebuilt the bucket's bloom
    vacuum(bloom_table)
    assert len(_assert_filter_invariants(bloom_table)) == 8


def test_mor_bucket_merges_before_bloom_answer(bloom_table, ray_session):
    """A merge-on-read bucket is read when any of its files' filters admits
    the probe, and the merge then drops the superseded base row; a value no
    file holds reads none of the bucket's files."""
    import ray.data as rd

    full = collect_sorted(read_published(bloom_table), KEYS)
    one = full.slice(len(full) // 2, 1)
    key = (one["conv_id"][0].as_py(), one["turn_idx"][0].as_py())
    old = one["text"][0].as_py()
    new = "MOR-NEW-VALUE"
    one = one.set_column(one.schema.get_field_index("text"), "text", pa.array([new]))
    upsert_published(rd.from_arrow(one), bloom_table, run_id="m1", mode="mor")
    (mor,) = [m for m in _bucket_manifest_files(bloom_table) if m.get("deltas")]

    # the base admits the old value, so the bucket is read; the merge drops
    # the stale row
    rows, stats = _matches(bloom_table, [("text", "==", old)])
    assert key not in {(r["conv_id"], r["turn_idx"]) for r in rows}
    assert stats["files_read"] >= 2  # the MOR bucket's base and delta
    _assert_probes_match_full_scan(bloom_table, [[("text", "==", old)]])

    rows, _ = _matches(bloom_table, [("text", "==", new)])
    assert [(r["conv_id"], r["turn_idx"]) for r in rows] == [key]

    # inside the base's min/max, so only its filter keeps the bucket out
    absent = old + "#"
    assert file_may_match(os.path.join(bloom_table, mor["file"]), [("text", "==", absent)])
    rows, stats = _matches(bloom_table, [("text", "==", absent)])
    assert rows == [] and stats["files_read"] == 0


def test_fsck_checks_every_filter(bloom_table):
    """fsck reports a text filter that rejects a value its file holds."""
    assert fsck_table(bloom_table)["ok"]
    (m, *_) = _bucket_manifest_files(bloom_table)
    text = m["key_filter"]["text"]
    text["bits"] = base64.b64encode(bytes(len(base64.b64decode(text["bits"])))).decode()
    with open(os.path.join(bloom_table, MANIFEST_DIR, f"bucket-{m['bucket']:06d}.json"), "w") as f:
        json.dump(m, f)
    res = fsck_table(bloom_table)
    assert not res["ok"]
    assert len(res["errors"]) == 1
    assert m["file"] in res["errors"][0] and "on text" in res["errors"][0]


def _probes(full: pa.Table, cols: list[str]) -> list[list]:
    """Equality probes on ``cols``: a few held values each, and one that no
    row holds."""
    out = []
    for c in cols:
        vals = full[c].to_pylist()
        out += [[(c, "==", v)] for v in vals[:: max(1, len(vals) // 5)]]
        out.append([(c, "==", "NO-ROW-HOLDS-THIS")])
    return out


def test_rename_swap_under_pending_ddl(bloom_table, ray_session):
    """``text`` renamed to ``t2`` and another column renamed to ``text``,
    not yet materialized: probes on the logical names equal a full-scan
    filter, before and after ``materialize_ddl``. The router must not probe
    the physical ``text`` filter with the logical ``text`` values."""
    alter_published(bloom_table, rename={"text": "t2"})
    alter_published(bloom_table, rename={"role": "text"})
    probes = _probes(collect_sorted(read_published(bloom_table), KEYS), ["t2", "text"])
    full = _assert_probes_match_full_scan(bloom_table, probes)
    # the physical text filter still prunes the logical t2 probe
    assert _matches(bloom_table, probes[0])[1]["files_read"] <= 3
    materialize_ddl(bloom_table, run_id="rw")
    _assert_filter_invariants(bloom_table, filters=("conv_id", "t2"))
    assert _assert_probes_match_full_scan(bloom_table, probes).equals(full)
    assert _matches(bloom_table, probes[0])[1]["files_read"] <= 3


def test_table_written_with_sidecars_still_reads(bloom_table, tmp_path):
    """A table written before the filters moved into the manifests (key
    filters only, a sidecar next to each base) reads correctly, ignores
    its sidecars and loses them to ``vacuum``."""
    old = str(tmp_path / "old")
    shutil.copytree(bloom_table, old)
    # sidecars over no value: a reader that probed them would drop every row
    nothing = json.dumps(bloom_filter(pa.table({"text": pa.array([], pa.string())}), ["text"]))
    for m in _bucket_manifest_files(old):
        for e in [m, *m.get("deltas", [])]:
            e["key_filter"] = {"conv_id": e["key_filter"]["conv_id"]}
        with open(os.path.join(old, MANIFEST_DIR, f"bucket-{m['bucket']:06d}.json"), "w") as f:
            json.dump(m, f)
        with open(os.path.join(old, m["file"] + LEGACY_SIDECAR), "w") as f:
            f.write(nothing)
    _assert_probes_match_full_scan(
        old, _probes(collect_sorted(read_published(old), KEYS), ["text", "role"]))
    assert fsck_table(old)["ok"]
    vacuum(old)
    assert not [f for f in os.listdir(old) if f.endswith(LEGACY_SIDECAR)]
    _assert_filter_invariants(old, filters=("conv_id",))
