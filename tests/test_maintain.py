"""maintain_table: compaction + retention + vacuum + stats health in one call."""

import os

import pyarrow as pa
import pytest

from odibel_ray.cdc import (
    enable_snapshots,
    list_snapshots,
    maintain_table,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
)
from odibel_ray.cdc.analyze import analyze_published, load_column_stats
from odibel_ray.cdc.sink import load_manifests
from tests.conftest import collect_sorted

KEYS = ["conv_id", "turn_idx"]


@pytest.fixture()
def table(ray_session, small_log, tmp_path):
    base = str(tmp_path / "base")
    out = str(tmp_path / "tbl")
    replay_publish(small_log["log_dir"], base, num_buckets=4, run_id="r1")
    publish_dataset(read_published(base), out, key_cols=KEYS, num_buckets=4,
                    run_id="g1")
    return out


def _mor_update(out, n, run_id):
    import ray.data as rd

    full = collect_sorted(read_published(out), KEYS)
    sl = full.slice(0, n)
    sl = sl.set_column(sl.schema.get_field_index("text"), "text",
                       pa.array([f"v-{run_id}-{i}" for i in range(n)]))
    upsert_published(rd.from_arrow(sl), out, run_id=run_id, mode="mor")


def test_maintain_compacts_when_threshold_hit(table, ray_session):
    before = collect_sorted(read_published(table), KEYS)
    for i in range(3):
        _mor_update(table, 8, f"m{i}")
    rep = maintain_table(table, compact_min_deltas=5)
    assert rep["compacted_buckets"] == 0 and rep["max_bucket_deltas"] == 3

    rep = maintain_table(table, compact_min_deltas=2)
    assert rep["compacted_buckets"] > 0
    assert not any(
        len(m.get("deltas", [])) >= 2 for m in load_manifests(table).values()
    )
    after = collect_sorted(read_published(table), KEYS)
    assert len(after) == len(before)


def test_maintain_retention_and_vacuum(table, ray_session, tmp_path):
    enable_snapshots(table, keep_last=50)
    for i in range(4):
        _mor_update(table, 4, f"s{i}")
        maintain_table(table, compact_min_deltas=1, vacuum_after=False)
    assert len(list_snapshots(table)) > 3
    rep = maintain_table(table, compact_min_deltas=0, keep_snapshots=2)
    assert len(list_snapshots(table)) == 2
    assert "vacuum" in rep
    # stray staging dir is swept
    os.makedirs(os.path.join(table, "_staging", "stray"), exist_ok=True)
    rep = maintain_table(table, compact_min_deltas=0)
    assert rep["vacuum"]["staging_dirs"] == 1


def test_maintain_reports_stale_stats(table, ray_session):
    analyze_published(table, columns=["text", "score"], method="hll")
    enable_snapshots(table, keep_last=10)
    rep = maintain_table(table, compact_min_deltas=0)
    # the table advanced (snapshot bootstrap) past the stats pin -> stale
    assert set(rep["stats_stale"]) == {"score", "text"}

    _mor_update(table, 4, "x1")
    # no feed handed over: still stale; with compaction the stats survive
    rep = maintain_table(table, compact_min_deltas=1)
    assert set(rep["stats_stale"]) == {"score", "text"}
    assert load_column_stats(table)["_table"]["method"] == "hll"


def test_catalog_lists_tables_and_kinds(ray_session, small_log, tmp_path, capsys):
    import json

    from odibel_ray.cdc import create_derived
    from odibel_ray.cdc.maintain import catalog
    from odibel_ray.cli import main

    root = str(tmp_path / "lake")
    os.makedirs(root)
    bronze = os.path.join(root, "bronze")
    replay_publish(small_log["log_dir"], bronze, num_buckets=4, run_id="r1")
    silver = os.path.join(root, "silver")
    create_derived(bronze, silver,
                   transform={"where": [["score", ">=", 0.5]],
                              "columns": ["role", "score"]}, run_id="d1")
    analyze_published(bronze, columns=["role"], method="hll")

    rows = {r["table"]: r for r in catalog(root)}
    assert set(rows) == {bronze, silver}
    assert rows[bronze]["kind"] == "transcript"
    assert rows[silver]["kind"] == "derived"
    assert rows[silver]["upstreams"] == [bronze]
    assert rows[bronze]["rows"] > 0 and rows[bronze]["buckets"] == 4
    assert rows[bronze]["stats"] in ("fresh", "stale")
    assert rows[silver]["stats"] == "none"

    assert main(["tables", "--root", root]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert {l["table"] for l in lines} == {bronze, silver}


def test_catalog_and_refresh_follow_a_relocated_tree(ray_session, small_log, oracle_final,
                                                    tmp_path):
    """A lake root (bronze, a derived table, an aggregate view) copied to a
    new root: the catalog lists each maintained table's upstreams under the
    new root, and a refresh of the copy reads the copied base and leaves
    every file of the original tree unchanged."""
    import hashlib
    import shutil

    from odibel_ray.cdc import (
        create_derived,
        create_view,
        incremental_apply,
        read_derived,
        read_view,
        refresh_derived,
        refresh_view,
    )
    from odibel_ray.cdc.maintain import catalog
    from odibel_ray.datagen import split_log

    prefix = str(tmp_path / "prefix")
    split_log(small_log["log_dir"], prefix, frac=0.6)
    root, moved = str(tmp_path / "lake"), str(tmp_path / "moved")
    bronze, silver, gold = (os.path.join(root, n) for n in ("bronze", "silver", "gold"))
    replay_publish(os.path.join(prefix, "change_log"), bronze, num_buckets=4, run_id="r1")
    create_derived(bronze, silver, transform={"columns": ["role", "score"]}, num_buckets=4,
                   run_id="d0")
    create_view(bronze, gold, group_keys=["role"], aggs={"n": ["count"]}, num_buckets=2,
                run_id="v0")
    shutil.copytree(root, moved)
    m_bronze, m_silver, m_gold = (os.path.join(moved, n) for n in ("bronze", "silver", "gold"))

    rows = {r["table"]: r for r in catalog(moved)}
    assert rows[m_silver]["upstreams"] == [m_bronze]
    assert rows[m_gold]["upstreams"] == [m_bronze]

    def files(d):
        out = {}
        for dirpath, _, names in os.walk(d):
            for n in names:
                with open(os.path.join(dirpath, n), "rb") as f:
                    out[os.path.relpath(os.path.join(dirpath, n), d)] = (
                        hashlib.sha256(f.read()).hexdigest())
        return out

    original = files(root)
    incremental_apply(small_log["log_dir"], m_bronze, run_id="r2")
    assert refresh_derived(m_silver, run_id="d1")["refreshed"]
    assert refresh_view(m_gold, run_id="v1")["refreshed"]
    assert files(root) == original
    assert read_derived(m_silver).count() == oracle_final.num_rows
    assert read_view(m_gold).to_pandas()["n"].sum() == oracle_final.num_rows


def test_cli_sync_root_discovery(ray_session, small_log, tmp_path, capsys):
    """sync --root discovers every maintained table under the root via the
    catalog and converges the DAG without listing tables explicitly."""
    import json

    from odibel_ray.cdc import create_derived, incremental_apply, read_derived
    from odibel_ray.cli import main
    from odibel_ray.datagen import split_log
    from odibel_ray.oracle import replay_oracle

    root = str(tmp_path / "lake")
    os.makedirs(root)
    log = small_log["log_dir"]
    prefix = str(tmp_path / "prefix")
    split_log(log, prefix, frac=0.6)
    bronze = os.path.join(root, "bronze")
    replay_publish(os.path.join(prefix, "change_log"), bronze, num_buckets=4,
                   run_id="r1")
    silver = os.path.join(root, "silver")
    create_derived(bronze, silver,
                   transform={"where": [["score", ">=", 0.5]],
                              "columns": ["role", "score"]}, run_id="d1")
    incremental_apply(log, bronze, run_id="r2")

    assert main(["sync", "--root", root]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["order"] == [silver]

    import pyarrow.compute as _pc

    got = read_derived(silver).count()
    oracle = replay_oracle(log)
    want = len(oracle.filter(
        _pc.fill_null(_pc.greater_equal(oracle["score"], 0.5), False)))
    assert got == want


def test_count_published_paths(table, ray_session):
    """COUNT(*): metadata-only without a predicate (manifest sums; MOR
    buckets merged), pruned scan with one."""
    from odibel_ray.cdc import count_published

    full = collect_sorted(read_published(table), KEYS)
    assert count_published(table) == len(full)

    # predicate path rides the pruned read
    import pyarrow.compute as _pc

    n_user = len(full.filter(_pc.equal(full["role"], "user")))
    assert count_published(table, where=[("role", "==", "user")]) == n_user

    # MOR deltas: tombstones must not be double counted
    from odibel_ray.cdc import delete_published

    res = delete_published(table, [("turn_idx", "==", int(full["turn_idx"][0].as_py())),
                                   ("conv_id", "==", full["conv_id"][0].as_py())],
                           run_id="d1", mode="mor")
    assert res["rows_deleted"] == 1
    assert count_published(table) == len(full) - 1


def test_maintain_keep_snapshots_without_vacuum(table, ray_session):
    # vacuum_after=False must NOT run the staging/orphan sweep even when
    # retention tightening is requested — a publish may be in flight
    enable_snapshots(table)
    for i in range(3):
        _mor_update(table, 4, f"s{i}")
    staging = os.path.join(table, "_staging", "in-flight")
    os.makedirs(staging, exist_ok=True)
    probe = os.path.join(staging, "bucket-000000-r9.parquet")
    open(probe, "w").close()
    rep = maintain_table(table, compact_min_deltas=0, keep_snapshots=1,
                         vacuum_after=False)
    assert "vacuum" not in rep
    assert os.path.exists(probe)  # sweep did not run
    assert len(list_snapshots(table)) <= 1  # retention still tightened
    os.remove(probe)


def test_stats_freshness_without_snapshots(table, ray_session):
    # on a table without snapshot retention, version pins are None on both
    # sides; the run pin must still flag statistics stale after a write
    analyze_published(table)
    rep = maintain_table(table, compact_min_deltas=0, vacuum_after=False)
    assert rep.get("stats_stale") == []
    _mor_update(table, 4, "w1")
    rep = maintain_table(table, compact_min_deltas=0, vacuum_after=False)
    assert rep.get("stats_stale")  # no longer reported fresh


def test_system_kg_triples_feed_rdf_surface(ray_session, small_log, tmp_path):
    """The catalog/lineage as rDF2-schema triples (the reference's
    systemkg.py intent): typed table entities, literal state, upstream
    edges — and the triple table plugs straight into the engine's RDF
    operators (type filter + N-Triples serialization prove composition)."""
    import ray.data as rd

    from odibel_ray.cdc import create_derived
    from odibel_ray.cdc.maintain import system_kg
    from odibel_ray.rdf import filter_by_subject_types, serialize_ntriples

    root = str(tmp_path / "lake")
    os.makedirs(root)
    bronze = os.path.join(root, "bronze")
    replay_publish(small_log["log_dir"], bronze, num_buckets=4, run_id="r1")
    silver = os.path.join(root, "silver")
    create_derived(bronze, silver,
                   transform={"where": [["score", ">=", 0.5]],
                              "columns": ["role", "score"]}, run_id="d1")

    kg = system_kg(root)
    assert kg.schema.names == ["s", "p", "o", "isLiteral"]
    trip = {(r["s"], r["p"], r["o"]) for r in kg.to_pylist()}
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    assert ("<urn:odibel:table:bronze>", rdf_type,
            "<urn:odibel:kind:transcript>") in trip
    assert ("<urn:odibel:table:silver>", rdf_type,
            "<urn:odibel:kind:derived>") in trip
    assert ("<urn:odibel:table:silver>", "<urn:odibel:p:upstream>",
            "<urn:odibel:table:bronze>") in trip
    assert any(p == "<urn:odibel:p:rows>" and lit
               for _, p, o, lit in ((r["s"], r["p"], r["o"], r["isLiteral"])
                                    for r in kg.to_pylist()))

    # composition: the engine's own RDF operators query the engine
    ds = rd.from_arrow(kg)
    derived_only = filter_by_subject_types(ds, ["<urn:odibel:kind:derived>"])
    assert {r["s"] for r in derived_only.take_all()} == {
        "<urn:odibel:table:silver>"
    }
    lines = serialize_ntriples(ds).take_all()
    assert all(l["line"].endswith(" .") for l in lines)


def test_cli_kg_prints_ntriples(ray_session, small_log, tmp_path, capsys):
    from odibel_ray.cli import main

    root = str(tmp_path / "lake")
    os.makedirs(root)
    replay_publish(small_log["log_dir"], os.path.join(root, "t1"),
                   num_buckets=2, run_id="r1")
    assert main(["kg", "--root", root]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out and all(l.endswith(" .") for l in out)
    assert any("<urn:odibel:kind:transcript>" in l for l in out)
