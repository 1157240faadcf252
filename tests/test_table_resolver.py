"""One table resolver: writers, DDL and maintained views resolve a table
through the read plan (``sink._read_plan``) and its per-process cache entry.

These tests pin:

- a writer's ``load_manifests`` rereads no footer of a file whose stat
  token is unchanged since a read checked it, and rereads a changed one;
- learning a published table's schema reads no data file
  (``create_derived``, ``create_join_view``, ``refresh_join_view``);
- a null fixed-size list, which Parquet cannot store readably, is refused
  before anything stages.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from odibel_ray.cdc import sink
from odibel_ray.cdc.derived import create_derived
from odibel_ray.cdc.joinview import create_join_view, refresh_join_view
from odibel_ray.cdc.sink import (
    MANIFEST_DIR,
    STAGING_DIR,
    compact_published,
    incremental_apply,
    publish_dataset,
    read_published,
    replay_publish,
    upsert_published,
)
from odibel_ray.datagen import split_log


@pytest.fixture()
def cuts(small_log, tmp_path):
    """A 50% and a 75% prefix of the shared log, then the full log."""
    out = []
    for frac in (0.5, 0.75):
        d = str(tmp_path / f"cut{int(frac * 100)}")
        split_log(small_log["log_dir"], d, frac=frac)
        out.append(os.path.join(d, "change_log"))
    return out + [small_log["log_dir"]]


@pytest.fixture()
def load_footer_reads(monkeypatch):
    """The files whose footer each ``load_manifests`` call read from disk,
    one list per call."""
    calls: list[list[str]] = []
    inside: list[bool] = []
    real_load, real_md = sink.load_manifests, pq.read_metadata

    def load(out_dir):
        calls.append([])
        inside.append(True)
        try:
            return real_load(out_dir)
        finally:
            inside.pop()

    def read_metadata(path, *a, **k):
        if inside:
            calls[-1].append(os.path.basename(str(path)))
        return real_md(path, *a, **k)

    monkeypatch.setattr(sink, "load_manifests", load)
    monkeypatch.setattr(pq, "read_metadata", read_metadata)
    return calls


def test_writers_reread_only_changed_footers(ray_session, cuts, tmp_path, load_footer_reads):
    """After a read checked the table, a merge-on-read apply's and a
    compaction's ``load_manifests`` read no footer; a file rewritten in
    place (new stat token) is reread, and only it."""
    out = str(tmp_path / "t")
    replay_publish(cuts[0], out, num_buckets=4, run_id="base")
    for op in (lambda: incremental_apply(cuts[1], out, run_id="mor", mode="mor"),
               lambda: compact_published(out, run_id="c1")):
        read_published(out).count()
        load_footer_reads.clear()
        op()
        assert load_footer_reads and not any(load_footer_reads)

    live = sink.load_manifests(out)
    victim = live[min(live)]["file"]
    path = os.path.join(out, victim)
    pq.write_table(pq.read_table(path), path)  # same rows, a new stat token
    load_footer_reads.clear()
    assert sorted(sink.load_manifests(out)) == sorted(live)
    assert load_footer_reads == [[victim]]


@pytest.fixture()
def schema_reads(monkeypatch):
    """Bucket reads (``sink._read_buckets``) made inside a ``read_published``
    call given no ``columns``: a whole-table read whose only use is its
    schema."""
    seen = {"schema": [], "all": []}
    bare: list[bool] = []
    real_read, real_buckets = sink.read_published, sink._read_buckets

    def read_published(out_dir, **kw):
        bare.append("columns" not in kw)
        try:
            return real_read(out_dir, **kw)
        finally:
            bare.pop()

    def read_buckets(plan, *a, **k):
        seen["all"].append(plan.out_dir)
        if bare and bare[-1]:
            seen["schema"].append(plan.out_dir)
        return real_buckets(plan, *a, **k)

    monkeypatch.setattr(sink, "read_published", read_published)
    monkeypatch.setattr(sink, "_read_buckets", read_buckets)
    return seen


def test_table_schema_reads_no_data_file(ray_session, cuts, tmp_path, schema_reads):
    """``create_derived`` without ``columns``, ``create_join_view`` and a
    ``refresh_join_view`` with dirty keys learn their bases' schemas from
    the read plan, metadata only: no bucket is read for a schema."""
    base = str(tmp_path / "base")
    replay_publish(cuts[0], base, num_buckets=4, run_id="r1")
    tools = sorted({r["tool_name"] for r in read_published(base, columns=["tool_name"])
                    .take_all() if r["tool_name"] is not None})
    dim = str(tmp_path / "dim")
    publish_dataset(rd.from_arrow(pa.table({"tool_name": tools,
                                            "tool_kind": [f"k{i % 3}" for i in range(len(tools))]})),
                    dim, key_cols=["tool_name"], num_buckets=2, run_id="p1")
    schema_reads["all"].clear()

    create_derived(base, str(tmp_path / "dt"),
                   transform={"derive": {"text_len": ["len", "text"]}},
                   num_buckets=2, run_id="d0")
    create_join_view(base, dim, str(tmp_path / "jv"), on="tool_name",
                     left_columns=["role"], num_buckets=2, run_id="j0")
    assert schema_reads["all"].count(base) >= 2 and dim in schema_reads["all"]
    incremental_apply(cuts[1], base, run_id="r2")
    schema_reads["all"].clear()
    r = refresh_join_view(str(tmp_path / "jv"), run_id="j1")
    assert r["rows_upserted"] > 0 and dim in schema_reads["all"]
    assert schema_reads["schema"] == []


def _fsl(values) -> pa.Array:
    return pa.array(values, pa.list_(pa.int32(), 2))


@pytest.mark.parametrize("col", [
    _fsl([[1, 2], None, [3, 4]]),
    pa.array([{"f": [1, 2]}, {"f": None}, {"f": [3, 4]}],
             pa.struct([("f", pa.list_(pa.int32(), 2))])),
    pa.array([[[1, 2]], [[3, 4], None], []], pa.list_(pa.list_(pa.int32(), 2))),
], ids=["top", "in_struct", "in_list"])
def test_null_fixed_size_list_is_refused(ray_session, tmp_path, col):
    """A null fixed-size list, at any depth, fails ``publish_dataset`` with
    a ValueError naming the column before anything stages (raised in the
    Ray Data pre-pass, so it arrives wrapped in the task error)."""
    out = str(tmp_path / "t")
    t = pa.table({"k": [1, 2, 3], "a": col})
    with pytest.raises(Exception, match="ValueError: column 'a'"):
        publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=2, run_id="p1")
    assert not os.listdir(os.path.join(out, MANIFEST_DIR))
    staged = os.path.join(out, STAGING_DIR, "p1")
    assert not os.path.exists(staged) or not os.listdir(staged)


def test_fixed_size_list_null_elements_round_trip(ray_session, tmp_path):
    """Null elements inside a fixed-size list are stored and read back; an
    upsert carrying a null list is refused and leaves the table as it was."""
    out = str(tmp_path / "t")
    t = pa.table({"k": [1, 2, 3], "a": _fsl([[1, None], [None, None], [5, 6]])})
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=2, run_id="p1")
    rows = sorted(read_published(out).take_all(), key=lambda r: r["k"])
    assert rows == t.to_pylist()
    bad = pa.table({"k": [2], "a": _fsl([None])})
    with pytest.raises(Exception, match="ValueError: column 'a'"):
        upsert_published(rd.from_arrow(bad), out, run_id="u1")
    assert sorted(read_published(out).take_all(), key=lambda r: r["k"]) == rows
    staged = os.path.join(out, STAGING_DIR, "u1")
    assert not os.path.exists(staged) or not os.listdir(staged)
