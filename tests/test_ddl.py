"""Metadata-only schema DDL on generic published tables (cdc/ddl.py):
add / rename / drop without touching a data file, read-time mapping with
zone-map pruning intact, logical↔physical translation on upsert."""

import pandas as pd
import pyarrow as pa
import pytest

from odibel_ray.cdc import alter_published
from odibel_ray.cdc.ddl import SchemaMap, load_schema_ops
from odibel_ray.cdc.sink import (
    lookup_key,
    publish_dataset,
    read_published,
    upsert_published,
)


def _table():
    return pa.table(
        {
            "k": ["a", "b", "c", "d"],
            "v": [1.0, 2.0, 3.0, 4.0],
            "label": ["x", "y", "x", "z"],
        }
    )


@pytest.fixture()
def gen(ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(_table()), out, key_cols=["k"], num_buckets=2, run_id="p1")
    return out


def _df(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("k").reset_index(drop=True)


def test_rename_add_drop_read(ray_session, gen):
    r = alter_published(gen, rename={"v": "value"}, add={"note": "string"}, drop=["label"])
    assert r["logical_columns"] == ["k", "value", "note"]
    df = _df(read_published(gen))
    assert list(df.columns) == ["k", "value", "note"]
    assert df["value"].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert df["note"].isna().all()
    # projections + errors on old names
    assert read_published(gen, columns=["value"]).schema().names == ["value"]
    with pytest.raises(KeyError, match="no such column"):
        read_published(gen, columns=["v"]).count()
    with pytest.raises(KeyError, match="no such column"):
        read_published(gen, columns=["label"]).count()
    # no data file changed: the op log is the only new artifact
    assert len(load_schema_ops(gen)) == 3


def test_where_pushdown_through_rename(ray_session, gen):
    alter_published(gen, rename={"v": "value"})
    stats = {}
    got = _df(read_published(gen, where=[("value", ">=", 3.0)], prune_stats=stats))
    assert got["k"].tolist() == ["c", "d"] and stats["files_total"] == 2
    # predicate on an unmaterialized added column: is_null is vacuous,
    # value ops are provably empty (with the right logical schema)
    alter_published(gen, add={"note": "string"})
    assert _df(read_published(gen, where=[("note", "is_null", None)]))["k"].tolist() == list("abcd")
    empty = read_published(gen, where=[("note", "==", "x")], prune_stats=stats)
    assert empty.count() == 0 and stats["files_read"] == 0
    assert empty.schema().names == ["k", "value", "label", "note"]


def test_upsert_translates_logical_names(ray_session, gen):
    alter_published(gen, rename={"v": "value"}, drop=["label"], add={"note": "string"})
    import ray.data as rd

    up = rd.from_arrow(
        pa.table({"k": ["b", "e"], "value": [20.0, 50.0],
                  "note": pa.array([None, None], pa.string())})
    )
    upsert_published(up, gen, run_id="u1")
    df = _df(read_published(gen))
    assert df["k"].tolist() == list("abcde")
    assert df["value"].tolist() == [1.0, 20.0, 3.0, 4.0, 50.0]
    # physical files still carry the ORIGINAL names (metadata-only rename)
    import pyarrow.parquet as pq
    from odibel_ray.cdc.sink import load_manifests
    import os

    m = next(iter(load_manifests(gen).values()))
    assert pq.read_schema(os.path.join(gen, m["file"])).names == ["k", "v", "label"]
    # non-null values for an unmaterialized column must fail loudly
    bad = rd.from_arrow(pa.table({"k": ["z"], "value": [9.0], "note": ["boom"]}))
    with pytest.raises(Exception, match="metadata-only"):
        upsert_published(bad, gen, run_id="u2")


def test_lookup_key_applies_mapping(ray_session, gen):
    alter_published(gen, rename={"v": "value"}, add={"note": "int64"})
    t = lookup_key(gen, "c", system=True)
    assert t.column_names == ["k", "value", "label", "note"]
    assert t["value"].to_pylist() == [3.0] and t["note"].to_pylist() == [None]
    t2 = lookup_key(gen, "c", columns=["value"], system=True)
    assert t2.column_names == ["value"]


def test_routed_miss_under_pending_op_is_logical(ray_session, tmp_path):
    """A key read routed to a bucket that was never published matches
    nothing, and its empty result carries the LOGICAL schema like the full
    read and the lookup do (the schema map comes from every published
    bucket, not from the ones that survive routing)."""
    import ray.data as rd

    out = str(tmp_path / "t")
    publish_dataset(rd.from_arrow(pa.table({"k": ["a"], "v": [1.0]})), out,
                    key_cols=["k"], num_buckets=8, run_id="p1")
    alter_published(out, rename={"v": "w"})
    miss = read_published(out, where=[("k", "==", "b")])
    assert miss.count() == 0 and miss.schema().names == ["k", "w"]
    assert read_published(out).schema().names == ["k", "w"]
    assert lookup_key(out, "b").column_names == ["k", "w"]


def test_alter_validation(ray_session, gen):
    with pytest.raises(ValueError, match="key column"):
        alter_published(gen, rename={"k": "kk"})
    with pytest.raises(ValueError, match="key column"):
        alter_published(gen, drop=["k"])
    with pytest.raises(KeyError, match="no such column"):
        alter_published(gen, rename={"zzz": "y"})
    with pytest.raises(ValueError, match="already exists"):
        alter_published(gen, add={"v": "int64"})
    with pytest.raises(ValueError, match="nothing to alter"):
        alter_published(gen)
    # a failed alter leaves the op log unchanged
    assert load_schema_ops(gen) == []


def test_schema_map_fold_order():
    phys = pa.schema([("a", pa.int64()), ("b", pa.string())])
    m = SchemaMap(phys, [
        {"kind": "rename", "from": "a", "to": "x"},
        {"kind": "add", "name": "a", "type": "double"},  # old name reusable
        {"kind": "drop", "name": "b"},
    ])
    assert m.names == ["x", "a"]
    assert m.to_physical == {"x": "a"} and set(m.added) == {"a"}


def test_widen_read_upsert_lookup(ray_session, tmp_path):
    """Type widening: files keep the narrow type, reads cast batch-side,
    pushdown still prunes against the narrow column, upserts safe-cast back
    and overflow fails loudly."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from odibel_ray.cdc.sink import load_manifests

    out = str(tmp_path / "w")
    t = pa.table({
        "k": ["a", "b", "c", "d"],
        "n": pa.array([1, 2, 3, 4], pa.int32()),
        "f": pa.array([1.5, 2.5, 3.5, 4.5], pa.float32()),
    })
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=2, run_id="p1")
    alter_published(out, widen={"n": "int64", "f": "double"})
    ds = read_published(out)
    assert dict(zip(ds.schema().names, ds.schema().types))["n"] == pa.int64()
    df = _df(ds)
    assert df["n"].tolist() == [1, 2, 3, 4] and df["f"].tolist() == [1.5, 2.5, 3.5, 4.5]
    # pushdown with a value outside the physical int32 domain still correct
    stats = {}
    assert read_published(out, where=[("n", "<", 3_000_000_000)], prune_stats=stats).count() == 4
    assert read_published(out, where=[("n", "==", 3_000_000_000)]).count() == 0
    # upsert in the wide logical domain: fitting values cast down...
    upsert_published(
        rd.from_arrow(pa.table({
            "k": ["b"], "n": pa.array([20], pa.int64()),
            "f": pa.array([9.5], pa.float64()),
        })),
        out, run_id="u1",
    )
    m = load_manifests(out)
    fields = {}
    for mm in m.values():  # every file still narrow-typed
        sch = pq.read_schema(os.path.join(out, mm["file"]))
        fields.update({n: sch.field(n).type for n in sch.names})
    assert fields["n"] == pa.int32() and fields["f"] == pa.float32()
    assert lookup_key(out, "b", system=True)["n"].to_pylist() == [20]
    # ...overflowing values fail loudly
    with pytest.raises(Exception, match="widened"):
        upsert_published(
            rd.from_arrow(pa.table({
                "k": ["z"], "n": pa.array([3_000_000_000], pa.int64()),
                "f": pa.array([1.0], pa.float64()),
            })),
            out, run_id="u2",
        )


def test_widen_validation(ray_session, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "wv")
    t = pa.table({"k": ["a"], "n": pa.array([1], pa.int64()),
                  "m": pa.array([1], pa.int32()), "s": ["x"]})
    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=1, run_id="p1")
    with pytest.raises(ValueError, match="not a value-preserving"):
        alter_published(out, widen={"n": "int32"})  # narrowing
    with pytest.raises(ValueError, match="not a value-preserving"):
        alter_published(out, widen={"n": "double"})  # int64 → double loses precision
    with pytest.raises(ValueError, match="not a value-preserving"):
        alter_published(out, widen={"s": "int64"})  # string is not numeric
    with pytest.raises(ValueError, match="key column"):
        alter_published(out, widen={"k": "large_string"})
    assert load_schema_ops(out) == []  # failed alters leave the log unchanged
    # widen composes with rename (applies to the CURRENT logical name)
    alter_published(out, rename={"m": "num"})
    alter_published(out, widen={"num": "int64"})
    df = read_published(out).to_pandas()
    assert df["num"].tolist() == [1]


def test_materialize_ddl(ray_session, gen):
    """Rewrite makes the ops physical: renamed names and added (null)
    columns land in the files, dropped bytes leave, the op log clears, and
    previously-refused writes (non-null into an added column) now work."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from odibel_ray.cdc.ddl import materialize_ddl
    from odibel_ray.cdc.sink import load_manifests

    alter_published(gen, rename={"v": "value"}, add={"note": "string"}, drop=["label"])
    before = _df(read_published(gen))
    r = materialize_ddl(gen, run_id="rw1")
    assert r["materialized"] == 2 and r["ops_cleared"] == 3
    assert load_schema_ops(gen) == []
    for m in load_manifests(gen).values():
        assert pq.read_schema(os.path.join(gen, m["file"])).names == ["k", "value", "note"]
    pd.testing.assert_frame_equal(_df(read_published(gen)), before)
    # the added column is physical now: non-null upserts are legal
    upsert_published(
        rd.from_arrow(pa.table({"k": ["b"], "value": [20.0], "note": ["hi"]})),
        gen, run_id="u1",
    )
    df = _df(read_published(gen))
    assert df.loc[df.k == "b", "note"].tolist() == ["hi"]
    # idempotent no-op on a clean table
    assert materialize_ddl(gen, run_id="rw2")["materialized"] == 0


def test_materialize_widen_physical(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from odibel_ray.cdc.ddl import materialize_ddl
    from odibel_ray.cdc.sink import load_manifests, publish_dataset as pub

    out = str(tmp_path / "w")
    pub(rd.from_arrow(pa.table({"k": ["a", "b"], "n": pa.array([1, 2], pa.int32())})),
        out, key_cols=["k"], num_buckets=2, run_id="p1")
    alter_published(out, widen={"n": "int64"})
    materialize_ddl(out, run_id="rw1")
    for m in load_manifests(out).values():
        sch = pq.read_schema(os.path.join(out, m["file"]))
        assert sch.field("n").type == pa.int64()
    # values that needed the wide type are now storable
    upsert_published(
        rd.from_arrow(pa.table({"k": ["z"], "n": pa.array([3_000_000_000], pa.int64())})),
        out, run_id="u1",
    )
    assert lookup_key(out, "z", system=True)["n"].to_pylist() == [3_000_000_000]


def test_materialize_crash_window_reads(ray_session, gen, monkeypatch):
    """Mid-rewrite state: op log stamped, SOME buckets flipped. Reads and
    lookups must still see the correct logical table; writers are refused;
    re-running materialize resumes and clears the log."""
    import json as _json
    import os

    import ray.data as rd

    from odibel_ray.cdc.ddl import SCHEMA_OPS, materialize_ddl
    from odibel_ray.cdc.sink import load_manifests

    alter_published(gen, rename={"v": "value"}, add={"note": "string"})
    before = _df(read_published(gen))

    # simulate the crash: run the rewrite with the old-version sweep disabled
    # (a real crash happens BEFORE the flip, when the old file still exists),
    # then restore the stamped op log and roll ONE bucket's manifest back to
    # its pre-rewrite file
    from odibel_ray.cdc import sink as _sink

    manifests0 = load_manifests(gen)
    # the engine stamps the generation-scoped rewrite id (run_id + "-g<gen>")
    ops0 = {"ops": load_schema_ops(gen), "materialized_run": "rwX-g0"}
    pre = {b: dict(m) for b, m in manifests0.items()}
    monkeypatch.setattr(_sink, "_sweep_bucket_versions", lambda *a, **k: None)
    materialize_ddl(gen, run_id="rwX")
    monkeypatch.undo()
    with open(os.path.join(gen, SCHEMA_OPS), "w") as f:
        _json.dump(ops0, f)
    bucket_rolled = sorted(pre)[0]
    mdir = os.path.join(gen, "_manifests")
    mfile = next(
        p for p in os.listdir(mdir) if p.startswith(f"bucket-{bucket_rolled:06d}")
    )
    with open(os.path.join(mdir, mfile), "w") as f:
        _json.dump(pre[bucket_rolled], f)

    # the rolled-back bucket still has its OLD file+schema; reads must fold
    # the op log for it and read the flipped bucket directly — same answer
    mid = _df(read_published(gen))
    pd.testing.assert_frame_equal(mid, before)
    assert _df(read_published(gen, columns=["k", "value"])).shape == (4, 2)
    got = _df(read_published(gen, where=[("value", ">=", 3.0)]))
    assert got["k"].tolist() == ["c", "d"]
    # a predicate no row of the flipped bucket holds: its read task yields
    # a block that still carries the logical schema, so the blocks concat
    import pyarrow.parquet as pq

    from tests.conftest import collect_sorted

    (flipped,) = set(pre) - {bucket_rolled}
    flipped_file = os.path.join(gen, load_manifests(gen)[flipped]["file"])
    flipped_vals = pq.read_table(flipped_file)["value"].to_pylist()
    got = collect_sorted(read_published(gen, where=[("value", "not_in", flipped_vals)]), ["k"])
    assert got.column_names == ["k", "value", "label", "note"]
    assert sorted(got["k"].to_pylist()) == sorted(_df(read_published(gen)).query(
        "value not in @flipped_vals")["k"].tolist())
    for key in ["a", "b", "c", "d"]:
        t = lookup_key(gen, key, system=True)
        assert t.column_names == ["k", "value", "label", "note"] and len(t) == 1
    # misses routed to the rolled-back bucket and to the flipped one are
    # typed logically too, by the lookup and by the routed read
    from odibel_ray.cdc.lww import bucket_of_keys

    cands = [f"zz{i}" for i in range(16)]
    routed = bucket_of_keys(pa.table({"k": cands}), ["k"], 2).tolist()
    misses = {b: k for b, k in zip(routed, cands)}
    assert sorted(misses) == [0, 1]
    for key in misses.values():
        t = lookup_key(gen, key)
        assert len(t) == 0 and t.column_names == ["k", "value", "label", "note"]
        ds = read_published(gen, where=[("k", "==", key)])
        assert ds.count() == 0
        assert ds.schema().names == ["k", "value", "label", "note"]
    # writers are refused while the stamp is in flight
    with pytest.raises(Exception, match="in flight"):
        upsert_published(
            rd.from_arrow(pa.table({
                "k": ["b"], "value": [9.0], "label": ["y"],
                "note": pa.array([None], pa.string()),
            })),
            gen, run_id="u1",
        )
    with pytest.raises(ValueError, match="in flight"):
        alter_published(gen, drop=["label"])
    # resume finishes the remaining bucket and clears the log
    r = materialize_ddl(gen, run_id="ignored-the-stamp-wins")
    assert r["materialized"] == 1 and load_schema_ops(gen) == []
    pd.testing.assert_frame_equal(_df(read_published(gen)), before)


def test_base_rename_breaks_downstream_loudly(ray_session, tmp_path):
    """Renaming a base column referenced by a downstream maintained table's
    spec makes the refresh fail LOUDLY (stale spec), never silently."""
    import ray.data as rd

    from odibel_ray.cdc import create_derived, refresh_derived

    base = str(tmp_path / "base")
    publish_dataset(
        rd.from_arrow(pa.table({"k": ["a", "b"], "score": [0.1, 0.9],
                                "role": ["u", "a"]})),
        base, key_cols=["k"], num_buckets=1, run_id="p1",
    )
    d = str(tmp_path / "d")
    create_derived(base, d, transform={"where": [["score", ">=", 0.5]],
                                       "columns": ["role"], "derive": {}}, run_id="d0")
    alter_published(base, rename={"score": "quality"})
    upsert_published(
        rd.from_arrow(pa.table({"k": ["c"], "quality": [0.8], "role": ["u"]})),
        base, run_id="u1",
    )
    with pytest.raises(KeyError, match="score"):
        refresh_derived(d, run_id="r1")


MATERIALIZE_VICTIM = r"""
import sys, ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from odibel_ray.cdc.ddl import materialize_ddl
materialize_ddl(sys.argv[1], run_id="victim")
"""


def test_materialize_kill_resume(ray_session, tmp_path):
    """SIGKILL a materialize_ddl mid-flip (real subprocess): reads during the
    crash window stay correct, the dead writer's lease is reclaimed, and a
    resume finishes the rewrite and clears the op log."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import ray.data as rd

    from odibel_ray.cdc.ddl import load_schema_meta, load_schema_ops, materialize_ddl
    from odibel_ray.cdc.sink import load_manifests

    out = str(tmp_path / "t")
    n = 240
    publish_dataset(
        rd.from_arrow(pa.table({
            "k": [f"k{i:04d}" for i in range(n)],
            "v": [float(i) for i in range(n)],
        })),
        out, key_cols=["k"], num_buckets=6, run_id="p1",
    )
    alter_published(out, rename={"v": "value"}, add={"note": "string"})
    before = _df(read_published(out))

    env = dict(os.environ, ODIBEL_TEST_PUBLISH_DELAY="1.2", RAY_ADDRESS="local",
               PYTHONPATH="/root/repo")
    proc = subprocess.Popen(
        [sys.executable, "-c", MATERIALIZE_VICTIM, out],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            meta = load_schema_meta(out)
            flipped = sum(
                1 for m in load_manifests(out).values()
                if m.get("run_id") == meta.get("materialized_run")
            )
            if meta.get("materialized_run") and 1 <= flipped < 6:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        assert proc.poll() is None, "victim finished before we could kill it"
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    meta = load_schema_meta(out)
    assert meta.get("materialized_run") == "victim-g0"  # stamped, partially flipped
    flipped = {
        b for b, m in load_manifests(out).items() if m.get("run_id") == "victim-g0"
    }
    assert 0 < len(flipped) < 6
    # reads during the crash window: identical logical table
    pd.testing.assert_frame_equal(_df(read_published(out)), before)
    # resume (dead holder's lease reclaimed by pid-liveness) finishes the job
    r = materialize_ddl(out, run_id="ignored")
    assert r["materialized"] == 6 - len(flipped)
    assert load_schema_ops(out) == []
    pd.testing.assert_frame_equal(_df(read_published(out)), before)
