"""Hardening regressions for the replay kernels: null-key LWW, null-ts
history windows, schema-only logs through the fused stats, and clear errors
for missing WAL partitions."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from odibel_ray.datagen import LOG_SCHEMA


def _write_log(tmp_path, rows: dict, part: int = 0) -> str:
    log = str(tmp_path / "change_log")
    pdir = os.path.join(log, f"part={part}")
    os.makedirs(pdir, exist_ok=True)
    n = len(rows["op"])
    cols = {}
    for f in LOG_SCHEMA:
        cols[f.name] = pa.array(rows.get(f.name, [None] * n), f.type)
    pq.write_table(pa.table(cols), os.path.join(pdir, "000.parquet"))
    return log


def test_keep_last_per_key_null_keys(ray_session):
    """Null keys group together (IS NOT DISTINCT FROM): LWW keeps only the
    max-LSN version of a null-keyed row, and its tombstone deletes it."""
    from odibel_ray.cdc.lww import keep_last_per_key

    t = pa.table({
        "k": pa.array([None, None, None, "a"], pa.string()),
        "lsn": pa.array([1, 2, 3, 1], pa.int64()),
        "v": pa.array([10, 20, 30, 1], pa.int64()),
    })
    out = keep_last_per_key(t, ["k"])
    got = sorted(out.to_pylist(), key=lambda r: (r["k"] is not None, r["lsn"]))
    assert len(got) == 2
    assert got[0]["k"] is None and got[0]["lsn"] == 3  # only the latest null-key row
    assert got[1]["k"] == "a"


def test_history_null_ts_does_not_crash(ray_session, tmp_path):
    """A null ts (nullable in LOG_SCHEMA) must not poison the window kernel;
    the closing event's null ts surfaces as a null ts_end with exact lsns."""
    from odibel_ray.cdc.apply import replay_dataset

    log = _write_log(tmp_path, {
        "op": ["I", "U"],
        "lsn": [1, 2],
        "conv_id": ["c1", "c1"],
        "turn_idx": pa.array([0, 0], pa.int32()),
        "role": ["user", "user"],
        "text": ["v1", "v2"],
        "ts": pa.array([1_700_000_000_000_000, None], pa.timestamp("us")),
    })
    hist = replay_dataset(log, history=True).to_pandas().sort_values("lsn_start")
    assert hist.lsn_end.tolist() == [2, np.iinfo(np.int64).max]
    # the window closed by the null-ts event carries a null ts_end
    assert hist.ts_end.isna().tolist()[0] is True or bool(hist.ts_end.isna().iloc[0])


def test_fused_stats_on_schema_only_log(ray_session, tmp_path):
    """A log carrying only schema events (no valid data rows) yields all-zero
    fused stats, not a missing-field crash."""
    from odibel_ray.cdc.apply import replay_snapshot_stats, replay_summary_stats

    import json

    log = _write_log(tmp_path, {
        "op": ["S"],
        "lsn": [1],
        "schema_change": [json.dumps(
            {"kind": "add_column", "name": "note", "type": "string"}
        )],
    })
    snap = replay_snapshot_stats(log, cut_lsn=5).to_pylist()[0]
    assert snap == {"rows_t1": 0, "rows_t2": 0, "added": 0, "deleted": 0, "changed": 0}
    summ = replay_summary_stats(log).to_pylist()[0]
    assert summ == {"n_facts": 0, "n_keys": 0, "n_convs": 0,
                    "n_versions": 0, "n_live": 0}


def test_replay_partitioned_missing_log_is_clear(ray_session, tmp_path):
    from odibel_ray.cdc.apply import replay_partitioned

    empty = str(tmp_path / "nothing")
    os.makedirs(empty)
    with pytest.raises(FileNotFoundError, match="no WAL partitions"):
        replay_partitioned(empty)


def test_suggest_salt_scales_to_wal_partition_count(ray_session, tmp_path):
    """With num_buckets=None the advised replay buckets by WAL partition, so
    the salt must be computed against the real partition count — and schema
    rows must not dilute the estimate."""
    from odibel_ray.cdc.apply import suggest_salt

    n_hot, n_cold = 4000, 200
    cold = [f"c{i}" for i in range(n_cold)]
    log = _write_log(tmp_path, {
        "op": ["I"] * n_hot + ["I"] * n_cold,
        "lsn": list(range(n_hot + n_cold)),
        "conv_id": ["hot"] * n_hot + cold,
        "turn_idx": pa.array(list(range(n_hot)) + [0] * n_cold, pa.int32()),
        "text": ["x"] * (n_hot + n_cold),
    })
    s = suggest_salt(log)
    # hot key is surfaced by the sketch (well past hot_ratio × mean-per-key)
    assert any(k == "hot" for k, _ in s["hot_keys"])
    # one WAL partition → the hot key ≈ the whole partition's mean load, so
    # no salt is needed; the old cluster-derived divisor (≥8 buckets) would
    # have suggested salt ≈ 8 here
    assert s["salt"] == 0


def test_prepare_and_dead_letters_partition_every_data_row():
    """``prepare_events`` and ``dead_letter_batch`` share one validity mask:
    on a log holding every malformed kind (null conv_id, null turn_idx, an
    unknown op, a null op) plus ``S`` rows, the rows one keeps and the
    other rejects partition the non-``S`` rows exactly, in both bucketing
    branches, each reject with its reason."""
    from odibel_ray.cdc.apply import dead_letter_batch, prepare_events
    from odibel_ray.cdc.schema import SchemaTimeline

    rows = [  # (op, conv_id, turn_idx, reason or None when kept)
        ("I", "a", 0, None), ("U", "a", 0, None), ("D", "b", 1, None),
        ("I", None, 0, "null_key"), ("U", "c", None, "null_key"), ("D", None, None, "null_key"),
        ("X", "d", 0, "unknown_op"), (None, "e", 1, "unknown_op"), ("X", None, None, "unknown_op"),
        ("S", None, None, None), ("S", "f", 2, None), ("I", "g", 3, None),
    ]
    n = len(rows)
    cols = {f.name: pa.nulls(n, f.type) for f in LOG_SCHEMA}
    cols.update(op=pa.array([r[0] for r in rows], pa.string()),
                lsn=pa.array(np.arange(1, n + 1), pa.int64()),
                conv_id=pa.array([r[1] for r in rows], pa.string()),
                turn_idx=pa.array([r[2] for r in rows], pa.int32()),
                schema_change=pa.array(
                    ['{"kind": "noop"}' if r[0] == "S" else None for r in rows], pa.string()))
    batch = pa.table(cols).append_column("part", pa.array(np.zeros(n, np.int64)))
    data_lsns = {i + 1 for i, r in enumerate(rows) if r[0] != "S"}
    dead = dead_letter_batch(batch)
    want_dead = {i + 1: r[3] for i, r in enumerate(rows) if r[3]}
    assert dict(zip(dead["lsn"].to_pylist(), dead["reason"].to_pylist())) == want_dead
    for num_buckets in (None, 4):
        kept = set(prepare_events(batch, SchemaTimeline(), num_buckets)["lsn"].to_pylist())
        assert kept == {i + 1 for i, r in enumerate(rows) if r[0] != "S" and not r[3]}
        assert kept.isdisjoint(want_dead) and kept | set(want_dead) == data_lsns
