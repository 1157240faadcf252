"""The benchmark's own arithmetic: percentiles, span self time, table
fingerprints, bytes-written accounting and the DuckDB oracle. No Ray.

    python -m pytest perfbench/tests -q
"""

import os
import random
import types

import duckdb
import pyarrow as pa
import pytest

from perfbench.harness import (
    TAIL_BEYOND,
    BytesLedger,
    cpu_s_between,
    created_bytes,
    file_state,
    fingerprint,
    row_mismatches,
    tail_percentile,
)
from perfbench.trace import Tracer, layer_summary, self_times


# ---- percentile with ten samples beyond it ---------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))
    random.Random(0).shuffle(xs)
    v, label, n = tail_percentile(xs)
    assert (v, label, n) == (90, "p90", 100)
    assert sum(1 for x in xs if x > v) == TAIL_BEYOND


def test_tail_with_21_samples_is_just_above_median():
    v, label, n = tail_percentile([float(i) for i in range(21)])
    assert v == 10.0 and label == "p52.38" and n == 21
    assert sum(1 for x in range(21) if x > v) == TAIL_BEYOND


def test_tail_falls_back_to_max_below_21_samples():
    assert tail_percentile([3.0, 1.0, 2.0] * 6 + [9.0, 0.5]) == (9.0, "max", 20)
    assert tail_percentile([]) [1:] == ("none", 0)


# ---- self time of nested spans ---------------------------------------------

def _span(sid, parent, start, end, name="x", op=0):
    return [sid, name, op, parent, start, end]


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),      # overlaps its sibling 3..4
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),      # grandchild: counts against span 1 only
        _span(4, 0, 9.0, 12.0),     # runs past its parent: clipped at 10
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)  # children cover 1..6 and 9..10
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(3.0)


def test_tracer_records_nesting_and_op_ids():
    mod = types.SimpleNamespace(inner=lambda: 1)
    mod.outer = lambda: mod.inner() + 1
    tr = Tracer()
    tr._wrap(mod, "inner", "layer.inner")
    tr._wrap(mod, "outer", "layer.outer")
    assert mod.outer() == 2 and tr.spans == []  # not recording outside ops
    with tr.op_span(7, "lookup"):
        mod.outer()
    names = {s[1]: s for s in tr.spans}
    assert set(names) == {"op.lookup", "layer.outer", "layer.inner"}
    assert names["layer.inner"][3] == names["layer.outer"][0]
    assert names["layer.outer"][3] == names["op.lookup"][0]
    assert {s[2] for s in tr.spans} == {7}
    summ = layer_summary(tr.spans, [])
    assert summ["ops"] == 1 and summ["layers"]["layer.inner"]["calls"] == 1
    tr.uninstall()
    assert mod.inner.__name__ == "<lambda>"


# ---- order-independent fingerprint -----------------------------------------

def _table(texts):
    n = len(texts)
    return pa.table({
        "conv_id": [f"conv_{i % 3}" for i in range(n)],
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["user"] * n,
        "text": texts,
        "tool_name": [None] * n,
        "score": [0.5] * n,
        "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)], pa.timestamp("us")),
    })


def test_fingerprint_ignores_row_order_but_not_text():
    con = duckdb.connect()
    t = _table([f"t{i}" for i in range(50)])
    shuffled = t.take(pa.array(random.Random(1).sample(range(50), 50)))
    assert fingerprint(con, t) == fingerprint(con, shuffled)
    changed = _table([f"t{i}" if i != 17 else "t17!" for i in range(50)])
    assert fingerprint(con, changed) != fingerprint(con, t)
    assert row_mismatches(con, changed, t) == 1
    assert row_mismatches(con, shuffled.slice(1), t) == 1


# ---- bytes written during the measured phase -------------------------------

def _write(path, n):
    with open(path, "wb") as f:
        f.write(b"x" * n)


def test_created_bytes_counts_only_new_or_replaced_files(tmp_path):
    d = str(tmp_path)
    _write(os.path.join(d, "old.parquet"), 100)
    _write(os.path.join(d, "replaced.parquet"), 10)
    before = file_state(d)
    _write(os.path.join(d, "new.parquet"), 7)
    os.replace(os.path.join(d, "new.parquet"), os.path.join(d, "moved.parquet"))
    _write(os.path.join(d, "replaced.parquet.tmp"), 30)
    os.replace(os.path.join(d, "replaced.parquet.tmp"), os.path.join(d, "replaced.parquet"))
    _write(os.path.join(d, "manifest.json"), 1000)  # not a data file
    got = created_bytes(before, file_state(d))
    assert got == {os.path.join(d, "moved.parquet"): 7, os.path.join(d, "replaced.parquet"): 30}


def test_ledger_counts_files_swept_by_a_later_op(tmp_path):
    d = str(tmp_path)
    _write(os.path.join(d, "base.parquet"), 50)  # exists before the phase
    ledger = BytesLedger(d)
    _write(os.path.join(d, "delta-1.parquet"), 5)
    assert ledger.observe("write") == 5
    os.remove(os.path.join(d, "delta-1.parquet"))  # compaction folds it
    _write(os.path.join(d, "base-c1.parquet"), 40)
    assert ledger.observe("compact") == 40
    assert ledger.total == 45
    assert ledger.by_kind == {"delta": 5, "compact": 40}


# ---- CPU time of the process tree -----------------------------------------

def test_cpu_between_counts_new_processes_and_skips_ended_ones():
    before = {1: (10.0, 2_000_000_000), 2: (5.0, 500_000_000)}
    # 1 ran 0.25 s more, 2 ended, 3 started and ran 0.1 s
    after = {1: (12.0, 2_250_000_000), 3: (1.0, 100_000_000)}
    assert cpu_s_between(before, after) == pytest.approx(0.35)
    assert cpu_s_between(after, after) == 0.0


# ---- the DuckDB oracle restates the repo's reference replay ---------------

def test_sql_oracle_matches_reference_replay(tmp_path):
    from odibel_ray import datagen
    from odibel_ray.oracle import replay_oracle
    from perfbench.oracle import LogOracle

    info = datagen.generate_change_log(str(tmp_path / "g"), n_convs=80, max_turns=10,
                                       num_parts=4, seed=5)
    orc = LogOracle(info["log_dir"])
    want = replay_oracle(info["log_dir"])
    assert fingerprint(orc.con, orc.state(orc.max_lsn())) == fingerprint(orc.con, want)
    # a mid-log cut (between the rename and widen events) equals replaying the prefix
    cut = datagen.split_log(info["log_dir"], str(tmp_path / "p"), frac=0.6)
    want_cut = replay_oracle(str(tmp_path / "p" / "change_log"))
    assert fingerprint(orc.con, orc.state(cut)) == fingerprint(orc.con, want_cut)
    some = want_cut["conv_id"].to_pylist()[:3]
    sub = orc.state(cut, some)
    assert set(sub["conv_id"].to_pylist()) == set(some)
    assert sub.num_rows == sum(1 for c in want_cut["conv_id"].to_pylist() if c in some)
    orc.close()
