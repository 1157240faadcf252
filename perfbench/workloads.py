"""The three workloads. Each one sets up (repeatedly, for ``setup_s``),
measures an amount of work set by ``seconds`` alone (so sample counts do not
depend on the engine's speed) by calling the engine's public functions from
this single-threaded driver, checks the outputs against :class:`LogOracle`,
and returns its end-to-end and per-layer figures.

In a traced run ops alternate untraced/traced: per-layer figures come from
the traced ops, and the traced-vs-untraced median of the workload's primary
op is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import time
import traceback

import pyarrow as pa
import ray

from odibel_ray.cdc import apply as cdc_apply
from odibel_ray.cdc import sink
from odibel_ray.sources import stream
from perfbench import fixtures
from perfbench.harness import (
    BytesLedger,
    canonical,
    fingerprint,
    file_state,
    median,
    row_mismatches,
    tail_percentile,
    cpu_s_between,
    tree_rss_mb,
    tree_stats,
)
from perfbench.oracle import LogOracle
from perfbench.trace import EXEC, EXEC_START, Tracer, layer_summary, self_times

SETUP_REPEATS = 3


class Run:
    """State of one benchmark run: op counting, failures, per-op wall and
    CPU time, the RSS peak and the optional tracer."""

    def __init__(self, work: str, seed: int, seconds: float, trace: bool):
        self.work, self.seed, self.seconds = work, seed, seconds
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.rss_peak_mb = 0.0
        self.durations: dict[tuple[str, bool], list[float]] = {}
        self.cpu: dict[tuple[str, bool], list[float]] = {}
        self.kind_count: dict[str, int] = {}

    def next_traced(self, kind: str) -> bool:
        """Whether the next op of ``kind`` is traced: in a traced run every
        other op of each kind is, starting with the first."""
        return self.tracer is not None and self.kind_count.get(kind, 0) % 2 == 0

    def op(self, kind: str, fn, traced: bool | None = None):
        """Run one op and record its wall and CPU time; returns its result,
        None on failure. ``traced`` defaults to :meth:`next_traced`. The
        process tree's RSS is sampled after every op."""
        if traced is None:
            traced = self.next_traced(kind)
        traced = traced and self.tracer is not None
        i = self.attempted
        self.attempted += 1
        self.kind_count[kind] = self.kind_count.get(kind, 0) + 1
        before = tree_stats()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.op_span(i, kind):
                    res = fn()
            else:
                res = fn()
        except Exception:  # an op boundary: count it, report it, keep going
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            dt = time.perf_counter() - t0
            after = tree_stats()
            self.rss_peak_mb = max(self.rss_peak_mb, tree_rss_mb(after))
        self.durations.setdefault((kind, traced), []).append(dt)
        self.cpu.setdefault((kind, traced), []).append(cpu_s_between(before, after))
        return res

    def times(self, kind: str, traced: bool = False) -> list[float]:
        return self.durations.get((kind, traced), [])

    def cpu_times(self, kind: str) -> list[float]:
        """CPU seconds of each untraced op of ``kind``."""
        return self.cpu.get((kind, False), [])


def published_table(table_dir: str) -> pa.Table:
    ds = sink.read_published(table_dir)
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return canonical(pa.concat_tables(parts, promote_options="default")) if parts else None


def check_table(oracle: LogOracle, table_dir: str, cut: int) -> int:
    """Mismatching rows of the whole published table vs the oracle at
    ``cut``: fingerprints first, the row diff only when they differ."""
    got = published_table(table_dir)
    want = oracle.state(cut)
    if got is None:
        return want.num_rows
    if fingerprint(oracle.con, got) == fingerprint(oracle.con, want):
        return 0
    return max(1, row_mismatches(oracle.con, got, want))


def check_lookups(oracle: LogOracle, samples: list[tuple]) -> int:
    """``samples``: ``(sample_id, conv_id, cut, result_table)``. Returns
    mismatching rows against the oracle state at each sample's cut."""
    if not samples:
        return 0
    got, want = [], []
    by_cut: dict[int, list[tuple]] = {}
    for s in samples:
        by_cut.setdefault(s[2], []).append(s)
    for cut, group in by_cut.items():
        exp = oracle.state(cut, sorted({s[1] for s in group}))
        exp_conv = exp["conv_id"].to_pylist()
        for sid, conv, _, res in group:
            idx = [i for i, c in enumerate(exp_conv) if c == conv]
            e = exp.take(pa.array(idx, pa.int64()))
            want.append(e.append_column("sample", pa.array([sid] * len(e), pa.int64())))
            r = canonical(res)
            got.append(r.append_column("sample", pa.array([sid] * len(r), pa.int64())))
    return row_mismatches(oracle.con, pa.concat_tables(got), pa.concat_tables(want),
                          keys=("sample", "conv_id", "turn_idx"))


def check_scans(oracle: LogOracle, scans: list[tuple]) -> int:
    """``scans``: ``(keys, cut, count)``; returns summed count differences."""
    bad = 0
    for keys, cut, n in scans:
        bad += abs(oracle.state(cut, keys).num_rows - n)
    return bad


def warm_up(work: str) -> None:
    """Start Ray's worker and import the engine there; run each engine
    path the workloads use once on a tiny log."""
    d = os.path.join(work, "warmup")
    info = fixtures.datagen.generate_change_log(d, n_convs=300, max_turns=8, num_parts=4, seed=0)
    log = info["log_dir"]
    sl = fixtures.datagen.slice_log(log, os.path.join(d, "sl"), [0.6, 1.0])
    sink.replay_publish(sl[0], os.path.join(d, "p"), partitioned=True, run_id="w")
    sink.replay_publish(sl[0], os.path.join(d, "h"), num_buckets=4, run_id="w")
    sink.incremental_apply(sl[1], os.path.join(d, "p"), run_id="w1", mode="mor")
    sink.lookup_key(os.path.join(d, "p"), "conv_00000001")
    sink.read_published(os.path.join(d, "p"), where=[("conv_id", "in", ["conv_00000001"])]).count()
    sink.compact_published(os.path.join(d, "p"), run_id="wc")
    cdc_apply.replay_partitioned(log).count()
    shutil.rmtree(d, ignore_errors=True)


def timed_setups(work: str, build) -> tuple[list[float], object]:
    """Run ``build(dir)`` ``SETUP_REPEATS`` times in fresh directories;
    keep the last build's result and delete the others."""
    times, res = [], None
    for i in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup-{i}")
        t0 = time.perf_counter()
        res = build(d)
        times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(d, ignore_errors=True)
    return times, res


# ---------------------------------------------------------------------------
# per-layer figures from the traced ops
# ---------------------------------------------------------------------------

def per_layer(run: Run, primary: str) -> dict[str, float]:
    """Per-layer figures. ``_s`` figures of API calls are medians of the
    call's inclusive time; inner-layer ``_s`` figures are self time per
    traced op; ``.calls``/counts are per traced op."""
    tr = run.tracer
    spans = [s for s in tr.spans if s[5] is not None]
    summ = layer_summary(spans, tr.marks)
    L = summ["layers"]
    n_ops = max(summ["ops"], 1)
    st = self_times(spans)

    def med(name):
        d = L.get(name)
        return median(d["durations"]) if d else 0.0

    def self_per_op(name):
        return L[name]["self_s"] / n_ops if name in L else 0.0

    def calls_per_op(name, outer=False):
        return (L[name]["outer_calls" if outer else "calls"] / n_ops) if name in L else 0.0

    out = {
        "cdc.sink.incremental_apply_s": med("cdc.sink.incremental_apply"),
        "cdc.sink.incremental_apply.calls": calls_per_op("cdc.sink.incremental_apply"),
        "cdc.sink.compact_published_s": med("cdc.sink.compact_published"),
        "cdc.sink.load_manifests_s": self_per_op("cdc.sink.load_manifests"),
        "cdc.sink.load_manifests.calls": calls_per_op("cdc.sink.load_manifests"),
        "cdc.sink.lookup_key_s": med("cdc.sink.lookup_key"),
        "cdc.sink.read_published_plan_s": med("cdc.sink.read_published"),
        "cdc.skipping.file_may_match_s": self_per_op("cdc.skipping.file_may_match"),
        "cdc.skipping.file_may_match.calls": calls_per_op("cdc.skipping.file_may_match"),
        "cdc.schema.extract_timeline_s": self_per_op("cdc.schema.extract_timeline"),
        "cdc.schema.extract_timeline.calls": calls_per_op("cdc.schema.extract_timeline"),
        "sources.stream.spool_jsonl_s": self_per_op("sources.stream.spool_jsonl"),
        "ray.data.executions": calls_per_op(EXEC_START),
        "ray.data.exec_s": self_per_op(EXEC),
        "parquet.opens": calls_per_op("parquet.open", outer=True),
        "parquet.open_s": self_per_op("parquet.open"),
        "driver.self_s": sum(st[s[0]] for s in spans if s[3] is None) / n_ops,
        "trace.spans_per_op": len(spans) / n_ops,
    }
    # parquet files/footers opened per traced lookup
    lk = {s[2] for s in spans if s[3] is None and s[1] == "op.lookup"}
    name_of = {s[0]: s[1] for s in spans}
    opens = sum(1 for s in spans if s[2] in lk and s[1] == "parquet.open"
                and name_of.get(s[3]) != "parquet.open")
    out["cdc.sink.lookup_files_opened"] = opens / len(lk) if lk else 0.0
    untraced, traced = run.times(primary, False), run.times(primary, True)
    out["trace.overhead_share"] = (
        median(traced) / median(untraced) - 1.0 if traced and untraced else 0.0
    )
    return out


def cpu_figures(cpu: list[float], per_cpu_s: float) -> dict:
    """The end-to-end CPU figures: median and tail CPU time of the
    workload's primary op, and its work per CPU-second."""
    tail, label, n = tail_percentile(cpu)
    return {"throughput_per_cpu_s": per_cpu_s, "cpu_ms_p50": 1e3 * median(cpu),
            "cpu_ms_tail": 1e3 * tail, "tail_label": label, "samples": n}


def mix_rate(per_op: dict[tuple[str, bool], list[float]]) -> float:
    """Ops per second of the op mix run, from each op kind's median time
    (wall or CPU), traced and untraced ops pooled."""
    kinds: dict[str, list[float]] = {}
    for (kind, _), ts in per_op.items():
        kinds.setdefault(kind, []).extend(ts)
    return sum(len(t) for t in kinds.values()) / sum(len(t) * median(t) for t in kinds.values())


def bytes_per_event(ledger_kinds: dict[str, int], events: int) -> dict[str, float]:
    ev = max(events, 1)
    return {f"cdc.sink.bytes_written.{k}": ledger_kinds.get(k, 0) / ev
            for k in ("base", "delta", "compact")}


# ---------------------------------------------------------------------------
# bulk_replay
# ---------------------------------------------------------------------------

def bulk_replay(run: Run) -> dict:
    times, info = timed_setups(
        run.work, lambda d: fixtures.generate_log(d, run.seed, fixtures.BULK_LOG))
    log, n_events = info["log_dir"], info["n_events"]
    oracle = LogOracle(log)

    replays: list[str] = []
    bytes_total, events_total, kernel_rows = 0, 0, []
    # the same number of untraced replays in every run; a traced run
    # alternates, so it runs twice as many
    n_untraced = fixtures.per_run(run.seconds, fixtures.BULK_REPLAYS_PER_S)
    n_replays = n_untraced * (2 if run.tracer is not None else 1)
    for i in range(n_replays):
        out = os.path.join(run.work, f"replay-{i}")
        res = run.op("replay", lambda: sink.replay_publish(
            log, out, partitioned=True, run_id=f"r{i}"))
        if res is not None:
            bytes_total += sum(v[2] for v in file_state(out).values())
            events_total += n_events
        if replays:
            shutil.rmtree(replays.pop(), ignore_errors=True)
        replays.append(out)
        if run.tracer is not None and i % 2 == 0:
            # after each traced replay: the kernels with no sink, on the same log
            n = run.op("kernel", lambda: cdc_apply.replay_partitioned(log).count(), traced=True)
            kernel_rows.append(n)

    cut = oracle.max_lsn()
    mismatch = check_table(oracle, replays[-1], cut)
    want_rows = oracle.state(cut).num_rows
    mismatch += sum(abs(n - want_rows) for n in kernel_rows if n is not None)
    oracle.close()

    t, cpu = run.times("replay", False), run.cpu_times("replay")
    lat, label, n = tail_percentile(t)
    res = {
        "setup_times": times,
        **cpu_figures(cpu, n_events / median(cpu)),
        "write_bytes_per_event": bytes_total / max(events_total, 1),
        "mismatch_rows": mismatch,
        "wall": {"throughput_per_s": n_events / median(t), "latency_p50_ms": 1e3 * median(t),
                 "latency_tail_ms": 1e3 * lat, "tail_percentile": label, "samples": n},
        "report": {"replay_events_per_s": n_events / median(t),
                   "events": n_events, "replays": n_replays},
    }
    if run.tracer is not None:
        pl = per_layer(run, "replay")
        k = median(run.times("kernel", True))
        rp = median(run.times("replay", True))
        pl["cdc.apply.replay_partitioned_s"] = k
        pl["cdc.sink.replay_publish_s"] = rp
        pl["cdc.sink.stage_publish_s"] = rp - k
        pl.update(bytes_per_event({"base": bytes_total}, events_total))
        res["per_layer"] = pl
    return res


# ---------------------------------------------------------------------------
# live_tail
# ---------------------------------------------------------------------------

def live_tail(run: Run) -> dict:
    def build(d):
        info = fixtures.generate_log(d, run.seed, fixtures.TAIL_LOG)
        cut = fixtures.datagen.split_log(info["log_dir"], os.path.join(d, "prefix"), frac=0.5)
        batches = fixtures.tail_batches(info["log_dir"], d, cut)
        table = os.path.join(d, "table")
        sink.replay_publish(os.path.join(d, "prefix", "change_log"), table,
                            num_buckets=fixtures.TAIL_BUCKETS, run_id="bootstrap")
        return info, batches, table, d

    times, (info, batches, table, d) = timed_setups(run.work, build)
    oracle = LogOracle(info["log_dir"])
    spool = os.path.join(d, "spool")
    ledger = BytesLedger(table)
    batches = batches[:fixtures.per_run(run.seconds, fixtures.TAIL_BATCHES_PER_S)]
    B = len(batches)
    interval = fixtures.TAIL_INTERVAL_S
    K = fixtures.TAIL_COMPACT_EVERY

    t0 = time.perf_counter() + 0.05
    due = [t0 + i * interval for i in range(B)]
    handoff = [0.0] * B
    published = [float("nan")] * B
    applied, rounds, compactions = 0, 0, 0
    batches_per_round: list[int] = []
    round_events: list[int] = []  # events of each untraced round
    spooled: list[int] = []
    while applied < B:
        now = time.perf_counter()
        n_due = min(B, int((now - t0) // interval) + 1) if now >= t0 else 0
        if n_due <= applied:
            time.sleep(max(0.0, due[applied] - now))
            continue
        lo, hi = applied, n_due
        payload = b"".join(b.payload for b in batches[lo:hi])
        for j in range(lo, hi):
            handoff[j] = now
        r = rounds
        traced = run.next_traced("round")
        res = run.op("round", lambda: stream.tail_stream(
            io.BytesIO(payload), table, spool_dir=spool, num_parts=fixtures.TAIL_LOG["num_parts"],
            batch_rows=1 << 30, num_buckets=fixtures.TAIL_BUCKETS, mode="mor",
            run_prefix=f"tail{r}"))
        t_pub = time.perf_counter()
        for j in range(lo, hi):
            published[j] = t_pub
        if res is not None:
            spooled.append(res["n_events"])
            if not traced:
                round_events.append(res["n_events"])
        applied, rounds = hi, rounds + 1
        batches_per_round.append(hi - lo)
        ledger.observe("round")
        if applied // K > compactions:
            c = compactions
            run.op("compact", lambda: sink.compact_published(table, run_id=f"compact{c}"))
            ledger.observe("compact")
            compactions += 1

    lags = [p - q for p, q in zip(published, due)]
    late = [h - q for h, q in zip(handoff, due)]
    t_sched_end = due[-1] + interval
    backlog_end = sum(1 for q, p in zip(due, published) if q <= t_sched_end < p)
    quarter = max(B // 4, 1)
    lag_growth = median(lags[-quarter:]) / max(median(lags[:quarter]), 1e-9)
    bpr = median(batches_per_round)
    keeps_up = bpr == 1 and lag_growth <= 2.0 and backlog_end <= 3
    if not keeps_up:
        print(f"live_tail: the applier did not keep up with the fixed rate "
              f"({bpr:g} batches per round, lag growth x{lag_growth:.2f}, backlog at end "
              f"{backlog_end} batches); "
              "its lag is not a steady-state figure", file=sys.stderr)

    cut = batches[-1].max_lsn
    mismatch = check_table(oracle, table, cut)
    # sampled point reads and one key-set scan on the tailed table
    ranking = fixtures.hot_ranking(info["log_dir"])
    keys = ranking[:10] + ranking[-5:] + [ranking[0] + "x"]
    samples = [(i, k, cut, sink.lookup_key(table, k)) for i, k in enumerate(keys)]
    mismatch += check_lookups(oracle, samples)
    n_scan = sink.read_published(table, where=[("conv_id", "in", keys)]).count()
    mismatch += check_scans(oracle, [(keys, cut, n_scan)])
    oracle.close()

    lag_tail, label, n = tail_percentile(lags)
    events = sum(b.n_events for b in batches)
    cpu = run.cpu_times("round")
    res = {
        "setup_times": times,
        # the applier's cost: events per CPU-second of a round, median over rounds
        **cpu_figures(cpu, median([e / c for e, c in zip(round_events, cpu)])),
        "write_bytes_per_event": ledger.total / events,
        # the applier's capacity: events per second of a round, median over rounds
        "wall": {"throughput_per_s": median([e / t for e, t in zip(round_events, run.times("round"))]),
                 "latency_p50_ms": 1e3 * median(lags),
                 "latency_tail_ms": 1e3 * lag_tail, "tail_percentile": label, "samples": n},
        "mismatch_rows": mismatch,
        "report": {
            "tail_lag_p50_s": median(lags), "tail_lag_tail_s": lag_tail,
            "offered_events_per_s": fixtures.TAIL_BATCH_EVENTS / interval, "batches": B,
            "batch_interval_s": interval, "rounds": rounds, "compactions": compactions,
            "batches_per_round_p50": bpr, "generator_late_p50_s": median(late),
            "generator_late_max_s": max(late), "backlog_at_end_batches": backlog_end,
            "lag_growth_last_vs_first_quarter": lag_growth, "keeps_up": keeps_up,
        },
    }
    if run.tracer is not None:
        pl = per_layer(run, "round")
        pl["sources.stream.events_spooled"] = (
            sum(spooled) / max(len(spooled), 1))
        pl["cdc.sink.compact_bytes_rewritten"] = (
            ledger.by_kind.get("compact", 0) / max(compactions, 1))
        pl.update(bytes_per_event(ledger.by_kind, events))
        res["per_layer"] = pl
    return res


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

def _pending_deltas(table: str) -> float:
    with open(os.path.join(table, sink.TABLE_MANIFEST)) as f:
        tman = json.load(f)
    return tman.get("mor_deltas", 0) / max(len(tman["buckets"]), 1)


def serve_mixed(run: Run) -> dict:
    def build(d):
        info = fixtures.generate_log(d, run.seed, fixtures.LOG)
        n_cycles = fixtures.per_run(run.seconds, fixtures.SERVE_CYCLES_PER_S)
        prefix, pending, writes = fixtures.serve_slices(
            info["log_dir"], d, n_cycles * fixtures.SERVE_WRITES_PER_CYCLE)
        table = os.path.join(d, "table")
        sink.replay_publish(prefix, table, partitioned=True, run_id="bootstrap")
        for k, s in enumerate(pending):
            sink.incremental_apply(s.log_dir, table, run_id=f"pending{k}", mode="mor")
        ranking = fixtures.hot_ranking(info["log_dir"])
        cycles = fixtures.serve_cycles(run.seed, ranking, n_cycles)
        return info, table, pending[-1].cut, writes, cycles

    times, (info, table, cut, writes, cycles) = timed_setups(run.work, build)
    oracle = LogOracle(info["log_dir"])
    ledger = BytesLedger(table)

    lookups, scans = [], []
    pending_at_read: list[float] = []
    files_ratio: list[float] = []
    events = 0
    # whole cycles only, so every run samples the same delta levels in the same mix
    for cycle in cycles:
        for kind, arg in cycle:
            traced = run.next_traced(kind)
            if traced and kind in ("lookup", "scan"):
                pending_at_read.append(_pending_deltas(table))
            if kind == "lookup":
                res = run.op("lookup", lambda: sink.lookup_key(table, arg))
                if res is not None:
                    lookups.append((len(lookups), arg, cut, res))
            elif kind == "scan":
                ps: dict = {}
                res = run.op("scan", lambda: sink.read_published(
                    table, where=[("conv_id", "in", arg)], prune_stats=ps).count())
                if res is not None:
                    scans.append((arg, cut, res))
                    if traced:
                        files_ratio.append(ps["files_read"] / max(ps["files_total"], 1))
            elif kind == "write":
                s = writes[arg]
                res = run.op("write", lambda: sink.incremental_apply(
                    s.log_dir, table, run_id=f"w{arg}", mode="mor"))
                if res is not None:
                    cut = s.cut
                    events += s.n_events
                ledger.observe("write")
            else:
                run.op("compact", lambda: sink.compact_published(
                    table, run_id=f"c{arg}"))
                ledger.observe("compact")

    mismatch = check_lookups(oracle, lookups) + check_scans(oracle, scans)
    mismatch += check_table(oracle, table, cut)
    oracle.close()

    lk = run.times("lookup", False)
    lat_tail, label, n = tail_percentile(lk)
    ops_per_s = mix_rate(run.durations)
    res = {
        "setup_times": times,
        **cpu_figures(run.cpu_times("lookup"), mix_rate(run.cpu)),
        "write_bytes_per_event": ledger.total / max(events, 1),
        "wall": {"throughput_per_s": ops_per_s, "latency_p50_ms": 1e3 * median(lk),
                 "latency_tail_ms": 1e3 * lat_tail, "tail_percentile": label, "samples": n},
        "mismatch_rows": mismatch,
        "report": {
            "lookup_p50_ms": 1e3 * median(lk), "lookup_tail_ms": 1e3 * lat_tail,
            "scan_p50_ms": 1e3 * median(run.times("scan", False)),
            "serve_ops_per_s": ops_per_s, "ops": run.attempted, "clients": 1,
            "lookups": len(lookups), "scans": len(scans),
            "writes": len(run.times("write", False)) + len(run.times("write", True)),
        },
    }
    if run.tracer is not None:
        pl = per_layer(run, "lookup")
        pl["cdc.sink.mor_deltas_pending"] = (
            sum(pending_at_read) / len(pending_at_read) if pending_at_read else 0.0)
        pl["cdc.skipping.files_read_ratio"] = (
            sum(files_ratio) / len(files_ratio) if files_ratio else 0.0)
        n_c = len(run.times("compact", False)) + len(run.times("compact", True))
        pl["cdc.sink.compact_bytes_rewritten"] = ledger.by_kind.get("compact", 0) / max(n_c, 1)
        pl.update(bytes_per_event(ledger.by_kind, events))
        res["per_layer"] = pl
    return res


WORKLOADS = {"bulk_replay": bulk_replay, "live_tail": live_tail, "serve_mixed": serve_mixed}
