"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <bulk_replay|live_tail|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Starts a one-CPU local Ray session, sets the
workload up, measures an amount of work set by ``--seconds``, checks the
results against a DuckDB oracle over the change log, and prints a report line
followed by one JSON result line (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Exit code 1 means a correctness mismatch, 2 a missing engine
or bad arguments. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/s"),
    ("cpu_ms_p50", "ms"),
    ("cpu_ms_tail", "ms"),
    ("write_bytes_per_event", "B/event"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cdc.apply.replay_partitioned_s", "s"),
    ("cdc.sink.replay_publish_s", "s"),
    ("cdc.sink.stage_publish_s", "s"),
    ("cdc.sink.incremental_apply_s", "s"),
    ("cdc.sink.incremental_apply.calls", "count"),
    ("cdc.sink.compact_published_s", "s"),
    ("cdc.sink.compact_bytes_rewritten", "B"),
    ("cdc.sink.bytes_written.base", "B/event"),
    ("cdc.sink.bytes_written.delta", "B/event"),
    ("cdc.sink.bytes_written.compact", "B/event"),
    ("cdc.sink.load_manifests_s", "s"),
    ("cdc.sink.load_manifests.calls", "count"),
    ("cdc.sink.lookup_key_s", "s"),
    ("cdc.sink.lookup_files_opened", "count"),
    ("cdc.sink.mor_deltas_pending", "count"),
    ("cdc.sink.read_published_plan_s", "s"),
    ("cdc.skipping.files_read_ratio", "ratio"),
    ("cdc.skipping.file_may_match_s", "s"),
    ("cdc.skipping.file_may_match.calls", "count"),
    ("cdc.schema.extract_timeline_s", "s"),
    ("cdc.schema.extract_timeline.calls", "count"),
    ("sources.stream.spool_jsonl_s", "s"),
    ("sources.stream.events_spooled", "count"),
    ("ray.data.executions", "count"),
    ("ray.data.exec_s", "s"),
    ("parquet.opens", "count"),
    ("parquet.open_s", "s"),
    ("driver.self_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_per_op", "count"),
]

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = 64
TIMEOUT_S = 170
SHUTDOWN_GRACE_S = 20.0  # before the processes Ray left behind are killed


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout(f"benchmark exceeded {TIMEOUT_S} s")


def start_ray(tmp: str) -> float:
    """One-CPU local Ray session with its temp files under ``tmp``. Returns
    the ``ray.init`` wall time."""
    import ray
    from ray.data import DataContext

    # workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {}
    if len(tmp) + RAY_SOCKET_SUFFIX <= 107:
        kw["_temp_dir"] = tmp
    else:
        print(f"checkout path too long for Ray sockets under {tmp}; using Ray's "
              "default temp dir", file=sys.stderr)
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, **kw)
    dt = time.perf_counter() - t0
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    for name in ("ray.data", "ray"):
        logging.getLogger(name).setLevel(logging.ERROR)
    return dt


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    from perfbench.harness import descendants

    kids = descendants(os.getpid())
    ray.shutdown()
    for grace, kill in ((SHUTDOWN_GRACE_S, True), (5.0, False)):
        deadline = time.monotonic() + grace
        while any(_running(p) for p in kids) and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = [p for p in kids if _running(p)]
        if not alive:
            return
        if kill:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
    print(f"processes still running after shutdown: {alive}", file=sys.stderr)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    from perfbench.harness import median
    from perfbench.workloads import Run, warm_up

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    ray_tmp = os.path.join(ROOT, ".bench_ray")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(work, args.seed, args.seconds, bool(args.trace))
    started = False
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIMEOUT_S)
    try:
        init_s = start_ray(ray_tmp)
        started = True
        t0 = time.perf_counter()
        warm_up(work)
        warm_s = time.perf_counter() - t0
        if run.tracer is not None:
            run.tracer.install()
        res = WORKLOADS[args.workload](run)
        if run.tracer is not None:
            run.tracer.uninstall()
            os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
            run.tracer.dump(os.path.join(
                ROOT, ".bench_traces", f"{args.workload}-s{args.seed}.json"))
    finally:
        if started:
            stop_ray()
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    setup_s = init_s + warm_s + median(res["setup_times"])
    values = {"setup_s": setup_s, "peak_rss_mb": run.rss_peak_mb,
              **{k: res[k] for k in ("throughput_per_cpu_s", "cpu_ms_p50", "cpu_ms_tail",
                                     "write_bytes_per_event")}}
    mismatch = int(res["mismatch_rows"])
    error_rate = run.failed / max(run.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
        "tail_percentile": res["tail_label"], "samples": res["samples"],
        "wall": res["wall"],
        "error_rate": {"value": error_rate, "unit": "1"},
        "mismatch_rows": {"value": mismatch, "unit": "rows"},
        "setup_parts_s": {"ray_init": init_s, "warm_up": warm_s,
                          "fixtures_and_bootstrap": res["setup_times"]},
        **res["report"],
    }
    if args.trace:
        pl = res.get("per_layer", {})
        metrics = {k: {"value": float(pl.get(k, 0.0)), "unit": u} for k, u in PER_LAYER}
        report["per_layer"] = metrics
    else:
        metrics = report["metrics"]
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({"correct": mismatch == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if mismatch == 0 else 1


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "odibel_ray")):
        print(f"no odibel_ray package under {ROOT}: run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, ROOT)
    sys.exit(main())
