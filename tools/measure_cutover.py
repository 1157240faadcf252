"""Measure the sink's driver/Ray Data cutover (``sink.DRIVER_MAX_BYTES``).

For a range of input sizes, runs the same merge-on-read ``incremental_apply``
(a 4-bucket table of half a log, then one LSN slice of the rest), the same
from-scratch ``replay_publish`` of a 16-part log (``replay-p``: partitioned,
``replay-h``: hashed into 4 buckets), the same ``compact_published`` (a
16-part table of that log with one MOR delta per bucket) and two
``read_published(...).count()`` reads of that table (``scan-k``: a routed
8-key ``in`` scan, as ``serve_mixed`` runs; ``scan-all``: the whole table)
through each executor, forced by moving the cutover to an extreme. A write
runs on a fresh copy of the table each time; a read runs on the table
itself, after one untimed read warms its cache entry, and its input is the
bytes of the files it opens. Prints one line per (op, input bytes,
executor) with the median wall time and process-tree CPU time, then one
``crossover`` line per op: the smallest measured input at which the
driver's median wall time reaches Ray Data's median wall time on the same
input, or ``none up to N MB`` when the driver stays faster at every
measured size.

    python3 tools/measure_cutover.py [--work DIR] [--reps 3]

Runs on a 1-CPU local Ray session, like ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import cpu_s_between, tree_stats  # noqa: E402

APPLY_CONVS = 24_000  # a live_tail-shaped log (4 parts), 4x as many conversations
APPLY_FRACS = (0.501, 0.505, 0.51, 0.55, 0.6, 0.7, 0.8, 0.9)  # slice (0.5, f] of it
# serve_mixed-shaped logs (bulk_replay's is the 4,000-conversation one)
LOG_CONVS = (250, 1_000, 4_000, 8_000, 16_000, 24_000)
FORCE = {"driver": 1 << 62, "ray_data": 0}
SCAN_KEYS = 8  # conversations in a routed scan's ``in`` list, as in serve_mixed
#: op → input bytes → executor → median wall time (s), filled by _measure
WALLS: dict[str, dict[int, dict[str, float]]] = {}


def _nbytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _timed(fn) -> tuple[float, float]:
    before, t0 = tree_stats(), time.perf_counter()
    fn()
    return time.perf_counter() - t0, cpu_s_between(before, tree_stats())


def _measure(sink, op: str, nbytes: int, base: str, work: str, run, reps: int,
             copy: bool = True) -> None:
    """Time ``run(table, run_id)`` ``reps`` times per executor, on a fresh
    copy of ``base`` each time (``copy``), or on ``base`` itself after one
    untimed run (a read). Records the median wall times in ``WALLS``."""
    for executor, cutover in FORCE.items():
        sink.DRIVER_MAX_BYTES = cutover
        walls, cpus = [], []
        if not copy:
            run(base, executor)
        for i in range(reps):
            table = os.path.join(work, "run") if copy else base
            if copy:
                shutil.rmtree(table, ignore_errors=True)
                shutil.copytree(base, table)
            wall, cpu = _timed(lambda: run(table, f"{executor}{i}"))
            walls.append(wall)
            cpus.append(cpu)
        WALLS.setdefault(op, {}).setdefault(nbytes, {})[executor] = statistics.median(walls)
        print(f"{op:8s} {nbytes / 1e6:7.2f} MB {executor:8s} "
              f"wall {statistics.median(walls):6.3f} s  cpu {statistics.median(cpus):6.3f} s",
              flush=True)


def _print_crossovers() -> None:
    """Per op, the smallest input at which the driver's median wall time
    reaches Ray Data's at the same input."""
    for op, sizes in WALLS.items():
        at = next((n for n, w in sorted(sizes.items()) if w["driver"] >= w["ray_data"]), None)
        found = f"{at / 1e6:.2f} MB" if at is not None else f"none up to {max(sizes) / 1e6:.2f} MB"
        print(f"crossover {op:8s} {found}", flush=True)


def _opened_bytes(sink, read) -> int:
    """Parquet bytes of the files ``read()`` opens: the input its executor
    is chosen by."""
    seen = []
    choose = sink._executor_for
    sink._executor_for = lambda paths: seen.append(_nbytes(paths)) or choose(paths)
    try:
        read()
    finally:
        sink._executor_for = choose
    return seen[0]


def _measure_scans(sink, table: str, work: str, reps: int) -> None:
    """``scan-k`` and ``scan-all`` on ``table``."""
    import pyarrow.parquet as pq

    convs = sorted({c for m in sink.load_manifests(table).values()
                    for c in pq.read_table(os.path.join(table, m["file"]),
                                           columns=["conv_id"])["conv_id"].to_pylist()})
    keys = convs[:: max(len(convs) // SCAN_KEYS, 1)][:SCAN_KEYS]
    for op, kw in (("scan-k", {"where": [("conv_id", "in", keys)]}), ("scan-all", {})):
        def read(t, _r, kw=kw):
            return sink.read_published(t, **kw).count()

        n = _opened_bytes(sink, lambda: read(table, None))
        _measure(sink, op, n, table, work, read, reps, copy=False)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", default=None, help="scratch directory (default: a temp dir)")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="cutover-")

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             object_store_memory=512 * 1024 * 1024)
    DataContext.get_current().enable_progress_bars = False

    from odibel_ray import datagen
    from odibel_ray.cdc import sink
    from perfbench import fixtures

    # warm the Ray worker and both executors once
    warm = fixtures.generate_log(os.path.join(work, "warm"), 0, {**fixtures.TAIL_LOG, "n_convs": 200})
    sl = datagen.slice_log(warm["log_dir"], os.path.join(work, "warm", "sl"), [0.5, 1.0])
    sink.replay_publish(sl[0], os.path.join(work, "warm", "t"), num_buckets=4, run_id="w")
    for executor, cutover in FORCE.items():
        sink.DRIVER_MAX_BYTES = cutover
        sink.replay_publish(sl[0], os.path.join(work, "warm", executor), partitioned=True,
                            run_id="w")
        sink.incremental_apply(sl[1], os.path.join(work, "warm", "t"), run_id=executor, mode="mor")

    info = fixtures.generate_log(os.path.join(work, "apply"), 1,
                                 {**fixtures.TAIL_LOG, "n_convs": APPLY_CONVS})
    base = os.path.join(work, "apply", "base")
    for k, frac in enumerate(APPLY_FRACS):
        # the slice (0.5, frac] is the whole log of one apply
        prefix, log = datagen.slice_log(info["log_dir"], os.path.join(work, "apply", f"sl{k}"),
                                        [0.5, frac])
        if k == 0:
            sink.replay_publish(prefix, base, num_buckets=fixtures.TAIL_BUCKETS, run_id="b")
        n = _nbytes(glob.glob(os.path.join(log, "part=*", "*.parquet")))
        _measure(sink, "apply", n, base, work, lambda t, r, log=log:
                 sink.incremental_apply(log, t, run_id=r, mode="mor"), args.reps)

    for n_convs in LOG_CONVS:
        d = os.path.join(work, f"compact{n_convs}")
        info = fixtures.generate_log(d, 1, {**fixtures.LOG, "n_convs": n_convs})
        empty = os.path.join(d, "empty")
        os.makedirs(empty)
        n = _nbytes(glob.glob(os.path.join(info["log_dir"], "part=*", "*.parquet")))
        for op, kw in (("replay-p", {"partitioned": True}),
                       ("replay-h", {"num_buckets": fixtures.TAIL_BUCKETS})):
            _measure(sink, op, n, empty, work, lambda t, r, kw=kw, log=info["log_dir"]:
                     sink.replay_publish(log, t, run_id=r, **kw), args.reps)
        sl = datagen.slice_log(info["log_dir"], os.path.join(d, "sl"), [0.7, 0.75])
        base = os.path.join(d, "base")
        sink.replay_publish(sl[0], base, partitioned=True, run_id="b")
        sink.DRIVER_MAX_BYTES = FORCE["driver"]
        sink.incremental_apply(sl[1], base, run_id="d", mode="mor")
        n = _nbytes(glob.glob(os.path.join(base, "*.parquet")))
        _measure(sink, "compact", n, base, work, lambda t, r:
                 sink.compact_published(t, run_id=r), args.reps)
        _measure_scans(sink, base, work, args.reps)
        shutil.rmtree(d, ignore_errors=True)

    _print_crossovers()
    ray.shutdown()
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
