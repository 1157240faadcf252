"""Profile ``lookup_key`` on the ``serve_mixed`` set-up table.

Builds the table ``perfbench``'s ``serve_mixed`` workload starts from for one
seed (the 16-part partitioned base plus its pending merge-on-read deltas, via
``perfbench.fixtures``) and runs the workload's lookups on it, in order, for
``--passes`` passes after one warm-up pass. The table does not change between
lookups. Prints three figures per lookup:

- process CPU time, all threads (``time.process_time``), median and mean;
- Parquet opens: ``pq.read_table``, ``pq.read_metadata`` and
  ``pq.read_schema`` calls, in total and by function;
- a cProfile top-15 by cumulative time over one more pass.

    python3 tools/profile_lookup.py [--seed 1] [--passes 3] [--work DIR]

Runs on a 1-CPU local Ray session, like ``perfbench/run.py``; the set-up
takes about a minute.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

OPENS = ("read_table", "read_metadata", "read_schema")


def _build(work: str, seed: int, seconds: float) -> tuple[str, list[str]]:
    """The serve_mixed set-up table and its lookup keys, in workload order."""
    from odibel_ray.cdc import sink
    from perfbench import fixtures

    info = fixtures.generate_log(work, seed, fixtures.LOG)
    n_cycles = fixtures.per_run(seconds, fixtures.SERVE_CYCLES_PER_S)
    prefix, pending, _ = fixtures.serve_slices(
        info["log_dir"], work, n_cycles * fixtures.SERVE_WRITES_PER_CYCLE)
    table = os.path.join(work, "table")
    sink.replay_publish(prefix, table, partitioned=True, run_id="bootstrap")
    for k, s in enumerate(pending):
        sink.incremental_apply(s.log_dir, table, run_id=f"pending{k}", mode="mor")
    cycles = fixtures.serve_cycles(seed, fixtures.hot_ranking(info["log_dir"]), n_cycles)
    return table, [arg for cycle in cycles for kind, arg in cycle if kind == "lookup"]


def _count_opens(counts: Counter) -> None:
    """Count every Parquet open made through ``pyarrow.parquet``."""
    import pyarrow.parquet as pq

    for name in OPENS:
        real = getattr(pq, name)

        def counted(*a, _real=real, _name=name, **k):
            counts[_name] += 1
            return _real(*a, **k)

        setattr(pq, name, counted)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=3, help="timed passes over the lookups")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="serve_mixed run length the lookup stream is drawn for")
    ap.add_argument("--work", default=None, help="scratch directory (default: a temp dir)")
    args = ap.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="profile-lookup-")

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             object_store_memory=512 * 1024 * 1024)
    DataContext.get_current().enable_progress_bars = False

    from odibel_ray.cdc import sink

    table, keys = _build(work, args.seed, args.seconds)
    for key in keys:  # warm-up pass
        sink.lookup_key(table, key)

    counts: Counter = Counter()
    _count_opens(counts)
    cpu = []
    for _ in range(args.passes):
        for key in keys:
            t0 = time.process_time()
            sink.lookup_key(table, key)
            cpu.append(time.process_time() - t0)
    n = len(cpu)
    print(f"seed {args.seed}: {n} lookups ({len(keys)} keys x {args.passes} passes)")
    print(f"cpu per lookup: median {1e3 * statistics.median(cpu):.2f} ms, "
          f"mean {1e3 * statistics.fmean(cpu):.2f} ms")
    by_fn = ", ".join(f"{name} {counts[name] / n:.2f}" for name in OPENS)
    print(f"parquet opens per lookup: {sum(counts.values()) / n:.2f} ({by_fn})")

    prof = cProfile.Profile()
    prof.enable()
    for key in keys:
        sink.lookup_key(table, key)
    prof.disable()
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats("cumulative").print_stats(15)
    print(f"cProfile, one pass of {len(keys)} lookups, top 15 by cumulative time:")
    print(out.getvalue())

    ray.shutdown()
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
