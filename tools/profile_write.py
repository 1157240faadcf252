"""Split one merge-on-read write, one compaction and one bulk replay by
function, on ``perfbench``'s inputs.

Builds the table ``perfbench``'s ``serve_mixed`` workload starts from for one
seed (the 16-part partitioned base plus its pending merge-on-read deltas, via
``perfbench.fixtures``), runs the workload's first three client writes and a
compaction as a warm-up, then measures the next client write
(``incremental_apply(mode="mor")``) and the compaction after it
(``compact_published``, folding 3 deltas per bucket). It then generates the
``bulk_replay`` log of the seed, replays it once as a warm-up, and measures
a second partitioned ``replay_publish`` of it into a fresh directory. All
three run in the driver, as in the workloads. For each op and for each
sink function it calls, it prints the calls and the inclusive CPU time
twice:

- main thread (``time.thread_time``): what perfbench's per-process
  ``schedstat`` sees;
- all threads (``time.process_time``): also pyarrow's pools, which the
  main-thread figure misses.

Inclusive times nest (``keep_last_indices`` runs inside ``_write_bucket``,
which runs inside ``_write_events``), so the rows do not add up to the op.

    python3 tools/profile_write.py [--seed 1] [--work DIR]

Runs on a 1-CPU local Ray session, like ``perfbench/run.py``; the set-up
takes about a minute and a half.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: (module, function) pairs timed, by the name the sink calls them through
TIMED = {
    "odibel_ray.cdc.sink": [
        "load_manifests", "_resolved_table", "extract_timeline", "_read_wal_part", "prepare_events",
        "_split_by_bucket", "_write_events", "_write_bucket", "keep_last_per_key",
        "keep_last_indices", "_read_bucket", "merge_base_deltas", "_stage_bucket",
        "_write_data_file", "_publish_delta_row", "_publish_base_row", "_sweep_bucket_versions",
        "_commit_table",
    ],
    # the kernel keep_last_per_key runs (a bucket write calls it directly)
    "odibel_ray.cdc.lww": ["keep_last_indices"],
    "odibel_ray.cdc.skipping": ["bloom_filter"],
    "pyarrow.parquet": ["read_table", "read_metadata"],
}


def _build(work: str, seed: int, seconds: float) -> tuple[str, list]:
    """The serve_mixed set-up table and its client write slices, in order."""
    from odibel_ray.cdc import sink
    from perfbench import fixtures

    info = fixtures.generate_log(work, seed, fixtures.LOG)
    n_cycles = fixtures.per_run(seconds, fixtures.SERVE_CYCLES_PER_S)
    prefix, pending, writes = fixtures.serve_slices(
        info["log_dir"], work, n_cycles * fixtures.SERVE_WRITES_PER_CYCLE)
    table = os.path.join(work, "table")
    sink.replay_publish(prefix, table, partitioned=True, run_id="bootstrap")
    for k, s in enumerate(pending):
        sink.incremental_apply(s.log_dir, table, run_id=f"pending{k}", mode="mor")
    return table, writes


def _timed(acc: dict) -> None:
    """Wrap every :data:`TIMED` function that exists with a CPU-time
    accumulator ``acc[name] = [calls, thread_s, process_s]``."""
    import importlib

    for mod_name, names in TIMED.items():
        mod = importlib.import_module(mod_name)
        for name in names:
            real = getattr(mod, name, None)
            if real is None:
                continue

            def timed(*a, _real=real, _name=name, **k):
                t0, p0 = time.thread_time(), time.process_time()
                try:
                    return _real(*a, **k)
                finally:
                    row = acc[_name]
                    row[0] += 1
                    row[1] += time.thread_time() - t0
                    row[2] += time.process_time() - p0

            setattr(mod, name, timed)


def _report(op: str, total: tuple[float, float], acc: dict) -> None:
    print(f"{op}: main thread {1e3 * total[0]:.1f} ms, all threads {1e3 * total[1]:.1f} ms")
    print(f"  {'function':<24}{'calls':>6}{'main ms':>10}{'all ms':>10}")
    for name, (calls, th, pr) in sorted(acc.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<24}{calls:>6}{1e3 * th:>10.1f}{1e3 * pr:>10.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="serve_mixed run length the write slices are drawn for")
    ap.add_argument("--work", default=None, help="scratch directory (default: a temp dir)")
    args = ap.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="profile-write-")

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             object_store_memory=512 * 1024 * 1024)
    DataContext.get_current().enable_progress_bars = False

    from odibel_ray.cdc import sink
    from perfbench import fixtures

    table, writes = _build(work, args.seed, args.seconds)
    # warm-up, back to the set-up's 2 pending deltas per bucket: the timed
    # write adds a 3rd and the timed compaction folds all 3, as a
    # serve_mixed cycle's first write and its compaction do
    sink.incremental_apply(writes[0].log_dir, table, run_id="w0", mode="mor")
    sink.compact_published(table, run_id="c0")
    for k in (1, 2):
        sink.incremental_apply(writes[k].log_dir, table, run_id=f"w{k}", mode="mor")

    acc: dict = defaultdict(lambda: [0, 0.0, 0.0])
    _timed(acc)
    bulk = fixtures.generate_log(os.path.join(work, "bulk"), args.seed, fixtures.BULK_LOG)
    sink.replay_publish(bulk["log_dir"], os.path.join(work, "replay-0"), partitioned=True,
                        run_id="r0")
    ops = [("write", lambda: sink.incremental_apply(writes[3].log_dir, table, run_id="w3",
                                                    mode="mor")),
           ("compaction", lambda: sink.compact_published(table, run_id="c1")),
           ("replay", lambda: sink.replay_publish(bulk["log_dir"], os.path.join(work, "replay-1"),
                                                  partitioned=True, run_id="r1"))]
    print(f"seed {args.seed}: serve_mixed set-up table, a write of {writes[3].n_events} events; "
          f"bulk_replay log of {bulk['n_events']} events")
    for op, fn in ops:
        acc.clear()
        t0, p0 = time.thread_time(), time.process_time()
        res = fn()
        total = (time.thread_time() - t0, time.process_time() - p0)
        assert res["executor"] == "driver", res
        _report(op, total, acc)

    ray.shutdown()
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
