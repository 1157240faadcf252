"""Seeded inputs. Everything a workload feeds the engine is derived here from
the workload seed, outside any timed region: the change log, its LSN
prefix and slices, the JSONL micro-batch bytes and the client op stream.
Each run generates its inputs afresh (nothing is cached across runs), so
set-up costs the same on every run."""

from __future__ import annotations

import os
from dataclasses import dataclass

import duckdb
import numpy as np
import pyarrow.dataset as pads

from odibel_ray import datagen

#: the one log shape every workload starts from: Zipf(s=1) update skew over
#: conversations, ~5% deletes (half re-inserted), 1% malformed rows, three
#: schema events (add_column at 35%, rename_column at 55%, widen_type at 75%
#: of the data events)
LOG = {"n_convs": 8_000, "max_turns": 24, "num_parts": 16}
#: bulk_replay replays a smaller log of the same shape, so that one run
#: holds enough replays for a median and a tail percentile
BULK_LOG = {**LOG, "n_convs": 4_000}
#: live_tail's log: its second half holds the 24 batches of a 15 s run. Four
#: WAL parts and four buckets keep a round's Ray Data task count, and so
#: its fixed cost, low enough for a useful rate on one CPU
TAIL_LOG = {**LOG, "n_convs": 6_000, "num_parts": 4}

#: The amount of work in a run depends on ``--seconds`` only, never on how
#: fast the engine is, so every commit gets the same sample counts (and so
#: the same tail percentile). These are the counts per second of
#: ``--seconds``; :func:`per_run` turns them into counts.
BULK_REPLAYS_PER_S = 2.0  # 30 untraced replays at 15 s
TAIL_BATCHES_PER_S = 1.6  # 24 micro-batches at 15 s
SERVE_CYCLES_PER_S = 0.2  # 3 client cycles (72 lookups) at 15 s

#: live_tail's fixed open-loop rate: one batch of TAIL_BATCH_EVENTS every
#: TAIL_INTERVAL_S (about 2700 events/s). On a 1-CPU host the engine
#: takes 0.3-0.4 s per round and per compaction, so the applier is idle
#: about half the time and every round carries one batch. The schedule spans
#: 1.2x ``--seconds``.
TAIL_BATCH_EVENTS = 2_000
TAIL_INTERVAL_S = 0.75
TAIL_COMPACT_EVERY = 6  # live_tail: compact after every 6 applied batches
TAIL_BUCKETS = 4  # live_tail: hash buckets of the bootstrapped table

SERVE_PREFIX = 0.70  # serve_mixed: share of the log in the partitioned base
SERVE_PENDING = (0.725, 0.75)  # serve_mixed: MOR deltas applied at set-up
SERVE_WRITE_FRAC = 0.25 / 30  # serve_mixed: share of the log in one client write
SERVE_READS_PER_WRITE = 9
SERVE_SCAN_AT = 4  # the 5th read between two writes is a key-set scan
SERVE_WRITES_PER_CYCLE = 3
SERVE_ABSENT_EVERY = 10  # every 10th lookup asks for a key that does not exist
SERVE_SCAN_KEYS = 8
READ_ZIPF_S = 1.1  # read skew over conversations ranked by update count


def per_run(seconds: float, per_s: float) -> int:
    return max(1, round(seconds * per_s))


def generate_log(work: str, seed: int, shape: dict) -> dict:
    return datagen.generate_change_log(os.path.join(work, "gen"), seed=seed, **shape)


def _lsns(log_dir: str) -> np.ndarray:
    t = pads.dataset(log_dir, format="parquet", partitioning="hive").to_table(columns=["lsn"])
    return np.sort(t["lsn"].to_numpy())


@dataclass
class Batch:
    payload: bytes
    n_events: int
    max_lsn: int


def tail_batches(log_dir: str, work: str, cut: int) -> list[Batch]:
    """Events past ``cut`` as LSN-ordered JSONL (the wire shape of a binlog
    feed), split into consecutive micro-batches of ``TAIL_BATCH_EVENTS``
    lines; a shorter remainder is dropped."""
    path = os.path.join(work, "tail.jsonl")
    con = duckdb.connect()
    try:
        src = f"read_parquet('{log_dir}/part=*/*.parquet', hive_partitioning = true)"
        con.execute(
            f"COPY (SELECT * EXCLUDE (part) FROM {src} WHERE lsn > {int(cut)} ORDER BY lsn) "
            f"TO '{path}' (FORMAT JSON)"
        )
        lsn = con.execute(f"SELECT lsn FROM {src} WHERE lsn > {int(cut)} ORDER BY lsn").fetchnumpy()["lsn"]
    finally:
        con.close()
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    os.remove(path)
    if lines and lines[-1] == b"":
        lines.pop()
    if len(lines) != len(lsn):
        raise RuntimeError(f"JSONL export wrote {len(lines)} lines for {len(lsn)} events")
    n = TAIL_BATCH_EVENTS
    return [Batch(b"\n".join(lines[a:a + n]) + b"\n", n, int(lsn[a + n - 1]))
            for a in range(0, len(lines) - n + 1, n)]


@dataclass
class Slice:
    log_dir: str
    n_events: int
    cut: int  # max LSN in the slice: the table's cut once it is applied


def serve_slices(log_dir: str, work: str, n_writes: int) -> tuple[str, list[Slice], list[Slice]]:
    """Partitioned-base prefix plus consecutive LSN slices: the set-up's
    pending deltas and the client's ``n_writes`` writes. Returns
    ``(prefix_log, pending, writes)``."""
    datagen.split_log(log_dir, os.path.join(work, "prefix"), frac=SERVE_PREFIX)
    last = min(1.0, SERVE_PENDING[-1] + n_writes * SERVE_WRITE_FRAC)
    fracs = [SERVE_PREFIX, *SERVE_PENDING,
             *np.linspace(SERVE_PENDING[-1], last, n_writes + 1)[1:].tolist()]
    dirs = datagen.slice_log(log_dir, os.path.join(work, "slices"), fracs)
    out = []
    for d in dirs[1:]:  # slice 0 is the prefix again
        lsn = _lsns(d)
        out.append(Slice(d, int(len(lsn)), int(lsn[-1])))
    k = len(SERVE_PENDING)
    return os.path.join(work, "prefix", "change_log"), out[:k], out[k:]


def hot_ranking(log_dir: str) -> list[str]:
    """Conversations ordered hottest first by update count in the log."""
    con = duckdb.connect()
    try:
        rows = con.execute(
            "SELECT conv_id FROM read_parquet(?, hive_partitioning = true) "
            "WHERE conv_id IS NOT NULL GROUP BY conv_id "
            "ORDER BY count(*) FILTER (WHERE op = 'U') DESC, conv_id",
            [f"{log_dir}/part=*/*.parquet"],
        ).fetchall()
    finally:
        con.close()
    return [r[0] for r in rows]


def zipf_picker(rng: np.random.Generator, n: int, s: float = READ_ZIPF_S):
    """Sampler of ranks ``0..n-1`` with ``P(r) ~ 1 / (r + 1)^s``."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** s)
    cdf /= cdf[-1]
    return lambda size=None: np.minimum(np.searchsorted(cdf, rng.random(size)), n - 1)


def serve_cycles(seed: int, ranking: list[str], n_cycles: int) -> list[list[tuple]]:
    """The closed-loop client's op stream, in cycles of 31 ops:
    ``[9 reads, write, compact, 9 reads, write, 9 reads, write]``, where the
    5th of every 9 reads is a key-set scan and the rest are lookups. The
    set-up leaves 2 pending deltas per bucket, so every cycle sees the same
    delta levels (2, then 0 and 1 after the compaction) and ends where it
    started. Writes are numbered in order, one slice each. The shape is
    fixed so every run does the same mix; the seed picks the keys: lookups
    draw Zipf-hot conversations (every 10th asks for an absent key), scans
    an ``in``-list of 8 Zipf-hot conversations."""
    rng = np.random.default_rng([seed, 2])
    pick = zipf_picker(rng, len(ranking))
    writes = 0
    n_lookups = 0

    def reads() -> list[tuple]:
        nonlocal n_lookups
        out = []
        for r in range(SERVE_READS_PER_WRITE):
            if r == SERVE_SCAN_AT:
                out.append(("scan", sorted({ranking[i] for i in pick(SERVE_SCAN_KEYS)})))
                continue
            n_lookups += 1
            if n_lookups % SERVE_ABSENT_EVERY == 0:
                # sorts between two real conversations, so footers can't rule it out
                out.append(("lookup", ranking[int(rng.integers(len(ranking)))] + "x"))
            else:
                out.append(("lookup", ranking[int(pick())]))
        return out

    cycles = []
    for _ in range(n_cycles):
        cycle: list[tuple] = []
        for k in range(SERVE_WRITES_PER_CYCLE):
            cycle.extend(reads())
            cycle.append(("write", writes))
            writes += 1
            if k == 0:
                cycle.append(("compact", writes))
        cycles.append(cycle)
    return cycles
