"""Measurement arithmetic shared by every workload: percentiles, the
order-independent table fingerprint, bytes-written accounting and the RSS
and CPU time of the process tree. Pure functions over plain values so the
tests can check them without Ray."""

from __future__ import annotations

import os
import statistics

import pyarrow as pa

#: canonical column types of the converged transcript table; both the
#: published table and the oracle are cast to this before hashing
CANON = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int64()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool_name", pa.string()),
        ("score", pa.float64()),
        ("ts", pa.timestamp("us")),
    ]
)

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10

#: the data files the bytes-written accounting counts
DATA_SUFFIX = ".parquet"


def median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def tail_percentile(xs: list[float]) -> tuple[float, str, int]:
    """Highest nearest-rank percentile with at least ``TAIL_BEYOND`` samples
    beyond it: the (TAIL_BEYOND + 1)-th largest sample. Returns
    ``(value, label, n)`` where ``label`` is the percentile level, e.g.
    ``"p90"`` for 100 samples. When that percentile would not even reach
    the median (fewer than ``2 * TAIL_BEYOND + 1`` samples) it is no tail:
    the maximum is returned instead, labelled ``"max"``."""
    n = len(xs)
    if n == 0:
        return float("nan"), "none", 0
    s = sorted(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return float(s[-1]), "max", n
    k = n - TAIL_BEYOND - 1  # 0-based index: s[k+1:] holds TAIL_BEYOND samples
    return float(s[k]), f"p{100.0 * (k + 1) / n:.4g}", n


def canonical(t: pa.Table) -> pa.Table:
    """Project and cast a converged-table result to :data:`CANON`."""
    return pa.table({f.name: t[f.name].cast(f.type) for f in CANON})


def fingerprint(con, t: pa.Table) -> tuple[int, int, int]:
    """Order-independent fingerprint ``(rows, sum of row hashes mod 2^64,
    xor of row hashes)`` of a converged table, computed by DuckDB (not the
    engine). Equal multisets of rows give equal fingerprints."""
    rel = canonical(t)  # noqa: F841 — scanned by name below
    rows, s, x = con.execute(
        "SELECT count(*), coalesce(sum(h), 0) % 18446744073709551616, "
        "coalesce(bit_xor(h), 0) FROM (SELECT hash(conv_id, turn_idx, role, text, "
        "tool_name, score, ts) AS h FROM rel)"
    ).fetchone()
    return int(rows), int(s), int(x)


def row_mismatches(con, got: pa.Table, want: pa.Table,
                   keys: tuple[str, ...] = ("conv_id", "turn_idx")) -> int:
    """Distinct ``keys`` present in the symmetric difference of two row
    multisets with the same columns (a changed row counts once, a missing
    or extra row once)."""
    g = got.select(want.column_names)  # noqa: F841 — scanned by name below
    w = want  # noqa: F841
    k = ", ".join(keys)
    (n,) = con.execute(
        f"SELECT count(*) FROM (SELECT DISTINCT {k} FROM "
        "((SELECT * FROM g EXCEPT ALL SELECT * FROM w) UNION ALL "
        "(SELECT * FROM w EXCEPT ALL SELECT * FROM g)))"
    ).fetchone()
    return int(n)


def file_state(root: str) -> dict[str, tuple[int, int, int]]:
    """``{path: (inode, mtime_ns, size)}`` of every :data:`DATA_SUFFIX` file under
    ``root`` — one snapshot for :func:`created_bytes`."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            if fn.endswith(DATA_SUFFIX):
                p = os.path.join(dirpath, fn)
                try:
                    st = os.stat(p)
                except FileNotFoundError:  # swept between listing and stat
                    continue
                out[p] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def created_bytes(before: dict, after: dict) -> dict[str, int]:
    """Files in ``after`` that did not exist in ``before`` (or were
    replaced: another inode or mtime) — ``{path: size}``. Files present
    before and untouched are not bytes written in between."""
    return {p: v[2] for p, v in after.items() if before.get(p) != v}


class BytesLedger:
    """Accumulates Parquet bytes created under a table directory across op
    boundaries. Snapshots are taken between ops, so a file created by one
    op and swept by a later one (a merge-on-read delta folded by
    compaction) is still counted once."""

    def __init__(self, root: str):
        self.root = root
        self.state = file_state(root)
        self.by_kind: dict[str, int] = {}
        self.total = 0

    def observe(self, kind_of_op: str) -> int:
        """Count files created since the last snapshot; ``kind_of_op`` is
        ``"compact"`` for compaction ops and anything else otherwise.
        Returns the bytes added."""
        after = file_state(self.root)
        new = created_bytes(self.state, after)
        self.state = after
        added = 0
        for p, size in new.items():
            kind = "compact" if kind_of_op == "compact" else (
                "delta" if os.path.basename(p).startswith("delta-") else "base"
            )
            self.by_kind[kind] = self.by_kind.get(kind, 0) + size
            added += size
        self.total += added
        return added


def _proc_table() -> dict[int, tuple[int, int]]:
    """``{pid: (ppid, rss_pages)}`` for every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
            with open(f"/proc/{d}/statm") as f:
                rss = int(f.read().split()[1])
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue
        # comm may contain spaces/parens: fields resume after the last ')'
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        out[int(d)] = (ppid, rss)
    return out


def descendants(pid: int, table: dict[int, tuple[int, int]] | None = None) -> list[int]:
    table = _proc_table() if table is None else table
    kids: dict[int, list[int]] = {}
    for p, (pp, _) in table.items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def tree_stats(pid: int | None = None) -> dict[int, tuple[float, int]]:
    """``{pid: (rss_mb, cpu_ns)}`` of ``pid`` (default: this process) and
    all its descendants: the driver, Ray's daemons and its worker processes.
    ``cpu_ns`` is the time the process ran on a CPU, from
    ``/proc/<pid>/schedstat``. The kernel leaves out time the hypervisor
    stole from the virtual CPU, which wall-clock time on a shared host
    includes."""
    pid = os.getpid() if pid is None else pid
    table = _proc_table()
    out = {}
    for p in (pid, *descendants(pid, table)):
        try:
            with open(f"/proc/{p}/schedstat") as f:
                cpu = int(f.read().split()[0])
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue
        if p in table:
            out[p] = (table[p][1] * PAGE / 1e6, cpu)
    return out


def tree_rss_mb(stats: dict[int, tuple[float, int]]) -> float:
    return sum(rss for rss, _ in stats.values())


def cpu_s_between(before: dict[int, tuple[float, int]],
                  after: dict[int, tuple[float, int]]) -> float:
    """CPU seconds the process tree used between two :func:`tree_stats`
    snapshots. A process started in between counts in full; one that ended
    in between is not counted for its last stretch."""
    return sum(cpu - before.get(p, (0.0, 0))[1] for p, (_, cpu) in after.items()) / 1e9
