"""Cluster-size-aware defaults — the ONE place parallelism widths come from.

Every keyed exchange (``groupby`` bucket count), sink publish width, and actor
pool in the engine used to default to a hard-coded 16/32/64; on a real 4N-node
cluster those constants are the parallelism ceiling (VERDICT r3 task 8). The
helpers here derive defaults from the live cluster via
``ray.cluster_resources()`` — falling back to ``os.cpu_count()`` before Ray is
initialised — with env overrides for operators pinning a fleet-wide setting:

- ``ODIBEL_NUM_BUCKETS`` — force every default bucket count.
- ``ODIBEL_EFFECTIVE_CORES`` — the host's *real* parallel capacity when the
  advertised CPU count oversubscribes it (this sandbox: 32 advertised, ~8
  real; see BASELINE.md "Hardware note"). It caps actor-pool widths.

Callers pass ``num_buckets=None`` to mean "size for this cluster"; an explicit
integer always wins (tests pin small counts for determinism of *layout*, never
of values — bucketing is partitioning, not semantics).
"""

from __future__ import annotations

import logging
import os

_log = logging.getLogger("odibel_ray.tuning")


def _env_int(name: str) -> int | None:
    """Parse an int env override; a malformed or non-positive value is
    ignored with a warning instead of crashing every actor-pool setup deep
    inside ``map_batches``."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        val = int(raw)
    except ValueError:
        _log.warning("ignoring non-integer %s=%r", name, raw)
        return None
    if val < 1:
        _log.warning("ignoring non-positive %s=%r", name, raw)
        return None
    return val


def cluster_cpus() -> int:
    """Logical CPUs the scheduler will actually use: Ray's view when a session
    exists (sums the whole cluster, which is the point), else the host's."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 0)) or 1)
    except Exception:
        pass
    return os.cpu_count() or 8


def default_num_buckets(
    num_buckets: int | None = None, *, per_cpu: int = 2, lo: int = 8, hi: int = 4096
) -> int:
    """Resolve a bucket count: the explicit value if given, else
    ``per_cpu × cluster CPUs`` clamped to [lo, hi]. Two buckets per CPU keeps
    one straggler bucket from serializing a stage while files stay chunky;
    ``hi`` bounds manifest/file counts (at 100 TB raise it with
    ``ODIBEL_NUM_BUCKETS`` so a bucket's converged rows fit a worker)."""
    if num_buckets is not None:
        return num_buckets
    env = _env_int("ODIBEL_NUM_BUCKETS")
    if env is not None:
        return env  # deliberate: the override may exceed ``hi`` at 100 TB
    return min(hi, max(lo, per_cpu * cluster_cpus()))


def default_pool_size(pool: int | None = None, *, cap: int = 64) -> int:
    """Actor-pool width: half the *effective* cores (an actor pool sized to
    the full session CPU count placed after a shuffle starves its upstream —
    see ray-data pitfalls in BASELINE.md), capped."""
    if pool is not None:
        return pool
    eff = _env_int("ODIBEL_EFFECTIVE_CORES") or cluster_cpus()
    return min(cap, max(1, min(eff, cluster_cpus()) // 2))
