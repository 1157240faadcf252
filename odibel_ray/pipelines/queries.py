"""Driver-facing query registry: every implemented operator/pipeline from
SURVEY.md §2 as a named callable ``fn(sf_dir) -> Dataset | pa.Table``, with a
DuckDB oracle SQL string where the semantics are SQL-expressible.

Column-naming contract: every computed column is named identically in the Ray
pipeline and the SQL (the driver hash-compares after sorting columns by name).
Float aggregates are rounded on BOTH sides (6 decimals; money 2) so value
hashes are stable against summation-order differences.

The transcript-CDC queries run over a deterministic synthetic change log
(:func:`ensure_transcript_log`) generated under ``/tmp/odibel_cache/<sf>`` —
scale-factor-sized, seed-fixed — and their oracles are full-semantics DuckDB
SQL over the same Parquet files (schema-evolution thresholds included), the
TKGTestSuite golden-rows pattern done in SQL.
"""

from __future__ import annotations

import math
import os
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

INT64_MAX = (1 << 63) - 1
CACHE_ROOT = "/tmp/odibel_cache"

# ---------------------------------------------------------------------------
# transcript change-log cache (deterministic per sf)
# ---------------------------------------------------------------------------

_LOG_PARAMS = dict(max_turns=30, seed=7, num_parts=8, files_per_part=2)


def _sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def _n_convs(sf_dir: str) -> int:
    try:
        sf = float(_sf_name(sf_dir).replace("sf", ""))
    except ValueError:
        sf = 0.001
    return max(60, int(20000 * sf))


def _work_copy(src: str, dst: str) -> None:
    """Copy a cached fixture tree into a fresh working dir via HARDLINKS:
    near-instant at any sf (no data bytes move), safe because every file in
    a published table is immutable — data lands as new parquet files and
    metadata via atomic write-temp-then-os.replace, so a mutation in the
    working copy can never reach the cached original through the link.
    Keeps the timed path of fixture-bearing bench queries measuring the
    ENGINE, not a 100-MB directory copy."""
    import shutil

    shutil.copytree(src, dst, copy_function=os.link)


def ensure_transcript_log(sf_dir: str) -> str:
    """Generate (once) the deterministic transcript change log sized for this
    scale factor; return the ``change_log`` directory path."""
    import json

    from odibel_ray.datagen import generate_change_log

    name = _sf_name(sf_dir)
    out = os.path.join(CACHE_ROOT, name)
    log_dir = os.path.join(out, "change_log")
    marker = os.path.join(out, "_params.json")
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir)}
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return log_dir
    generate_change_log(out, **params)
    with open(marker, "w") as f:
        json.dump(params, f)
    return log_dir


def _log_glob(sf_dir: str) -> str:
    return os.path.join(CACHE_ROOT, _sf_name(sf_dir), "change_log", "part=*", "*.parquet")


def ensure_incremental_base(sf_dir: str) -> str:
    """Build (once per sf) the incremental-apply fixture: the 60%-LSN-prefix
    log published at 16 buckets. Cached so the *fixture synthesis* (prefix
    split + base-table replay) isn't re-timed on every bench run — the
    engine path a bench of ``transcript_incremental`` should measure is
    :func:`incremental_apply` itself. Callers copy the cached base to a fresh
    working dir (``incremental_apply`` mutates its ``out_dir``)."""
    import json

    from odibel_ray.cdc.sink import replay_publish
    from odibel_ray.datagen import split_log

    log = ensure_transcript_log(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_incbase")
    table = os.path.join(base, "table")
    marker = os.path.join(base, "_ok.json")
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir), "frac": 0.6, "buckets": 16}
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return table
    import shutil

    shutil.rmtree(base, ignore_errors=True)
    prefix = os.path.join(base, "prefix")
    split_log(log, prefix, frac=0.6)
    replay_publish(os.path.join(prefix, "change_log"), table, num_buckets=16, run_id="r1")
    with open(marker, "w") as f:
        json.dump(params, f)
    return table


# mean source is turn_idx (integers), not score: scores are a 1e-6 lattice,
# so small-group score means land EXACTLY on round(…,6) half-boundaries and
# a 1-ulp summation-order difference vs DuckDB flips the rounded value
_MVIEW_CONV_SPEC = {
    "group_keys": ["conv_id"],
    "aggs": {
        "n_turns": ("count", ""),
        "max_turn": ("max", "turn_idx"),
        "sum_score": ("sum", "score"),
        "avg_turn": ("mean", "turn_idx"),
    },
}
_MVIEW_ROLE_SPEC = {
    "group_keys": ["role"],
    "aggs": {
        "n_turns": ("count", ""),
        "sum_score": ("sum", "score"),
        "avg_score": ("mean", "score"),
    },
}


def ensure_mview_base(sf_dir: str) -> str:
    """Build (once per sf) the materialized-view fixture: the cached
    60%-prefix base plus a conv-level and a role-level view created at its
    version-1 state. The mview queries copy this and time only the engine
    path (incremental apply + view refresh), per the bench-hygiene rule."""
    import json
    import shutil

    from odibel_ray.cdc.mview import create_view

    cached_base = ensure_incremental_base(sf_dir)
    root = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_mvbase")
    marker = os.path.join(root, "_ok.json")
    params = {
        **_LOG_PARAMS,
        "n_convs": _n_convs(sf_dir),
        "frac": 0.6,
        "buckets": 16,
        "mview_rev": 2,  # bump when _MVIEW_*_SPEC changes (fixture cache key)
    }
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return root
    shutil.rmtree(root, ignore_errors=True)
    table = os.path.join(root, "table")
    _work_copy(cached_base, table)
    create_view(table, os.path.join(root, "view_conv"), **_MVIEW_CONV_SPEC, run_id="v0")
    create_view(table, os.path.join(root, "view_role"), **_MVIEW_ROLE_SPEC, run_id="v0")
    with open(marker, "w") as f:
        json.dump(params, f)
    return root


def q_transcript_mview(sf_dir: str):
    """Incremental materialized-view maintenance (rescan strategy): a
    conv-level aggregate view created at the 60%-prefix state, then the full
    log applies (base version 2) and one ``refresh_view`` converges the view
    touching only dirty groups — the result must equal a GROUP BY over the
    from-scratch replay."""
    import shutil

    from odibel_ray.cdc.mview import read_view, refresh_view
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_mview_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_mv")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    incremental_apply(log, os.path.join(work, "table"), run_id="r2")
    refresh_view(os.path.join(work, "view_conv"), run_id="v1", strategy="rescan")
    return read_view(os.path.join(work, "view_conv"))


def q_transcript_mview_delta(sf_dir: str):
    """The DBSP-style delta path: the incremental apply emits a write-time
    change-data-feed carrying the view's source columns (``feed_values``) and
    the role-level view folds the per-group deltas in with NO base read at
    all — same GROUP BY oracle as a full recompute."""
    import shutil

    from odibel_ray.cdc.mview import read_view, refresh_view
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_mview_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_mvd")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=["role", "score"],
    )
    refresh_view(os.path.join(work, "view_role"), run_id="v1", strategy="delta", feed=feed)
    return read_view(os.path.join(work, "view_role"))


_DERIVED_SPEC = {
    "where": [["score", ">=", 0.5]],
    "columns": ["role", "score"],
    "derive": {"text_len": ["len", "text"], "role_uc": ["upper", "role"]},
}
_DERIVED_FEED_VALUES = ["role", "score", "text"]  # everything the transform reads


def ensure_derived_base(sf_dir: str) -> str:
    """Build (once per sf) the derived-table fixture: the cached 60%-prefix
    base plus a derived (filter+project+scalar-derive) table created at its
    version-1 state. The derived queries copy this and time only the engine
    path (incremental apply + derived refresh)."""
    import json
    import shutil

    from odibel_ray.cdc.derived import create_derived

    cached_base = ensure_incremental_base(sf_dir)
    root = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_dtbase")
    marker = os.path.join(root, "_ok.json")
    params = {
        **_LOG_PARAMS,
        "n_convs": _n_convs(sf_dir),
        "frac": 0.6,
        "buckets": 16,
        "derived_rev": 1,  # bump when _DERIVED_SPEC changes (fixture cache key)
    }
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return root
    shutil.rmtree(root, ignore_errors=True)
    table = os.path.join(root, "table")
    _work_copy(cached_base, table)
    create_derived(table, os.path.join(root, "derived"), transform=_DERIVED_SPEC, run_id="d0")
    with open(marker, "w") as f:
        json.dump(params, f)
    return root


def ensure_joinview_base(sf_dir: str) -> str:
    """Build (once per sf) the join-view fixture: the cached 60%-prefix fact
    table, a tool dimension (one generic published row per distinct
    ``tool_name`` of the FULL converged state — deterministic, so the SQL
    oracle reproduces it with a DISTINCT), and the fact⟕dim view created at
    the prefix state. Queries copy this and time only the engine path
    (incremental apply + join-view refresh)."""
    import json
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc.joinview import create_join_view
    from odibel_ray.cdc.sink import publish_dataset, read_published

    cached_base = ensure_incremental_base(sf_dir)
    full = ensure_full_published(sf_dir)
    root = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_jvbase")
    marker = os.path.join(root, "_ok.json")
    params = {
        **_LOG_PARAMS,
        "n_convs": _n_convs(sf_dir),
        "frac": 0.6,
        "buckets": 16,
        "joinview_rev": 1,  # bump when the view spec changes (fixture cache key)
    }
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return root
    shutil.rmtree(root, ignore_errors=True)
    table = os.path.join(root, "table")
    _work_copy(cached_base, table)
    # the dimension: a handful of rows, but built DISTRIBUTEDLY the way a real
    # one would be (distinct over a pruned scan), attrs derived from the key
    tools = sorted(
        t
        for t in set(
            read_published(full, columns=["tool_name"])
            .unique("tool_name")
        )
        if t is not None
    )
    dim = pa.table(
        {
            "tool_name": tools,
            "tool_kind": [t.upper() for t in tools],
            "weight": pa.array([len(t) for t in tools], pa.int64()),
        }
    )
    publish_dataset(
        rd.from_arrow(dim), os.path.join(root, "dim"),
        key_cols=["tool_name"], num_buckets=2, run_id="p1",
    )
    create_join_view(
        table, os.path.join(root, "dim"), os.path.join(root, "view"),
        on="tool_name", how="left", left_columns=["role", "score"],
        num_buckets=16, run_id="j0",
    )
    with open(marker, "w") as f:
        json.dump(params, f)
    return root


def q_transcript_join_view(sf_dir: str):
    """Incremental JOIN-view maintenance, both sides dirty in one refresh:
    the fact⟕dim view was created at the 60%-prefix state; the full log
    applies to the fact table (write-time feed → dirty left keys), one
    dimension row is updated and another deleted (snapshot diff → reverse fk
    lookup), and a single ``refresh_join_view`` converges — the result must
    equal the left join of the from-scratch replay against the post-update
    dimension."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc.joinview import read_join_view, refresh_join_view
    from odibel_ray.cdc.sink import incremental_apply, upsert_published

    log = ensure_transcript_log(sf_dir)
    cached = ensure_joinview_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_jv")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(log, os.path.join(work, "table"), run_id="r2", feed_dir=feed)
    # upsert-or-insert 'python' (CHANGED/100), delete 'editor' — tools no
    # fact references cancel out, so the oracle's CASE form stays exact
    upsert_published(
        rd.from_arrow(pa.table({
            "tool_name": ["python"], "tool_kind": ["CHANGED"],
            "weight": pa.array([100], pa.int64()),
        })),
        os.path.join(work, "dim"),
        deletes=rd.from_arrow(pa.table({"tool_name": ["editor"]})),
        run_id="u1",
    )
    refresh_join_view(os.path.join(work, "view"), run_id="j1", left_feed=feed)
    return read_join_view(os.path.join(work, "view"))


_MEDALLION_GOLD_SPEC = {
    "group_keys": ["role_uc"],
    "aggs": {
        "n_rows": ("count", ""),
        "sum_score": ("sum", "score"),
        "avg_len": ("mean", "text_len"),
    },
}


def ensure_medallion_base(sf_dir: str) -> str:
    """Build (once per sf) the medallion fixture: the cached derived (silver)
    fixture plus a gold aggregate view created over the SILVER table at its
    version-1 state — derived tables and views are both generic published
    tables, so each can be the other's base."""
    import json
    import shutil

    from odibel_ray.cdc.mview import create_view

    cached = ensure_derived_base(sf_dir)
    root = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_medbase")
    marker = os.path.join(root, "_ok.json")
    params = {
        **_LOG_PARAMS,
        "n_convs": _n_convs(sf_dir),
        "frac": 0.6,
        "buckets": 16,
        "medallion_rev": 1,  # bump when the gold/silver specs change
    }
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return root
    shutil.rmtree(root, ignore_errors=True)
    _work_copy(cached, root)
    create_view(
        os.path.join(root, "derived"), os.path.join(root, "gold"),
        **_MEDALLION_GOLD_SPEC, run_id="g0",
    )
    with open(marker, "w") as f:
        json.dump(params, f)
    return root


def ensure_pipeline_base(sf_dir: str) -> str:
    """Build (once per sf) the orchestrated-DAG fixture: the medallion base
    (bronze + silver + gold) plus a role dimension and a silver⟕dim join
    view — four maintained tables forming a diamond the orchestrator must
    topo-order (silver before gold AND before the view)."""
    import json
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc.joinview import create_join_view
    from odibel_ray.cdc.sink import publish_dataset, read_published

    cached = ensure_medallion_base(sf_dir)
    full = ensure_full_published(sf_dir)
    root = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_plbase")
    marker = os.path.join(root, "_ok.json")
    params = {
        **_LOG_PARAMS,
        "n_convs": _n_convs(sf_dir),
        "frac": 0.6,
        "buckets": 16,
        "pipeline_rev": 1,  # bump when the DAG spec changes (fixture cache key)
    }
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return root
    shutil.rmtree(root, ignore_errors=True)
    _work_copy(cached, root)
    roles = sorted(
        r for r in set(read_published(full, columns=["role"]).unique("role"))
        if r is not None
    )
    publish_dataset(
        rd.from_arrow(pa.table({
            "role": roles,
            "rank": pa.array([len(r) for r in roles], pa.int64()),
        })),
        os.path.join(root, "dim"), key_cols=["role"], num_buckets=2, run_id="p1",
    )
    create_join_view(
        os.path.join(root, "derived"), os.path.join(root, "dim"),
        os.path.join(root, "view"), on="role",
        left_columns=["score", "text_len", "role_uc"], num_buckets=16, run_id="j0",
    )
    with open(marker, "w") as f:
        json.dump(params, f)
    return root


def q_transcript_pipeline_sync(sf_dir: str):
    """One orchestrated refresh over a DAG of four maintained tables: the
    full log applies to bronze (write-time feed), a dimension row is
    upserted, and ``refresh_pipeline`` converges silver → {gold, join view}
    in topo order (the list is given shuffled) — the returned join view must
    equal the silver transform of a from-scratch replay left-joined to the
    post-update dimension."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc.joinview import read_join_view
    from odibel_ray.cdc.pipeline import refresh_pipeline
    from odibel_ray.cdc.sink import incremental_apply, upsert_published

    log = ensure_transcript_log(sf_dir)
    cached = ensure_pipeline_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_pl")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=_DERIVED_FEED_VALUES, feed_lsn=True,
    )
    upsert_published(
        rd.from_arrow(pa.table({"role": ["tool"], "rank": pa.array([99], pa.int64())})),
        os.path.join(work, "dim"), run_id="u1",
    )
    silver = os.path.join(work, "derived")
    gold = os.path.join(work, "gold")
    view = os.path.join(work, "view")
    refresh_pipeline(
        [view, gold, silver],  # deliberately out of order — the plan sorts
        run_id="p1",
        strategies={silver: "feed", gold: "delta"},
        feeds={silver: feed},
        # cascade: silver's refresh emits its own upsert-time feed and gold +
        # the join view consume it instead of snapshot-diffing silver;
        # gold and the view are independent level-1 nodes — run them
        # concurrently
        chain_feeds=True,
        max_parallel=2,
    )
    return read_join_view(view)


def q_transcript_medallion(sf_dir: str):
    """Medallion composition, all hops incremental: the full log applies to
    BRONZE (write-time change feed), SILVER (filter+derive) refreshes O(feed)
    with no base read, GOLD (aggregate view over silver) delta-folds the
    silver snapshot diff — the result must equal the gold GROUP BY over the
    silver transform of a from-scratch replay. No hop recomputes."""
    import shutil

    from odibel_ray.cdc.derived import refresh_derived
    from odibel_ray.cdc.mview import read_view, refresh_view
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_medallion_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_med")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=_DERIVED_FEED_VALUES, feed_lsn=True,
    )
    refresh_derived(os.path.join(work, "derived"), run_id="s1", strategy="feed", feed=feed)
    refresh_view(os.path.join(work, "gold"), run_id="g1", strategy="delta")
    return read_view(os.path.join(work, "gold"))


def q_transcript_derived(sf_dir: str):
    """Incremental row-level derived-table maintenance (rescan strategy): a
    filtered/projected/column-derived silver table created at the 60%-prefix
    state; the full log applies (emitting a write-time change feed) and one
    ``refresh_derived`` converges it re-reading ONLY dirty base keys — the
    result must equal the transform over the from-scratch replay."""
    import shutil

    from odibel_ray.cdc.derived import read_derived, refresh_derived
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_derived_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_dt")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=_DERIVED_FEED_VALUES,
    )
    refresh_derived(os.path.join(work, "derived"), run_id="d1", strategy="rescan", feed=feed)
    return read_derived(os.path.join(work, "derived"))


def q_transcript_derived_feed(sf_dir: str):
    """The O(feed) path: the write-time CDF carries the transform's input
    after-images plus the ``_lsn`` ordering column (``feed_lsn=True``) and
    ``refresh_derived(strategy='feed')`` transforms them directly — NO base
    read at all — same oracle as a full recompute."""
    import shutil

    from odibel_ray.cdc.derived import read_derived, refresh_derived
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_derived_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_dtf")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=_DERIVED_FEED_VALUES, feed_lsn=True,
    )
    refresh_derived(os.path.join(work, "derived"), run_id="d1", strategy="feed", feed=feed)
    return read_derived(os.path.join(work, "derived"))


# ---------------------------------------------------------------------------
# shared SQL fragments
# ---------------------------------------------------------------------------

_TRANSCRIPT_EV_CTE = """
WITH log AS (
  SELECT * FROM read_parquet('{glob}', hive_partitioning=1) {where}
),
thr AS (
  SELECT part,
    coalesce(min(CASE WHEN json_extract_string(schema_change, '$.kind') = 'add_column' THEN lsn END), 9223372036854775807) AS add_lsn,
    coalesce(min(CASE WHEN json_extract_string(schema_change, '$.kind') = 'rename_column' THEN lsn END), 9223372036854775807) AS ren_lsn
  FROM log WHERE op = 'S' GROUP BY part
),
ev AS (
  SELECT l.conv_id, CAST(l.turn_idx AS BIGINT) AS turn_idx, l.role, l.text,
         CASE WHEN l.lsn >= t.ren_lsn THEN l.tool_name ELSE l.tool END AS tool_name,
         CASE WHEN l.lsn >= t.add_lsn THEN l.score END AS score,
         l.ts, l.lsn, l.op
  FROM log l LEFT JOIN thr t ON CAST(l.part AS BIGINT) = t.part
  WHERE l.op IN ('I','U','D') AND l.conv_id IS NOT NULL AND l.turn_idx IS NOT NULL
)
"""

_TRANSCRIPT_FINAL_SELECT = """
SELECT conv_id, turn_idx, role, text, tool_name, score, ts
FROM (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn FROM ev)
WHERE rn = 1 AND op <> 'D'
"""

_TRANSCRIPT_FINAL_SQL = _TRANSCRIPT_EV_CTE + _TRANSCRIPT_FINAL_SELECT

_EVENTS_CDC_CTE = """
WITH ev AS (
  SELECT user_id, event_type, event_id, round(value, 6) AS value, ts,
         CASE WHEN event_id % 17 = 0 THEN 'D' ELSE 'U' END AS op
  FROM events
)
"""


# ---------------------------------------------------------------------------
# Ray-side helpers
# ---------------------------------------------------------------------------


def _actor_conc(max_conc: int = 4) -> int:
    """Actor-pool size that leaves CPUs for upstream read tasks (an actor pool
    equal to the session CPU count starves the producers and deadlocks);
    cluster derivation lives in :func:`odibel_ray.tuning.default_pool_size`."""
    from odibel_ray.tuning import default_pool_size

    return default_pool_size(cap=max_conc)


def _events_as_changes(sf_dir: str):
    """events table re-interpreted as a binlog: key (user_id, event_type),
    lsn = event_id, delete when event_id % 17 == 0 (arithmetic rule so the SQL
    oracle derives the identical stream)."""
    from odibel_ray.ops.relational import load_table

    ds = load_table(sf_dir, "events", ["event_id", "user_id", "event_type", "value", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        op = np.where(eid % 17 == 0, "D", "U")
        t = t.set_column(
            t.schema.get_field_index("value"), "value", pc.round(t["value"], 6)
        )
        return t.append_column("op", pa.array(op, pa.string()))

    return ds.map_batches(derive, batch_format="pyarrow")


def _round_cols(ds, cols: dict[str, int]):
    def f(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        for c, nd in cols.items():
            t = t.set_column(
                t.schema.get_field_index(c), c, pc.round(pc.cast(t[c], pa.float64()), nd)
            )
        return t

    return ds.map_batches(f, batch_format="pyarrow")


def _events_max_lsn(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "events.parquet"), columns=["event_id"])
    return int(pc.max(t["event_id"]).as_py())


# ===========================================================================
# query implementations
# ===========================================================================


def q_transcript_replay(sf_dir: str):
    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    return replay_dataset(log)


def q_transcript_replay_bucketed(sf_dir: str):
    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    return replay_dataset(log, num_buckets=32)


def q_transcript_replay_partitioned(sf_dir: str):
    """Shuffle-free shard replay (log is key-aligned by construction)."""
    from odibel_ray.cdc.apply import replay_partitioned

    return replay_partitioned(ensure_transcript_log(sf_dir))


def q_transcript_replay_actor(sf_dir: str):
    """Stateful actor-pool applier variant of the merge stage."""
    from odibel_ray.cdc.apply import replay_dataset_actor

    return replay_dataset_actor(ensure_transcript_log(sf_dir), concurrency=2)


def q_transcript_replay_salted(sf_dir: str):
    """Hot-key salted two-stage apply (skew handling); same converged state."""
    from odibel_ray.cdc.apply import replay_dataset

    return replay_dataset(ensure_transcript_log(sf_dir), num_buckets=16, salt=4)


def q_transcript_history(sf_dir: str):
    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    return replay_dataset(log, history=True)


def q_transcript_publish_read(sf_dir: str):
    """Exactly-once sink round-trip: replay → write-audit-publish → read back
    manifested files (fresh output dir per call)."""
    import shutil

    from odibel_ray.cdc.sink import read_published, replay_publish

    from odibel_ray.tuning import default_num_buckets

    log = ensure_transcript_log(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_published")
    shutil.rmtree(out, ignore_errors=True)
    # cluster-derived publish width — the old hard-coded 16 was the
    # parallelism ceiling on a bigger cluster (VERDICT r3 task 8)
    replay_publish(log, out, num_buckets=default_num_buckets(), run_id="query")
    return read_published(out)


def _cluster_cutoff(sf_dir: str) -> str:
    """Deterministic range-predicate cutoff: the first ~10% of conv ids."""
    return f"conv_{max(1, _n_convs(sf_dir) // 10):08d}"


def q_transcript_clustered_read(sf_dir: str):
    """Zone-map data skipping: publish a range-clustered serving copy
    (``cluster_by='conv_id'`` — bucket bounds from a distributed sample,
    bucket files sorted by the cluster column) and read it back with a
    range ``where`` — footer stats prune whole files, the scan prunes row
    groups, and the result equals the plain SQL filter."""
    import shutil

    from odibel_ray.cdc.sink import publish_dataset, read_published, replay_publish
    from odibel_ray.tuning import default_num_buckets

    log = ensure_transcript_log(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_clbase")
    serving = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_clustered")
    shutil.rmtree(base, ignore_errors=True)
    shutil.rmtree(serving, ignore_errors=True)
    replay_publish(log, base, num_buckets=default_num_buckets(), run_id="query")
    publish_dataset(
        read_published(base),
        serving,
        key_cols=["conv_id", "turn_idx"],
        num_buckets=default_num_buckets(),
        cluster_by="conv_id",
        run_id="cl1",
    )
    return read_published(
        serving, system=True, where=[("conv_id", "<", _cluster_cutoff(sf_dir))]
    )


def q_transcript_zorder_read(sf_dir: str):
    """Z-ordered serving copy (``cluster_by=['role','score']`` — per-column
    rank quantization, bit-interleaved z-value, range-bucketed and sorted on
    it) read back with a conjunctive predicate on BOTH clustered columns:
    footer stats prune files on each, and the result equals the plain SQL
    filter."""
    import shutil

    from odibel_ray.cdc.sink import publish_dataset, read_published
    from odibel_ray.tuning import default_num_buckets

    full = ensure_full_published(sf_dir)
    serving = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_zordered")
    shutil.rmtree(serving, ignore_errors=True)
    publish_dataset(
        read_published(full),
        serving,
        key_cols=["conv_id", "turn_idx"],
        num_buckets=default_num_buckets(),
        cluster_by=["role", "score"],
        run_id="z1",
    )
    return read_published(
        serving, system=True,
        where=[("role", "==", "assistant"), ("score", ">=", 0.9)],
    )


def _dml_fixture(sf_dir: str, suffix: str) -> str:
    """Fresh generic published copy of the converged state for a DML query
    (DML mutates in place, so each run starts from a clean copy)."""
    import shutil

    from odibel_ray.cdc.sink import publish_dataset, read_published
    from odibel_ray.tuning import default_num_buckets

    full = ensure_full_published(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + suffix)
    shutil.rmtree(out, ignore_errors=True)
    publish_dataset(
        read_published(full), out, key_cols=["conv_id", "turn_idx"],
        num_buckets=default_num_buckets(), run_id="g1",
    )
    return out


def q_transcript_delete_where(sf_dir: str):
    """Row-level predicate DML (``DELETE FROM t WHERE score < 0.3``): the
    key-only matching scan rides the reader's pushdown/pruning, only buckets
    holding matches are rewritten (copy-on-write upsert), and the surviving
    table equals the SQL complement — NULL scores survive, per SQL WHERE
    semantics (`cdc/dml.py`; the reference instead re-runs a full extraction
    for any correction, ``transform/TKGModelMgr.scala``)."""
    from odibel_ray.cdc.dml import delete_published
    from odibel_ray.cdc.sink import read_published

    out = _dml_fixture(sf_dir, "_dmldel")
    delete_published(out, [("score", "<", 0.3)], run_id="d1")
    return read_published(out)


def q_transcript_update_where(sf_dir: str):
    """Row-level predicate DML (``UPDATE t SET tool_name='REDACTED',
    text=UPPER(text) WHERE role='tool'``): matching rows are re-read through
    the pruned scan, assignments (literal + scalar function) apply
    vectorized per batch, and only touched buckets rewrite."""
    from odibel_ray.cdc.dml import update_published
    from odibel_ray.cdc.sink import read_published

    out = _dml_fixture(sf_dir, "_dmlupd")
    update_published(
        out,
        {"tool_name": "REDACTED", "text": ("upper", "text")},
        [("role", "==", "tool")],
        run_id="u1",
    )
    return read_published(out)


def q_transcript_merge_into(sf_dir: str):
    """MERGE INTO (`cdc/dml.py:merge_published` — the Delta/SQL:2003
    conditional merge the reference replaces with full re-extraction,
    ``transform/TKGModelMgr.scala``): the source re-derives every user turn
    with upper-cased text and an inverted score plus a brand-new ``_m``
    conversation per user opener; matched rows update only where the stored
    score is lower than the incoming one (column-vs-column condition, SQL
    NULL semantics), unmatched source rows insert, and stored low-score tool
    turns absent from the source are swept by WHEN NOT MATCHED BY SOURCE
    DELETE. One source shuffle + O(touched buckets) classification reads."""
    import numpy as np

    from odibel_ray.cdc.dml import merge_published
    from odibel_ray.cdc.sink import read_published

    full = ensure_full_published(sf_dir)
    out = _dml_fixture(sf_dir, "_dmlmerge")

    def to_source(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["role"], "user")).combine_chunks()
        names = t.column_names
        upd = t.set_column(names.index("text"), "text", pc.utf8_upper(t["text"]))
        upd = upd.set_column(
            names.index("score"), "score", pc.subtract(pa.scalar(1.0), t["score"])
        )
        new = t.filter(pc.equal(t["turn_idx"], 0)).combine_chunks()
        ins = new.set_column(
            names.index("conv_id"), "conv_id",
            pc.binary_join_element_wise(new["conv_id"], "_m", ""),
        )
        ins = ins.set_column(
            names.index("role"), "role",
            pa.array(np.full(len(new), "merged"), pa.string()),
        )
        return pa.concat_tables([upd, ins])

    src = read_published(full).map_batches(to_source, batch_format="pyarrow")
    merge_published(
        src,
        out,
        when_matched="update",
        matched_condition=[(("t", "score"), "<", ("s", "score"))],
        when_not_matched="insert",
        when_not_matched_by_source="delete",
        not_matched_by_source_condition=[
            (("t", "role"), "==", "tool"), (("t", "score"), "<", 0.2),
        ],
        run_id="m1",
    )
    return read_published(out)


def q_transcript_clone_read(sf_dir: str):
    """Shallow CLONE (`cdc/maintain.py:clone_table` — the Delta ``CREATE
    TABLE ... CLONE`` analog): metadata-speed hardlinked copy of the
    published table, then a destructive DELETE on the SOURCE — the clone
    must still read the full pre-delete state, proving the two tables are
    independent despite sharing data-file inodes (safe because published
    files are immutable under copy-on-write)."""
    import shutil

    from odibel_ray.cdc.dml import delete_published
    from odibel_ray.cdc.maintain import clone_table
    from odibel_ray.cdc.sink import read_published

    src = _dml_fixture(sf_dir, "_clonesrc")
    dst = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_clonedst")
    shutil.rmtree(dst, ignore_errors=True)
    clone_table(src, dst, run_id="c1")
    delete_published(src, [("role", "==", "tool")], run_id="d1")
    return read_published(dst)


#: Deterministic key for the point-lookup query — present in the converged
#: final state at every test scale factor (verified sf0.001/0.01/0.1).
_LOOKUP_CONV = "conv_00000007"


def ensure_full_published(sf_dir: str) -> str:
    """Publish (once, cached) the FULL transcript log through the
    exactly-once sink at a pinned hash-bucket layout — the serving table the
    point-lookup query reads. Cached so the timed/checked path is the lookup
    itself, not the publish."""
    import json

    from odibel_ray.cdc.sink import replay_publish

    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_fullpub")
    marker = os.path.join(base, "_ok.json")
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir), "buckets": 16}
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return base
    import shutil

    log = ensure_transcript_log(sf_dir)
    shutil.rmtree(base, ignore_errors=True)
    replay_publish(log, base, num_buckets=16, run_id="fullpub")
    with open(marker, "w") as f:
        json.dump(params, f)
    return base


def q_transcript_point_lookup(sf_dir: str):
    """CDC-serving point read: the hash-bucketed layout lets ``lookup_key``
    recompute one key's bucket and open ONLY that bucket's manifested file
    (row-group-pruned by Parquet stats inside it) — O(one row group) per
    lookup where a layoutless table would scan everything. The published
    fixture is cached; this times/checks the lookup path itself."""
    from odibel_ray.cdc.sink import lookup_key

    table = ensure_full_published(sf_dir)
    return lookup_key(table, _LOOKUP_CONV)


def ensure_bloom_published(sf_dir: str) -> str:
    """Generic serving copy with a bloom index on ``text`` (cached): the
    equality-probe fixture for Bloom-filter file skipping."""
    import json

    from odibel_ray.cdc.sink import publish_dataset, read_published

    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_bloompub")
    marker = os.path.join(out, "_ok.json")
    # "filters": a copy cached with per-file sidecars has no text filters in
    # its manifests, so it reads correctly but unpruned: rebuild it
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir), "buckets": 16,
              "bloom": ["text"], "filters": "manifest"}
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return out
    import shutil

    full = ensure_full_published(sf_dir)
    shutil.rmtree(out, ignore_errors=True)
    publish_dataset(
        read_published(full), out, key_cols=["conv_id", "turn_idx"],
        num_buckets=16, run_id="bloom1", bloom_cols=["text"],
    )
    with open(marker, "w") as f:
        json.dump(params, f)
    return out


def q_transcript_bloom_lookup(sf_dir: str):
    """Bloom-filter file skipping: an exact-text equality probe on a
    hash-bucketed table — zone maps can't prune (every file's [min, max]
    text span covers everything) but the per-file bloom admits only the
    owner file(s) + ~1% false positives, so the scan opens ~1 of 16 files
    (`cdc/skipping.py` bloom section; the Delta bloom-filter-index analog).
    The probe value is the lookup conversation's first surviving turn."""
    import pyarrow.compute as _pc

    from odibel_ray.cdc.sink import lookup_key, read_published

    out = ensure_bloom_published(sf_dir)
    rows = lookup_key(ensure_full_published(sf_dir), _LOOKUP_CONV)
    rows = rows.take(_pc.sort_indices(rows, sort_keys=[("turn_idx", "ascending")]))
    probe = rows["text"][0].as_py()
    return read_published(out, where=[("text", "==", probe)])


def ensure_generic_published(sf_dir: str) -> str:
    """Generic hash-bucketed copy of the converged state (cached) — the
    fact side for storage-partitioned joins."""
    import json

    from odibel_ray.cdc.sink import publish_dataset, read_published

    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_genpub")
    marker = os.path.join(out, "_ok.json")
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir), "buckets": 16}
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == params:
                return out
    import shutil

    full = ensure_full_published(sf_dir)
    shutil.rmtree(out, ignore_errors=True)
    publish_dataset(
        read_published(full), out, key_cols=["conv_id", "turn_idx"],
        num_buckets=16, run_id="gen1",
    )
    with open(marker, "w") as f:
        json.dump(params, f)
    return out


def q_transcript_bucket_join(sf_dir: str):
    """Storage-partitioned join (`sink.join_published`): fact ⟕ annotation
    where both tables share the (conv_id, turn_idx) hash layout at 16
    buckets, so the join is ONE map task per bucket — zero exchange (the
    Hive bucket-map-join / Iceberg SPJ analog; the reference's Spark joins
    always shuffle, ``eval/SchemaGraphEval.scala``). The annotation side is
    a filtered projection (score ≥ 0.5 → text_len), so the left-outer join
    exercises both matched and null-extended rows."""
    import shutil

    import pyarrow as _pa
    import pyarrow.compute as _pc

    from odibel_ray.cdc.sink import join_published, publish_dataset, read_published

    import json as _json

    fact = ensure_generic_published(sf_dir)
    ann = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_spjann")
    marker = os.path.join(ann, "_ok.json")
    params = {**_LOG_PARAMS, "n_convs": _n_convs(sf_dir), "buckets": 16}

    def annotate(t: _pa.Table) -> _pa.Table:
        t = t.filter(_pc.fill_null(_pc.greater_equal(t["score"], 0.5), False))
        return _pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "text_len": _pc.cast(_pc.utf8_length(t["text"]), _pa.int64()),
        })

    fresh = True  # cached annotation side: the timed path is the JOIN itself
    if os.path.exists(marker):
        with open(marker) as f:
            fresh = _json.load(f) != params
    if fresh:
        shutil.rmtree(ann, ignore_errors=True)
        publish_dataset(
            read_published(fact).map_batches(annotate, batch_format="pyarrow"),
            ann, key_cols=["conv_id", "turn_idx"], num_buckets=16, run_id="ann1",
        )
        with open(marker, "w") as f:
            _json.dump(params, f)
    return join_published(fact, ann, how="left_outer")


def q_transcript_column_stats(sf_dir: str):
    """ANALYZE TABLE (`cdc/analyze.py`): one distributed pass computes
    per-column nulls / NDV / typed min-max over the published table; the
    exact-NDV method (mergeable per-batch distinct hashes) is checked here
    against SQL ``COUNT(DISTINCT ...)`` so the persisted statistics — the
    inputs to cost-based join/salt choices — are themselves oracle-grade.
    (The reference recomputes equivalent property statistics from scratch
    per run, ``eval/PropertyEval.scala:40-60``.)"""
    import pyarrow as _pa

    from odibel_ray.cdc.analyze import analyze_published

    table = ensure_full_published(sf_dir)
    cols = ["conv_id", "role", "text", "tool_name", "turn_idx"]
    stats = analyze_published(table, columns=cols, method="exact", persist=False)
    return _pa.table({
        "col_name": _pa.array(cols, _pa.string()),
        "n_nulls": _pa.array([stats[c]["nulls"] for c in cols], _pa.int64()),
        "ndv": _pa.array([stats[c]["ndv"] for c in cols], _pa.int64()),
        "min_str": _pa.array([str(stats[c]["min"]) for c in cols], _pa.string()),
        "max_str": _pa.array([str(stats[c]["max"]) for c in cols], _pa.string()),
    })


def q_transcript_stats_refresh(sf_dir: str):
    """Incremental statistics maintenance (`analyze.refresh_column_stats`):
    ANALYZE the 60%-prefix table once, apply the tail with a write-time
    change feed, then fold the feed into the persisted stats — NO rescan.
    Row count and per-column null counts are EXACT from the before/after
    images (checked here against SQL aggregates over the full final state);
    min/max widen-only and HLL-NDV merge bounds are pytest-pinned."""
    import shutil

    import pyarrow as _pa

    from odibel_ray.cdc.analyze import analyze_published, refresh_column_stats
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_statsrf")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    table = os.path.join(work, "table")
    _work_copy(cached, table)
    feed = os.path.join(work, "feed")
    cols = ["text", "score", "tool_name"]
    analyze_published(table, columns=cols, method="hll")
    incremental_apply(log, table, run_id="r2", feed_dir=feed, feed_values=cols)
    stats = refresh_column_stats(table, feed)
    names = ["_rows"] + cols
    vals = [stats["_table"]["rows"]] + [stats[c]["nulls"] for c in cols]
    return _pa.table({
        "col_name": _pa.array(names, _pa.string()),
        "n": _pa.array([int(v) for v in vals], _pa.int64()),
    })


def ensure_jsonl_stream(sf_dir: str) -> str:
    """Serialize the cached change log once into an LSN-ordered JSONL file —
    the deterministic stand-in for a live binlog pipe."""
    import glob as _glob
    import json as _json

    import pyarrow.parquet as pq

    log = ensure_transcript_log(sf_dir)
    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_stream.jsonl")
    marker = path + ".ok"
    # invalidate when the underlying log is regenerated with other params
    # (same guard ensure_transcript_log itself uses — a bare "ok" marker
    # would serve a stale stream against a fresh oracle)
    params = _json.dumps({**_LOG_PARAMS, "n_convs": _n_convs(sf_dir)}, sort_keys=True)
    if os.path.exists(marker) and os.path.exists(path):
        with open(marker) as f:
            if f.read() == params:
                return path
    tables = [
        pq.read_table(f)
        for f in sorted(_glob.glob(os.path.join(log, "part=*", "*.parquet")))
    ]
    t = pa.concat_tables(tables, promote_options="default")
    t = t.take(pc.sort_indices(t, sort_keys=[("lsn", "ascending")]))
    with open(path + ".tmp", "w") as f:
        for r in t.to_pylist():
            if r.get("ts") is not None:
                r["ts"] = r["ts"].isoformat()
            f.write(_json.dumps({k: v for k, v in r.items() if v is not None}))
            f.write("\n")
    os.replace(path + ".tmp", path)
    with open(marker, "w") as f:
        f.write(params)
    return path


def ensure_debezium_stream(sf_dir: str) -> str:
    """Serialize the cached change log once as Debezium change-event
    envelopes (op c/u/d, before/after row images, ``source.lsn``, ``ts_ms``;
    S events ride the inline ``schema_change`` extension) — the
    deterministic stand-in for a connector topic dump."""
    import glob as _glob
    import json as _json

    import pyarrow.parquet as pq

    log = ensure_transcript_log(sf_dir)
    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_debezium.jsonl")
    marker = path + ".ok"
    params = _json.dumps({**_LOG_PARAMS, "n_convs": _n_convs(sf_dir)}, sort_keys=True)
    if os.path.exists(marker) and os.path.exists(path):
        with open(marker) as f:
            if f.read() == params:
                return path
    tables = [
        pq.read_table(f)
        for f in sorted(_glob.glob(os.path.join(log, "part=*", "*.parquet")))
    ]
    t = pa.concat_tables(tables, promote_options="default")
    t = t.take(pc.sort_indices(t, sort_keys=[("lsn", "ascending")]))
    # ts → epoch ms from the raw µs value (naive-datetime .timestamp() would
    # apply the host timezone); the log's 1s-step timestamps are ms-lossless
    t = t.append_column(
        "ts_ms", pc.divide(pc.cast(t["ts"], pa.int64()), pa.scalar(1000, pa.int64()))
    )
    row_fields = ("conv_id", "turn_idx", "role", "text", "tool", "tool_name", "score")
    op_map = {"I": "c", "U": "u", "D": "d"}
    with open(path + ".tmp", "w") as f:
        for r in t.to_pylist():
            env = {
                "op": op_map.get(r["op"], "c"),
                "source": {"lsn": r["lsn"]},
                "ts_ms": r["ts_ms"],
            }
            img = {k: r[k] for k in row_fields if r.get(k) is not None}
            if r["op"] == "D":
                env["before"] = img  # a Debezium delete carries only before
            elif r["op"] in ("I", "U"):
                env["after"] = img
            if r.get("schema_change"):
                env["schema_change"] = r["schema_change"]
            f.write(_json.dumps({k: v for k, v in env.items() if v is not None}))
            f.write("\n")
    os.replace(path + ".tmp", path)
    with open(marker, "w") as f:
        f.write(params)
    return path


def q_transcript_debezium_stream(sf_dir: str):
    """Debezium-envelope ingest: the change log serialized as connector
    change events (c/u/d ops, before/after row images, ``source.lsn``) is
    piped through the same spool → micro-batch upsert loop with
    ``fmt="debezium"``; the converged table must equal the batch replay of
    the native log (same SQL oracle) — proving the envelope mapping is
    lossless."""
    import shutil

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.sources.stream import tail_stream

    payload = ensure_debezium_stream(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_dbz")
    shutil.rmtree(base, ignore_errors=True)
    table = os.path.join(base, "table")
    tail_stream(
        payload, table, spool_dir=os.path.join(base, "spool"),
        num_parts=8, batch_rows=10000, num_buckets=16, run_prefix="dz",
        fmt="debezium",
    )
    return read_published(table)


def q_transcript_stream_tail(sf_dir: str):
    """Stdin/pipe ingest (reference ``DBpediaTKG.scala:106-133`` '-' mode):
    the change log serialized as a JSONL stream is piped through the spool →
    micro-batch incremental-upsert loop; the converged table must equal the
    batch replay (same SQL oracle). Valid because the generated log's schema
    events occupy a contiguous LSN block per batch, so the spool's
    replicate-S-to-every-part layout yields the same per-part thresholds for
    every data LSN."""
    import shutil

    from odibel_ray.cdc.sink import read_published
    from odibel_ray.sources.stream import tail_stream

    payload = ensure_jsonl_stream(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_stream")
    shutil.rmtree(base, ignore_errors=True)
    table = os.path.join(base, "table")
    tail_stream(
        payload, table, spool_dir=os.path.join(base, "spool"),
        num_parts=8, batch_rows=10000, num_buckets=16, run_prefix="q",
    )
    return read_published(table)


def q_transcript_rebucket_read(sf_dir: str):
    """Cluster-resize maintenance: publish at 16 buckets, rebucket the
    published table out-of-place to 4 (write-audit-publish into a fresh
    directory, source untouched), read the destination — must equal a
    from-scratch replay."""
    import shutil

    from odibel_ray.cdc.sink import read_published, rebucket_published, replay_publish

    log = ensure_transcript_log(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_rebucket")
    shutil.rmtree(base, ignore_errors=True)
    src = os.path.join(base, "src")
    dst = os.path.join(base, "dst")
    replay_publish(log, src, num_buckets=16, run_id="rb-src")
    rebucket_published(src, dst, num_buckets=4, run_id="rb-dst")
    return read_published(dst)


def q_cdc_dead_letters(sf_dir: str):
    """Dead-letter queue: the events replay skips (unknown op / null key),
    each with a reason — one streaming pass over the log."""
    from odibel_ray.cdc.apply import dead_letter_scan

    log = ensure_transcript_log(sf_dir)
    return dead_letter_scan(log)


def q_transcript_incremental(sf_dir: str):
    """Publish a 60% LSN prefix (cached fixture), then incrementally apply the
    full log; the result must equal a from-scratch replay (same SQL oracle).
    The timed engine path is ``incremental_apply`` onto a fresh copy of the
    cached base table — fixture synthesis happens once per sf, not per run."""
    import shutil

    from odibel_ray.cdc.sink import incremental_apply, read_published

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_inc", "table")
    shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    _work_copy(cached, out)
    incremental_apply(log, out, run_id="r2")
    return read_published(out)


def q_transcript_version_read(sf_dir: str):
    """Snapshot time travel over the exactly-once sink: copy the cached
    60%-prefix base, enable snapshot retention (which bootstrap-pins the
    base as table version 1), incrementally apply the full log (version 2),
    then read the table AS OF version 1 — the Delta/Iceberg ``VERSION AS
    OF`` over this sink's copy-on-write manifests. The result must equal a
    from-scratch replay of the prefix log; the SQL oracle re-derives
    ``split_log``'s index-based LSN cutoff (sorted-LSN position
    ``floor(0.6*(n-1))``) and replays below it."""
    import shutil

    from odibel_ray.cdc.sink import enable_snapshots, incremental_apply, read_published

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ttr", "table")
    shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    _work_copy(cached, out)
    enable_snapshots(out, keep_last=2)  # pins the prefix base as v1
    incremental_apply(log, out, run_id="r2")  # records v2
    return read_published(out, version=1)


def q_transcript_ddl_read(sf_dir: str):
    """Metadata-only schema DDL over the silver derived table: converge it
    (apply + feed refresh), then rename/add/drop WITHOUT touching a data
    file — the read applies the mapping (rename is a relabel, the added
    column is NULL, the dropped one vanishes) and must equal the renamed
    SQL projection of the full replay."""
    import shutil

    from odibel_ray.cdc.ddl import alter_published
    from odibel_ray.cdc.derived import read_derived, refresh_derived
    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_derived_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ddl")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    feed = os.path.join(work, "feed")
    incremental_apply(
        log, os.path.join(work, "table"), run_id="r2", feed_dir=feed,
        feed_values=_DERIVED_FEED_VALUES, feed_lsn=True,
    )
    derived = os.path.join(work, "derived")
    refresh_derived(derived, run_id="d1", strategy="feed", feed=feed)
    alter_published(
        derived, rename={"score": "quality"}, add={"reviewed": "string"},
        drop=["role_uc"],
    )
    return read_derived(derived)


def q_transcript_ddl_materialized(sf_dir: str):
    """Same logical table as ``transcript_ddl_read`` (same oracle) but with
    the op log REWRITTEN into the files by ``materialize_ddl`` — proves the
    rewrite is semantically invisible: renamed/added/dropped become
    physical, the log clears, and the read returns the identical answer
    through the plain (mapping-free) path."""
    from odibel_ray.cdc.ddl import load_schema_ops, materialize_ddl
    from odibel_ray.cdc.derived import read_derived

    ds = q_transcript_ddl_read(sf_dir)
    del ds  # built the altered fixture; re-read after the rewrite
    derived = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ddl", "derived")
    materialize_ddl(derived, run_id="rw1")
    assert load_schema_ops(derived) == []
    return read_derived(derived)


def q_transcript_savepoint_read(sf_dir: str):
    """Cross-table savepoint: pin a consistent cut over the 60%-prefix bronze
    AND a derived silver table, keep applying to both, then read bronze back
    THROUGH the savepoint — retention (keep_last=1 would expire the pinned
    version) must not sweep it. Equals a from-scratch replay of the prefix."""
    import shutil

    from odibel_ray.cdc.derived import refresh_derived
    from odibel_ray.cdc.savepoint import create_savepoint, read_savepoint
    from odibel_ray.cdc.sink import enable_snapshots, incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_derived_base(sf_dir)
    work = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_spr")
    shutil.rmtree(work, ignore_errors=True)
    _work_copy(cached, work)
    table, derived = os.path.join(work, "table"), os.path.join(work, "derived")
    enable_snapshots(table, keep_last=1)
    sp = os.path.join(work, "release-1")
    create_savepoint(sp, {"bronze": table, "silver": derived})
    feed = os.path.join(work, "feed")
    incremental_apply(log, table, run_id="r2", feed_dir=feed,
                      feed_values=_DERIVED_FEED_VALUES)
    refresh_derived(derived, run_id="d1", feed=feed)
    return read_savepoint(sp, "bronze")


def q_transcript_version_diff(sf_dir: str):
    """Delta-style ``table_changes`` between two retained snapshots: v1 (the
    60% prefix base) → v2 (fully applied), computed purely from the
    snapshots — no change feed needed at write time. One hash exchange
    (``lww.change_feed`` under the hood); same full-outer-join SQL oracle as
    the write-time incremental feed, proving both CDF paths agree."""
    import shutil

    from odibel_ray.cdc.sink import enable_snapshots, incremental_apply, table_changes

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ttd", "table")
    shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    _work_copy(cached, out)
    enable_snapshots(out, keep_last=2)  # pins the prefix base as v1
    incremental_apply(log, out, run_id="r2")  # records v2
    return table_changes(out, 1, 2)


def q_transcript_incremental_mor(sf_dir: str):
    """Merge-on-read incremental apply: same base fixture as
    ``transcript_incremental``, but the run stages only per-bucket DELTA
    files (no base read or rewrite — O(new events) write cost) and the
    reader LWW-merges base ∪ deltas; the merged read must equal the same
    from-scratch replay oracle. The Hudi/Delta MOR trade over this sink's
    manifests."""
    import shutil

    from odibel_ray.cdc.sink import incremental_apply, read_published

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_incmor", "table")
    shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    _work_copy(cached, out)
    incremental_apply(log, out, run_id="r2", mode="mor")
    return read_published(out)


def q_transcript_compacted_read(sf_dir: str):
    """MOR apply → compaction → read: folding the delta files back into the
    bucket bases must preserve the exact merged state (same replay oracle),
    leave zero deltas, and restore the plain single-file-per-bucket read
    path."""
    import shutil

    from odibel_ray.cdc.sink import (
        compact_published,
        incremental_apply,
        read_published,
    )

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_inccompact", "table")
    shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    _work_copy(cached, out)
    incremental_apply(log, out, run_id="r2", mode="mor")
    res = compact_published(out, run_id="c1")
    assert res["deltas_total"] == 0
    return read_published(out)


def q_transcript_incremental_feed(sf_dir: str):
    """CDF emitted by the sink itself: publish a 60% LSN prefix, incrementally
    apply the full log with ``feed_dir`` set, and return the change-data-feed
    the merge wrote alongside the data (no extra exchange or log read — the
    per-bucket apply task already holds base row + winning event per key)."""
    import shutil

    import ray.data as rd

    from odibel_ray.cdc.sink import incremental_apply

    log = ensure_transcript_log(sf_dir)
    cached = ensure_incremental_base(sf_dir)
    base = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_incfeed")
    shutil.rmtree(base, ignore_errors=True)
    out = os.path.join(base, "table")
    _work_copy(cached, out)
    incremental_apply(log, out, run_id="r2", feed_dir=os.path.join(base, "feed"))
    return rd.read_parquet(os.path.join(base, "feed")).select_columns(
        ["conv_id", "turn_idx", "change", "text_before", "text_after"]
    )


def _transcript_max_lsn(sf_dir: str) -> int:
    import pyarrow.dataset as pads

    log = ensure_transcript_log(sf_dir)
    t = pads.dataset(log, format="parquet", partitioning="hive").to_table(columns=["lsn"])
    return int(pc.max(t["lsn"]).as_py())


def q_transcript_snapshot(sf_dir: str):
    """Snapshot-at-LSN time travel: converged state of the first half of the
    log (schema events clipped at the same LSN)."""
    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    cut = math.floor(0.5 * _transcript_max_lsn(sf_dir))
    return replay_dataset(log, max_lsn=cut)


def q_transcript_change_feed(sf_dir: str):
    """Change-data-feed read: row-level insert/update/delete with before/after
    ``text`` between the half-log snapshot and the fully-replayed table — the
    downstream-consumer view a lakehouse CDC sink exposes (before/after
    extension of ``eval/SnapshotEval.scala:132-160``). Uses the fused
    single-replay path (one log read, one shuffle); the generic two-state
    ``lww.change_feed`` is parity-pinned against it in
    ``tests/test_replay.py``."""
    from odibel_ray.cdc.apply import replay_change_feed

    log = ensure_transcript_log(sf_dir)
    cut = math.floor(0.5 * _transcript_max_lsn(sf_dir))
    return replay_change_feed(log, cut)


def _transcript_mid_ts_us(sf_dir: str) -> int:
    """Deterministic event-time midpoint over valid data events (both sides
    compute min + (max-min)//2 in integer microseconds)."""
    import pyarrow.dataset as pads

    log = ensure_transcript_log(sf_dir)
    t = pads.dataset(log, format="parquet", partitioning="hive").to_table(
        columns=["op", "conv_id", "turn_idx", "ts"]
    )
    m = pc.and_(
        pc.and_(pc.is_in(t["op"], value_set=pa.array(["I", "U", "D"])), pc.is_valid(t["conv_id"])),
        pc.is_valid(t["turn_idx"]),
    )
    ts = t.filter(m)["ts"].cast(pa.int64())
    lo, hi = pc.min(ts).as_py(), pc.max(ts).as_py()
    return lo + (hi - lo) // 2


def q_transcript_time_travel(sf_dir: str):
    """M15 snapshot-at-T in TIME space (``eval/EvalFunctions.scala:66-84``):
    interval containment ``ts_start <= T < ts_end`` over the history windows —
    the second snapshot form, cross-checking the LSN-space snapshot."""
    from odibel_ray.cdc.apply import replay_dataset

    t_us = _transcript_mid_ts_us(sf_dir)
    hist = replay_dataset(ensure_transcript_log(sf_dir), history=True)

    def contains(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = t["ts_start"].cast(pa.int64())
        e = t["ts_end"].cast(pa.int64())
        m = pc.and_(pc.less_equal(s, t_us), pc.greater(e, t_us))
        return t.filter(pc.fill_null(m, False))

    return hist.map_batches(contains, batch_format="pyarrow")


def q_transcript_window_histogram(sf_dir: str):
    """Version-lifetime histogram over closed history windows (A12 analog,
    ``eval/OutputEval.scala:85-97``): floor(lsn duration / 16) → count."""
    from ray.data.aggregate import Count

    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    hist = replay_dataset(log, history=True)

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        end = t["lsn_end"].to_numpy(zero_copy_only=False)
        start = t["lsn_start"].to_numpy(zero_copy_only=False)
        closed = end != INT64_MAX
        dur = ((end[closed] - start[closed]) // 16).astype(np.int64)
        return pa.table({"duration_bucket": pa.array(dur)})

    g = hist.map_batches(derive, batch_format="pyarrow").groupby(
        "duration_bucket"
    ).aggregate(Count(alias_name="n_windows"))
    return g


def q_transcript_activity(sf_dir: str):
    """A9 analog (``countPartsOfTriplesOverTime``): per LSN bucket — windows
    opened, windows closed, total changes; two branch aggregations outer-merged
    with zero-fill (the two branches are small aggregates, merged driver-side
    as the reference's joins + ``coalesce(0)``)."""
    from odibel_ray.cdc.apply import replay_dataset

    log = ensure_transcript_log(sf_dir)
    hist = replay_dataset(log, history=True)

    def buckets(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = t["lsn_start"].to_numpy(zero_copy_only=False) // 64
        e = t["lsn_end"].to_numpy(zero_copy_only=False)
        e = (e[e != INT64_MAX] // 64)
        su, sc = np.unique(s, return_counts=True)
        eu, ec = np.unique(e, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(np.concatenate([su, eu])),
                "opened": pa.array(
                    np.concatenate([sc, np.zeros(len(eu), np.int64)])
                ),
                "closed": pa.array(
                    np.concatenate([np.zeros(len(su), np.int64), ec])
                ),
            }
        )

    from ray.data.aggregate import Sum

    g = (
        hist.map_batches(buckets, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("opened", alias_name="opened"), Sum("closed", alias_name="closed"))
    )

    def changes(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ch = pc.add(t["opened"], t["closed"])
        return t.append_column("changes", pc.cast(ch, pa.int64())).set_column(
            t.schema.get_field_index("opened"), "opened", pc.cast(t["opened"], pa.int64())
        ).set_column(
            t.schema.get_field_index("closed"), "closed", pc.cast(t["closed"], pa.int64())
        )

    return g.map_batches(changes, batch_format="pyarrow")


def q_transcript_summary(sf_dir: str):
    """A11 TKG summary (``eval/OutputEval.scala:50-64``): distinct-count
    profile of the replay history — facts, keys, conversations, versions
    (union of window starts and closed ends), live rows."""
    from odibel_ray.cdc.apply import replay_summary_stats

    # fused kernel: one log read + one key shuffle + a micro-exchange over
    # pre-deduped version values (was: history materialize + 3 distinct-count
    # shuffles + 2 extra passes)
    return replay_summary_stats(ensure_transcript_log(sf_dir))


def q_transcript_snapshot_stats(sf_dir: str):
    """A10 snapshot statistics (``eval/EvalFunctions.scala:353-408``): row
    counts at half-log and full-log snapshots, added/deleted/changed keys
    between them, static core, growth percent. Fused single-replay form
    (one log read, one shuffle — the naive composition executes four
    replays: two counts + both sides of an outer diff)."""
    from odibel_ray.cdc.apply import replay_snapshot_stats

    log = ensure_transcript_log(sf_dir)
    cut = math.floor(0.5 * _transcript_max_lsn(sf_dir))
    s = replay_snapshot_stats(log, cut)
    rows_t1 = s["rows_t1"][0].as_py()
    rows_t2 = s["rows_t2"][0].as_py()
    deleted = s["deleted"][0].as_py()
    changed = s["changed"][0].as_py()
    return s.append_column(
        "static_core", pa.array([rows_t1 - deleted - changed], pa.int64())
    ).append_column(
        "growth_pct", pa.array([round((rows_t2 - rows_t1) / max(rows_t1, 1), 6)])
    )


def q_daily_window_topk(sf_dir: str):
    """A13 daily top-k (``eval/OutputEval.scala:72-83``): days with the most
    opened windows, deterministic tie-break on the day string."""
    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.ops.aggregates import group_count, with_time_bucket

    hist = replay_dataset(ensure_transcript_log(sf_dir), history=True)
    daily = group_count(
        with_time_bucket(hist.select_columns(["ts_start"]), "ts_start", "day", out_col="day"),
        ["day"],
    )
    return daily.sort(["n", "day"], descending=[True, False]).limit(5)


def q_orders_lineitem_join(sf_dir: str):
    """J8 large-large distributed join under an oracle: lineitem ⋈ orders on
    the order key via the task-based bucketed join (neither side broadcast),
    aggregated per (priority, returnflag)."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.relational import bucketed_join, load_table

    li = load_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_returnflag"])
    orders = load_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    j = bucketed_join(
        li,
        orders.rename_columns({"o_orderkey": "l_orderkey"}),
        "l_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("l_quantity", pa.float64()), ("l_returnflag", pa.string())]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
    )
    g = j.groupby(["o_orderpriority", "l_returnflag"]).aggregate(
        Count(alias_name="n_items"), Sum("l_quantity", alias_name="sum_qty")
    )
    return _round_cols(g, {"sum_qty": 2})


def q_transcript_turn_latency(sf_dir: str):
    """Window-function class (`ops.aggregates.window_lag` = SQL LAG OVER
    PARTITION BY): per-conversation turn-to-turn latency over the replayed
    final table — gap = ts − lag(ts) ordered by turn_idx — aggregated per
    role. One key-hash shuffle for the lag (conversations never split across
    buckets), exact integer gap sums so the avg is a single reproducible
    division."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.ops.aggregates import window_lag

    log = ensure_transcript_log(sf_dir)
    final = replay_dataset(log).select_columns(["conv_id", "turn_idx", "role", "ts"])
    lagged = window_lag(final, ["conv_id"], "turn_idx", ["ts"])

    def _gap(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        prev = t["ts_prev"].cast(pa.int64())
        gap = pc.subtract(t["ts"].cast(pa.int64()), prev)
        return pa.table({"role": t["role"], "gap_us": gap}).filter(
            pc.is_valid(prev)
        )

    g = lagged.map_batches(_gap, batch_format="pyarrow").groupby("role").aggregate(
        Count(alias_name="n_gaps"), Sum("gap_us", alias_name="sum_gap_us")
    )

    def _avg(t: pa.Table) -> pa.Table:
        s = t["sum_gap_us"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n_gaps"].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column("avg_gap_us", pa.array(s / n, pa.float64()))

    return g.map_batches(_avg, batch_format="pyarrow")


def q_events_running_value(sf_dir: str):
    """Running-total window (`ops.aggregates.window_cumsum` = SUM OVER
    PARTITION BY ... ROWS UNBOUNDED PRECEDING): per-user cumulative event
    value ordered by (ts, event_id). Values are floor-quantized to integer
    milli-units BEFORE accumulating so the running sums are exact integers —
    bit-reproducible across engines regardless of summation tree shape."""
    from odibel_ray.ops.aggregates import window_cumsum
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "value", "ts"])

    def _quant(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return t.drop_columns(["value"]).append_column(
            "v_milli", pa.array(np.floor(v * 1000).astype(np.int64), pa.int64())
        )

    q = ev.map_batches(_quant, batch_format="pyarrow")
    run = window_cumsum(q, ["user_id"], "ts", "v_milli",
                        tie_cols=["event_id"], out="running_value")
    return run.select_columns(["user_id", "event_id", "ts", "running_value"])


_EVENT_TYPES = ("click", "view", "purchase", "signup", "error")


def q_user_event_pivot(sf_dir: str):
    """SQL PIVOT (`ops.aggregates.pivot_counts`): one row per user with a
    count column per event type. Combiner-first — each batch collapses to
    per-user wide partials via one Arrow group_by, so the single exchange
    moves one row per (batch, user), never one per event; the category list
    is explicit and bounded (pivot schemas cannot be data-dependent at
    scale)."""
    from odibel_ray.ops.aggregates import pivot_counts
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(ev, ["user_id"], "event_type", _EVENT_TYPES)


def q_orders_rollup(sf_dir: str):
    """SQL GROUP BY ROLLUP (`ops.aggregates.rollup_counts`): order counts and
    revenue at (priority, status), (priority) and grand-total granularity in
    one pass — the corpus is exchanged exactly once (the finest groupby);
    every subtotal level re-aggregates the previous level's already-small
    table."""
    from odibel_ray.ops.aggregates import rollup_counts
    from odibel_ray.ops.relational import load_table

    orders = load_table(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    r = rollup_counts(orders, ["o_orderpriority", "o_orderstatus"],
                      value_col="o_totalprice", count_name="n_orders")
    return _round_cols(r, {"sum_o_totalprice": 2})


def q_orders_grouping_sets(sf_dir: str):
    """SQL GROUP BY GROUPING SETS (`ops.aggregates.rollup_counts` with
    ``grouping='sets'``): exactly the requested granularities — (priority,
    status), (status), and grand total — each subtotal derived from the one
    corpus exchange, like ROLLUP/CUBE."""
    from odibel_ray.ops.aggregates import rollup_counts
    from odibel_ray.ops.relational import load_table

    orders = load_table(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    r = rollup_counts(
        orders,
        ["o_orderpriority", "o_orderstatus"],
        value_col="o_totalprice",
        count_name="n_orders",
        grouping="sets",
        sets=[["o_orderpriority", "o_orderstatus"], ["o_orderstatus"], []],
    )
    return _round_cols(r, {"sum_o_totalprice": 2})


def q_user_event_melt(sf_dir: str):
    """UNPIVOT round-trip (`ops.aggregates.melt`, the inverse of
    `pivot_counts`): the wide per-user pivot melted back to long
    (user, variable, value) rows — a pure 1→k streaming explosion, no
    shuffle beyond the pivot's own."""
    from odibel_ray.ops.aggregates import melt

    wide = q_user_event_pivot(sf_dir)
    return melt(wide, ["user_id"], [f"n_{c}" for c in _EVENT_TYPES])


def q_user_top_event(sf_dir: str):
    """Deterministic MODE (`ops.aggregates.group_mode`): each user's most
    frequent event type, ties broken by the smallest value — one exchange
    (per-batch histogram combiner, keyed argmax kernel)."""
    from odibel_ray.ops.aggregates import group_mode
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_type"])
    return group_mode(ev, ["user_id"], "event_type", out="top_event")


def q_events_ranked(sf_dir: str):
    """SQL ROW_NUMBER OVER PARTITION BY (`ops.aggregates.window_rank`): each
    user's first 3 events by (ts, event_id), the rank emitted as a column —
    the general ranked-window class behind per-group top-k."""
    from odibel_ray.ops.aggregates import window_rank
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "ts"])
    r = window_rank(ev, ["user_id"], "ts", kind="row_number",
                    tie_cols=["event_id"], out="rn")
    return r.filter(expr="rn <= 3").select_columns(["user_id", "event_id", "rn"])


def q_order_profile_bag_diff(sf_dir: str):
    """SQL EXCEPT ALL (`ops.relational.bag_set_op`, multiset semantics): the
    (priority, status) profile bag of even-custkey orders minus the
    odd-custkey bag — combiner-first counts, one shared exchange, vectorized
    multiplicity re-expansion."""
    from odibel_ray.ops.relational import bag_set_op, load_table

    orders = load_table(
        sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_orderstatus"]
    )
    def _half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            ck = t["o_custkey"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ck % 2 == parity)).drop_columns(["o_custkey"])
        return f

    even = orders.map_batches(_half(0), batch_format="pyarrow")
    odd = orders.map_batches(_half(1), batch_format="pyarrow")
    return bag_set_op(even, odd, ["o_orderpriority", "o_orderstatus"],
                      op="except")


def q_events_moving_value(sf_dir: str):
    """Moving-window total (`ops.aggregates.window_moving_sum` = SUM OVER
    ... ROWS BETWEEN 4 PRECEDING AND CURRENT ROW): per-user 5-event rolling
    value sum, floor-quantized to exact integers (same reproducibility rule
    as the running total)."""
    from odibel_ray.ops.aggregates import window_moving_sum
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "value", "ts"])

    def _quant(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return t.drop_columns(["value"]).append_column(
            "v_milli", pa.array(np.floor(v * 1000).astype(np.int64), pa.int64())
        )

    q = ev.map_batches(_quant, batch_format="pyarrow")
    run = window_moving_sum(q, ["user_id"], "ts", "v_milli", 5,
                            tie_cols=["event_id"], out="moving_value")
    return run.select_columns(["user_id", "event_id", "ts", "moving_value"])


def q_building_revenue_topk(sf_dir: str):
    """TPC-H-Q3-shaped three-table composition: BUILDING-segment customers'
    pre-1997 orders joined to post-cutoff lineitems, revenue per order,
    global top-10. The dimension side (filtered customer keys) broadcasts
    under the byte-budget guard; orders⋈lineitem is the task-based
    large-large `bucketed_join`; top-k prunes per batch before one tiny
    sort. Revenue is rounded BEFORE ranking so the rank 10 boundary is
    float-stable across engines, ties broken by order key."""
    from ray.data.aggregate import Sum

    from odibel_ray.ops.relational import (
        broadcast_semi_join,
        bucketed_join,
        load_table,
    )

    cutoff = np.datetime64("1997-01-01")
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).filter(
        expr="c_mktsegment == 'BUILDING'"
    ).rename_columns({"c_custkey": "o_custkey"})
    orders = load_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def _od(t: pa.Table) -> pa.Table:
        m = t["o_orderdate"].to_numpy(zero_copy_only=False) < cutoff
        return t.filter(pa.array(m))

    def _ld(t: pa.Table) -> pa.Table:
        m = t["l_shipdate"].to_numpy(zero_copy_only=False) >= cutoff
        rev = (t["l_extendedprice"].to_numpy(zero_copy_only=False)
               * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False)))
        t = t.append_column("rev", pa.array(rev, pa.float64()))
        return t.select(["l_orderkey", "rev"]).filter(pa.array(m))

    b_orders = broadcast_semi_join(
        orders.map_batches(_od, batch_format="pyarrow"),
        cust.select_columns(["o_custkey"]),
        "o_custkey",
        ds_schema=pa.schema([("o_orderkey", pa.int64()),
                             ("o_custkey", pa.int64()),
                             ("o_orderdate", pa.timestamp("us"))]),
    ).rename_columns({"o_orderkey": "l_orderkey"})
    li = load_table(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(_ld, batch_format="pyarrow")
    j = bucketed_join(
        li, b_orders.select_columns(["l_orderkey", "o_orderdate"]),
        "l_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("rev", pa.float64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))]),
    )
    g = j.groupby(["l_orderkey", "o_orderdate"]).aggregate(
        Sum("rev", alias_name="revenue")
    )
    g = _round_cols(g, {"revenue": 2})

    keys = [("revenue", "descending"), ("l_orderkey", "ascending")]

    def _local(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if len(t) <= 10:
            return t
        return t.take(pc.select_k_unstable(t, 10, sort_keys=keys))

    pruned = g.map_batches(_local, batch_format="pyarrow")
    return pruned.sort(["revenue", "l_orderkey"],
                       descending=[True, False]).limit(10)


def q_orders_cube(sf_dir: str):
    """SQL GROUP BY CUBE (`ops.aggregates.rollup_counts(grouping='cube')`):
    order counts/revenue at EVERY (priority, status) subset granularity —
    one corpus exchange; every subset level re-aggregates the finest
    (cardinality-sized) table."""
    from odibel_ray.ops.aggregates import rollup_counts
    from odibel_ray.ops.relational import load_table

    orders = load_table(
        sf_dir, "orders", ["o_orderpriority", "o_orderstatus", "o_totalprice"]
    )
    r = rollup_counts(orders, ["o_orderpriority", "o_orderstatus"],
                      value_col="o_totalprice", count_name="n_orders",
                      grouping="cube")
    return _round_cols(r, {"sum_o_totalprice": 2})


def q_urgent_order_lineitems(sf_dir: str):
    """Bloom-filtered selective join (`ops.bloom.bloom_semi_filter`): orders
    filtered to 1-URGENT (~1/5 of keys) is the build side; a distributed
    Bloom filter of its keys (mergeable OR partials, a few MiB regardless of
    scale) pre-filters lineitem BEFORE the bucketed-join shuffle, so ~80% of
    the probe side never enters the exchange. False positives are dropped by
    the exact inner join that follows — the runtime-filter pattern of Spark
    AQE / Snowflake bloom pruning."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.bloom import bloom_semi_filter
    from odibel_ray.ops.relational import bucketed_join, load_table

    li = load_table(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_returnflag"])
    urgent = load_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).filter(
        expr="o_orderpriority == '1-URGENT'"
    ).rename_columns({"o_orderkey": "l_orderkey"})
    # pin ONE execution of the selective slice: it feeds both the bloom
    # build and the join's build side (it's the bounded ~1/5 of orders)
    urgent = urgent.materialize()
    probe = bloom_semi_filter(li, urgent.select_columns(["l_orderkey"]),
                              "l_orderkey", num_bits=1 << 20)
    j = bucketed_join(
        probe,
        urgent,
        "l_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("l_extendedprice", pa.float64()),
             ("l_returnflag", pa.string())]
        ),
        right_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
    )
    g = j.groupby("l_returnflag").aggregate(
        Count(alias_name="n_items"), Sum("l_extendedprice", alias_name="sum_price")
    )
    return _round_cols(g, {"sum_price": 2})


def q_transcript_named_graphs(sf_dir: str):
    """M9 named-graph serializer: replay history → 5 N-Quad lines per
    fact-version (``CSVToRDFNamedGraphs.scala:63-99`` shape, deterministic
    graph ids)."""
    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.rdf import history_to_named_graphs

    return history_to_named_graphs(
        replay_dataset(ensure_transcript_log(sf_dir), history=True)
    )


def q_transcript_reification(sf_dir: str):
    """M9 reification serializer: replay history → 8 N-Triple lines per
    fact-version (``CSVToRDFReification.scala:71-121`` shape, deterministic
    bnode ids instead of ``System.nanoTime()``)."""
    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.rdf import history_to_reification

    return history_to_reification(
        replay_dataset(ensure_transcript_log(sf_dir), history=True)
    )


def q_transcript_rdf_star(sf_dir: str):
    """M9 RDF-star serializer: replay history → 4 RDF-star annotation lines
    per fact-version (the ``CSVToRDFStar`` sketch the reference left
    commented at ``TKGModelMgr.scala:124-136``, shipped here)."""
    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.rdf import history_to_rdf_star

    return history_to_rdf_star(
        replay_dataset(ensure_transcript_log(sf_dir), history=True)
    )


def q_events_change_stream(sf_dir: str):
    """±1 change stream (A6, ``countChangesOverTime``): +1 at each window
    start, −1 at each close, net count per LSN position."""
    from odibel_ray.cdc.lww import change_windows
    from odibel_ray.ops.aggregates import change_stream_counts

    win = change_windows(
        _events_as_changes(sf_dir).select_columns(
            ["op", "event_id", "user_id", "event_type", "value"]
        ),
        ["user_id", "event_type"],
        lsn_col="event_id",
    )
    return change_stream_counts(
        win, "lsn_start", "lsn_end", end_sentinel=INT64_MAX, out_bucket="at", out_count="net"
    )


def q_table_lineage(sf_dir: str):
    """Per-partition lineage + metrics of a published table (manifest-backed
    checkpoint record; rows-only check)."""
    import shutil

    from odibel_ray.cdc.sink import lineage_table, replay_publish

    log = ensure_transcript_log(sf_dir)
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lineage")
    shutil.rmtree(out, ignore_errors=True)
    replay_publish(log, out, partitioned=True, run_id="lineage")
    return lineage_table(out)


def q_cdc_events_lww(sf_dir: str):
    from odibel_ray.cdc.lww import lww_latest

    return lww_latest(_events_as_changes(sf_dir), ["user_id", "event_type"], lsn_col="event_id")


def q_cdc_events_snapshot(sf_dir: str):
    from odibel_ray.cdc.lww import snapshot_at

    at = math.floor(0.6 * _events_max_lsn(sf_dir))
    return snapshot_at(
        _events_as_changes(sf_dir), ["user_id", "event_type"], at, lsn_col="event_id"
    )


def q_cdc_events_windows(sf_dir: str):
    from odibel_ray.cdc.lww import change_windows

    return change_windows(
        _events_as_changes(sf_dir).select_columns(
            ["op", "event_id", "user_id", "event_type", "value"]
        ),
        ["user_id", "event_type"],
        lsn_col="event_id",
    )


def q_cdc_events_diff(sf_dir: str):
    from odibel_ray.cdc.lww import lww_latest, outer_diff, snapshot_at

    at = math.floor(0.6 * _events_max_lsn(sf_dir))
    ev = _events_as_changes(sf_dir)
    snap = snapshot_at(ev, ["user_id", "event_type"], at, lsn_col="event_id")
    final = lww_latest(ev, ["user_id", "event_type"], lsn_col="event_id")
    return outer_diff(snap, final, ["user_id", "event_type"], ["value"])


def q_cdc_events_change_feed(sf_dir: str):
    """Generic-key change-data-feed (J6 generic path, ``lww.change_feed``):
    row-level insert/update/delete with before/after ``value`` between the
    60%-LSN snapshot and the converged state of the events binlog — the
    key-agnostic single-exchange CDF the transcript pipeline's fused
    ``replay_change_feed`` specializes."""
    from odibel_ray.cdc.lww import change_feed, lww_latest, snapshot_at

    at = math.floor(0.6 * _events_max_lsn(sf_dir))
    ev = _events_as_changes(sf_dir)
    snap = snapshot_at(ev, ["user_id", "event_type"], at, lsn_col="event_id")
    final = lww_latest(ev, ["user_id", "event_type"], lsn_col="event_id")
    return change_feed(snap, final, ["user_id", "event_type"], ["value"])


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-style groupby aggregate over lineitem (§2.5 A-family)."""
    from ray.data.aggregate import Count, Mean, Sum

    from odibel_ray.ops.relational import load_table

    li = load_table(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("disc_price", disc)

    g = (
        li.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
    )
    return _round_cols(g, {"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2, "avg_qty": 6})


def q_orders_per_nation(sf_dir: str):
    """orders ⋈ customer ⋈ nation via broadcast hash joins (§2.4 J-family)."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.relational import broadcast_hash_join, load_table

    orders = load_table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = load_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    j1 = broadcast_hash_join(
        orders, cust.rename_columns({"c_custkey": "o_custkey"}), "o_custkey"
    )
    j2 = broadcast_hash_join(
        j1, nation.rename_columns({"n_nationkey": "c_nationkey"}), "c_nationkey"
    )
    g = j2.groupby("n_name").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total_price")
    )
    return _round_cols(g, {"total_price": 2})


def q_customers_per_region(sf_dir: str):
    """Three-way broadcast join chain: customer ⋈ nation ⋈ region → count per
    region (J4-family over the full dimension hierarchy)."""
    from ray.data.aggregate import Count

    from odibel_ray.ops.relational import broadcast_hash_join, load_table

    cust = load_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = load_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = load_table(sf_dir, "region", ["r_regionkey", "r_name"])
    j1 = broadcast_hash_join(
        cust, nation.rename_columns({"n_nationkey": "c_nationkey"}), "c_nationkey"
    )
    j2 = broadcast_hash_join(
        j1, region.rename_columns({"r_regionkey": "n_regionkey"}), "n_regionkey"
    )
    return j2.groupby("r_name").aggregate(Count(alias_name="n_customers"))


def q_revenue_by_part_brand(sf_dir: str):
    """Fact ⋈ two dimensions (part, supplier) with shuffle join on the larger
    side and broadcast on the smaller; revenue per (brand, supplier nation)."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.relational import broadcast_hash_join, load_table

    li = load_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])
    part = load_table(sf_dir, "part", ["p_partkey", "p_brand"])
    supp = load_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        # exact integer 1e-4 units: products of 2-decimal money and 2-decimal
        # discount have <=4 decimals, so *1e4 lands ~1e-9 from an integer —
        # rounding is unambiguous (at *100, values hit exact .5 and Arrow's
        # half-to-even disagrees with DuckDB's half-away) — and int64
        # summation is order-independent
        e4 = pc.cast(pc.round(pc.multiply(rev, 10000.0)), pa.int64())
        return t.append_column("revenue_e4", e4)

    j1 = broadcast_hash_join(
        li.map_batches(derive, batch_format="pyarrow"),
        part.rename_columns({"p_partkey": "l_partkey"}),
        "l_partkey",
    )
    j2 = broadcast_hash_join(
        j1, supp.rename_columns({"s_suppkey": "l_suppkey"}), "l_suppkey"
    )
    return j2.groupby(["p_brand", "s_nationkey"]).aggregate(
        Count(alias_name="n_items"), Sum("revenue_e4", alias_name="revenue_e4")
    )


def q_customers_with_orders(sf_dir: str):
    from odibel_ray.ops.relational import broadcast_semi_join, load_table

    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    orders = load_table(sf_dir, "orders", ["o_custkey"])
    return broadcast_semi_join(
        cust.rename_columns({"c_custkey": "custkey"}),
        orders.rename_columns({"o_custkey": "custkey"}),
        "custkey",
    )


def q_customers_without_orders(sf_dir: str):
    """Anti-join: customers with no pending ('P') orders (§2.4 left_anti)."""
    from odibel_ray.ops.relational import broadcast_anti_join, load_table

    cust = load_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    orders = load_table(sf_dir, "orders", ["o_custkey", "o_orderstatus"]).filter(
        expr="o_orderstatus == 'P'"
    )
    return broadcast_anti_join(
        cust.rename_columns({"c_custkey": "custkey"}),
        orders.rename_columns({"o_custkey": "custkey"}),
        "custkey",
    )


def q_distinct_order_profiles(sf_dir: str):
    """Exact dedup with deterministic representative (§2.7 D3)."""
    from odibel_ray.ops.relational import exact_dedup, load_table

    orders = load_table(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderpriority"])
    return exact_dedup(
        orders, ["o_orderstatus", "o_orderpriority"], tie_break="o_orderkey"
    )


def q_sample_lineitem(sf_dir: str):
    from odibel_ray.ops.relational import deterministic_sample, load_table

    li = load_table(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    return deterministic_sample(li, "l_orderkey", 10)


def q_top_lineitems(sf_dir: str):
    from odibel_ray.ops.relational import load_table, topk

    li = load_table(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])
    return topk(li, "l_extendedprice", 5)


def q_top_lineitems_per_flag(sf_dir: str):
    from odibel_ray.ops.relational import load_table, topk_per_group

    li = load_table(
        sf_dir, "lineitem", ["l_returnflag", "l_orderkey", "l_linenumber", "l_extendedprice"]
    )
    return topk_per_group(
        li,
        ["l_returnflag"],
        "l_extendedprice",
        3,
        tie_break=["l_orderkey", "l_linenumber"],
    )


def q_events_per_type_day(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.aggregates import with_time_bucket
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["ts", "event_type", "value"])
    g = (
        with_time_bucket(ev, "ts", "day", out_col="day")
        .groupby(["day", "event_type"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total_value"))
    )
    return _round_cols(g, {"total_value": 2})


def q_events_asof_profile(sf_dir: str):
    """As-of join: every event picks up the latest snapshot value (events with
    event_id % 10 == 0 act as per-user profile snapshots) at or before its
    timestamp — DuckDB ASOF LEFT JOIN semantics."""
    from odibel_ray.ops.relational import asof_join, exact_dedup, load_table

    ev = load_table(sf_dir, "events", ["event_id", "user_id", "ts"])
    snaps_raw = load_table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 10 == 0))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "snap_value": pc.round(t["value"], 6),
            }
        )

    snaps = exact_dedup(
        snaps_raw.map_batches(derive, batch_format="pyarrow"),
        ["user_id", "ts"],
        tie_break="event_id",
    ).select_columns(["user_id", "ts", "snap_value"])
    joined = asof_join(
        ev,
        snaps,
        "user_id",
        "ts",
        value_cols=["snap_value"],
        left_schema=pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("ts", pa.timestamp("us"))]
        ),
        right_schema=pa.schema(
            [("user_id", pa.int64()), ("ts", pa.timestamp("us")), ("snap_value", pa.float64())]
        ),
    )
    return joined.select_columns(["event_id", "user_id", "snap_value"])


def q_events_range_join(sf_dir: str):
    """Keyed range join: events paired with every same-user 5-minute interval
    (spawned by events with event_id % 50 == 0) containing their timestamp."""
    from odibel_ray.ops.relational import load_table, range_join

    ev = load_table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def make_intervals(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 50 == 0))
        s = t["ts"].cast(pa.int64())
        return pa.table(
            {
                "user_id": t["user_id"],
                "w_start": s.cast(pa.timestamp("us")),
                "w_end": pc.cast(pc.add(s, 300_000_000), pa.timestamp("us")),
                "interval_id": t["event_id"],
            }
        )

    intervals = ev.map_batches(make_intervals, batch_format="pyarrow")
    ts = pa.timestamp("us")
    return range_join(
        ev,
        intervals,
        "user_id",
        "ts",
        "w_start",
        "w_end",
        payload_cols=["interval_id"],
        points_schema=pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("ts", ts)]
        ),
        intervals_schema=pa.schema(
            [("user_id", pa.int64()), ("w_start", ts), ("w_end", ts), ("interval_id", pa.int64())]
        ),
    ).select_columns(["event_id", "user_id", "interval_id"])


def q_events_sliding_windows(sf_dir: str):
    """Sliding event-time windows (1 h wide, 15 min hop): per-(type, window)
    event counts — the windowed-aggregate custom operator, tumbling being the
    width==step special case."""
    from odibel_ray.ops.aggregates import sliding_window_counts
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["event_type", "ts"])
    return sliding_window_counts(
        ev,
        "ts",
        width_us=3_600_000_000,
        step_us=900_000_000,
        keys=["event_type"],
    )


def q_events_overlap_join(sf_dir: str):
    """Interval-overlap join (interval × interval — the inequality join
    Ray Data lacks): per-user click vs view 10-minute activity intervals,
    one pair per concurrent (click, view). One key-hash shuffle; batched
    searchsorted candidate runs inside each bucket."""
    from odibel_ray.ops.relational import interval_overlap_join, load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])

    def mk(et: str):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            t = t.filter(pc.equal(t["event_type"], et))
            s = pc.cast(t["ts"], pa.int64())
            return pa.table(
                {"user_id": t["user_id"], "event_id": t["event_id"],
                 "start": s,
                 "end": pc.add(s, pa.scalar(600_000_000, pa.int64()))}
            )

        return f

    schema = pa.schema(
        [("user_id", pa.int64()), ("event_id", pa.int64()),
         ("start", pa.int64()), ("end", pa.int64())]
    )
    j = interval_overlap_join(
        ev.map_batches(mk("click"), batch_format="pyarrow"),
        ev.map_batches(mk("view"), batch_format="pyarrow"),
        "user_id",
        left_payload=["event_id"],
        right_payload=["event_id"],
        left_schema=schema,
        right_schema=schema,
    )

    def proj(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table(
            {"user_id": t["user_id"], "click_id": t["event_id"],
             "view_id": t["event_id_r"]}
        )

    return j.map_batches(proj, batch_format="pyarrow")


def q_user_top_events_hh(sf_dir: str):
    """Per-user top-2 event types with counts
    (`ops.sketches.approx_heavy_hitters_per_group` — per-batch truncated
    combiner, one key groupby fold, per-key top-k with deterministic
    ties). The candidate budget exceeds the per-batch value cardinality
    here, so counts are exact and the SQL oracle pins them."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.ops.sketches import approx_heavy_hitters_per_group

    ev = load_table(sf_dir, "events", ["user_id", "event_type"])
    return approx_heavy_hitters_per_group(ev, ["user_id"], "event_type", k=2)


def q_events_window_funcs(sf_dir: str):
    """NTILE / PERCENT_RANK / FIRST_VALUE / LAST_VALUE over per-user
    windows (`ops.aggregates.window_ntile` / `window_percent_rank` /
    `window_partition_values`) — percent_rank ordered by a TIE-heavy
    column (event_type) to exercise the rank-together rule; first/last
    over the full partition frame."""
    from odibel_ray.ops.aggregates import (
        window_ntile,
        window_partition_values,
        window_percent_rank,
    )
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])
    q = window_ntile(ev, ["user_id"], "ts", 4, tie_cols=["event_id"],
                     out="tile4")
    q = window_percent_rank(q, ["user_id"], "event_type",
                            tie_cols=["event_id"], out="pr_type")
    q = window_partition_values(q, ["user_id"], "ts", "event_id",
                                tie_cols=["event_id"],
                                first_out="first_event",
                                last_out="last_event")
    return q.select_columns(
        ["user_id", "event_id", "tile4", "pr_type", "first_event",
         "last_event"]
    )


def q_events_sessionized(sf_dir: str):
    """Gap-based session windows over the events stream: per-user sessions
    split at >30-minute gaps, aggregated to (user, session) event counts —
    the aggregation happens inside the sessionize kernel (sessions never
    cross key buckets), so the whole query is ONE shuffle."""
    from odibel_ray.ops.aggregates import sessionize
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["user_id", "event_id", "ts"])
    return sessionize(
        ev,
        ["user_id"],
        "ts",
        gap_us=30 * 60 * 1_000_000,
        tie_cols=["event_id"],
        emit="sessions",
        agg_col="event_id",
    )


def q_events_cron_expand(sf_dir: str):
    """M5 cron occurrence expansion (1→k row explosion) under an oracle: every
    half-hour mark inside each sampled event's 2-hour window (the fixed
    ``*/30`` pattern is SQL-expressible via ``generate_series``; arbitrary
    cron fields stay pytest-covered)."""
    from odibel_ray.ops.cron import expand_cron
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["event_id", "ts"])

    def windows(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(eid % 20 == 0))
        s = t["ts"].cast(pa.int64())
        e = pc.add(s, 2 * 3_600_000_000)
        return pa.table(
            {
                "event_id": t["event_id"],
                "w_start": s.cast(pa.timestamp("us")),
                "w_end": pc.cast(e, pa.timestamp("us")),
            }
        )

    out = expand_cron(
        ev.map_batches(windows, batch_format="pyarrow"), "*/30 * * * *", "w_start", "w_end"
    )
    return out.select_columns(["event_id", "occurs_at"])


def q_distinct_users(sf_dir: str):
    from odibel_ray.ops.aggregates import count_distinct
    from odibel_ray.ops.relational import load_table

    return count_distinct(load_table(sf_dir, "events", ["user_id"]), ["user_id"])


def q_user_activity_distribution(sf_dir: str):
    from odibel_ray.ops.aggregates import two_level_degree, with_time_bucket
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["ts", "user_id"])
    return two_level_degree(
        with_time_bucket(ev, "ts", "day", out_col="day"), "user_id", "day"
    )


def q_event_value_stats(sf_dir: str):
    from odibel_ray.ops.aggregates import group_stats
    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["event_type", "value"])
    return group_stats(ev, ["event_type"], "value")


def q_events_props_stats(sf_dir: str):
    """JSON payload decode (§2.8 upickle analog): extract ``k`` from the
    ``props`` JSON column (vectorized regex) → per-type stats."""
    from ray.data.aggregate import Count, Mean, Sum

    from odibel_ray.ops.relational import load_table

    ev = load_table(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        m = pc.extract_regex(t["props"], pattern=r'"k":\s*(?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    g = (
        ev.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("k", alias_name="sum_k"),
            Mean("k", alias_name="avg_k"),
        )
    )
    return _round_cols(g, {"avg_k": 6})


def q_doc_token_stats(sf_dir: str):
    from ray.data.aggregate import Count, Mean, Sum

    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import add_token_count

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    g = (
        add_token_count(docs)
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("tokens", alias_name="total_tokens"),
            Mean("tokens", alias_name="avg_tokens"),
        )
    )
    return _round_cols(g, {"avg_tokens": 6})


def q_doc_regex_token_stats(sf_dir: str):
    """BPE-ish regex token counts (letter runs | digit runs | symbols) per
    language — the second tokenizer of the brief's text-analysis suite."""
    from ray.data.aggregate import Count, Mean, Sum

    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import add_regex_token_count

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    g = (
        add_regex_token_count(docs)
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("regex_tokens", alias_name="total_tokens"),
            Mean("regex_tokens", alias_name="avg_tokens"),
        )
    )
    return _round_cols(g, {"avg_tokens": 6})


def q_doc_prefix_dedup(sf_dir: str):
    """Dedup documents by their first-5-token prefix (exact dedup on a derived
    key; SQL-checkable analog of fingerprint dedup)."""
    from odibel_ray.ops.relational import exact_dedup, load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        toks = pc.split_pattern(t["text"], pattern=" ")
        first5 = pc.list_slice(toks, 0, 5)
        key = pc.binary_join(first5, " ")
        return pa.table({"doc_id": t["doc_id"], "prefix_key": key})

    keyed = docs.map_batches(derive, batch_format="pyarrow")
    return exact_dedup(keyed, ["prefix_key"], tie_break="doc_id")


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (`dedup.decontaminate` — the GPT-3/Llama
    n-gram-overlap sweep): documents split 13-ways by id into a held-out
    "test" corpus and a "train" corpus; every train doc is tagged with the
    number of its distinct word-3-grams that appear anywhere in the test
    corpus. Both sides shingle with the rolling-hash identity and meet in a
    hash-bucketed semi join — each corpus moves exactly once."""
    from odibel_ray.dedup import decontaminate
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])

    def _side(want_test: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 13 == 0) if want_test else (ids % 13 != 0)
            return t.filter(pa.array(m))
        return f

    train = docs.map_batches(_side(False), batch_format="pyarrow")
    test = docs.map_batches(_side(True), batch_format="pyarrow")
    return decontaminate(train, test, shingle=3)


def q_doc_ngram_dup(sf_dir: str):
    """Cross-document n-gram duplication profile (`dedup.cross_doc_ngram_dup`,
    Lee et al. 2022 ExactSubstr measure): per doc, the number of token-3-gram
    positions whose gram also occurs in >= 2 OTHER-or-same distinct documents
    corpus-wide — the substring-level complement of whole-doc dedup. Rolling
    token-hash grams (no gram strings shipped), per-(doc,gram) combiner before
    the corpus-wide gram count, hash-bucketed mark join."""
    from odibel_ray.dedup import cross_doc_ngram_dup
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "source"])
    return cross_doc_ngram_dup(docs, n=3, carry=("source",), min_docs=2)


def q_doc_chunk_dedup(sf_dir: str):
    """Cross-document chunk-level exact dedup (`dedup.chunk_dedup`, the
    C4-style line dedup generalized to 3-token windows for this newline-free
    corpus): every repeated chunk corpus-wide is dropped except its first
    occurrence by (doc_id, chunk_idx), and documents are reassembled from the
    surviving chunks. Combiner-first keep-first exchange + one id-hash
    reassembly shuffle; all kernels offset-vectorized."""
    from odibel_ray.dedup import chunk_dedup
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return chunk_dedup(docs, window=3)


BM25_QUERY = "hash join merge sort"


def q_doc_bm25(sf_dir: str):
    """Lexical retrieval scoring (`retrieval.bm25_scores`, Robertson &
    Zaragoza 2009; Lucene idf form): every document containing a query term
    scored under BM25 against a fixed topic probe. Corpus statistics
    (N, avgdl, per-term df) come from ONE shuffle-free streaming pass of
    fixed-width mergeable partials; scoring is a second streaming pass
    against the driver-closed |q|-row idf table — the corpus never
    shuffles."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.retrieval import bm25_scores

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return bm25_scores(docs, BM25_QUERY)


def _ppl_scored(sf_dir: str, carry: tuple[str, ...] = ()):
    """Shared CCNet fixture: bigram stupid-backoff LM trained on the
    doc_id % 7 == 0 reference split, scoring the WHOLE corpus."""
    from odibel_ray.lm import bigram_logprob
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text", *carry])

    def _train(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 7 == 0))

    train = docs.map_batches(_train, batch_format="pyarrow")
    return bigram_logprob(docs, train, carry=carry)


def q_doc_perplexity(sf_dir: str):
    """CCNet-style LM quality signal (`lm.bigram_logprob`, Wenzek et al.
    2020): every document scored under a bigram stupid-backoff model
    (Brants et al. 2007) trained on the doc_id % 7 == 0 reference split.
    The LM is a DISTRIBUTED gram-keyed count table met in bucketed joins —
    training is two combiner-first groupbys, scoring is two sequential
    hash-bucketed joins (model hit + unigram backoff) with no mid-pipeline
    fork, so nothing vocabulary-sized touches the driver."""
    return _ppl_scored(sf_dir)


def q_doc_ppl_buckets(sf_dir: str):
    """CCNet head/middle/tail binning (`lm.perplexity_buckets`): per-language
    perplexity tercile cutoffs (exact PERCENTILE_DISC over a 2-column
    projection), then per-(lang, bucket) doc/token counts. The cutoff table
    is one row per language — genuinely bounded — so it broadcasts into the
    assignment pass instead of shuffling the corpus."""
    from odibel_ray.lm import perplexity_buckets

    return perplexity_buckets(_ppl_scored(sf_dir, carry=("lang",)), by="lang")


def q_doc_dsir_weights(sf_dir: str):
    """DSIR importance weighting (`selection.dsir_logweights`, Xie et al.
    2023): documents split 13-ways by id into a target domain and a raw pool;
    every raw doc scored with the add-1-smoothed bigram log-likelihood ratio
    target-vs-raw. Exact-vocabulary formulation — the ratio model is a
    DISTRIBUTED gram-keyed dataset met in a bucketed join, never a broadcast
    — so the same plan holds when the vocabulary is billions of grams."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.selection import dsir_logweights

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])

    def _side(want_target: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 13 == 0) if want_target else (ids % 13 != 0)
            return t.filter(pa.array(m))
        return f

    raw = docs.map_batches(_side(False), batch_format="pyarrow")
    target = docs.map_batches(_side(True), batch_format="pyarrow")
    return dsir_logweights(raw, target, n=2)


def q_corpus_curation(sf_dir: str):
    """Composed curation sweep (`pipelines.corpus.curate_corpus`): exact
    text dedup → >=8-token length gate → cross-doc 3-gram duplication gate
    (dup fraction <= 0.5 measured against the deduped survivors). One lazy
    pipeline — stages stream into each other; exchanges are the dedup
    shuffle plus the gram join inside the duplication profile."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.pipelines.corpus import curate_corpus

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "source"])
    return curate_corpus(docs, min_tokens=8, ngram=3, max_dup_frac=0.5)


def q_doc_repetition(sf_dir: str):
    """Gopher-rule repetition metrics (`text.repetition_stats`, Rae et al.
    2021): per-document duplicate-1/2/3-gram fractions — the degenerate-text
    filter every pre-training pipeline thresholds on. One vectorized pass
    (flat token-hash stream, per-segment distinct via lexsort)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import repetition_stats

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return repetition_stats(docs)


def q_doc_chunks(sf_dir: str):
    """LLM-context chunking: each document split into sliding 200-char
    windows with 50-char overlap (stride 150; the short tail chunk is kept).
    Vectorized per CHUNK INDEX, not per row — one scalar-window slice kernel
    over all still-long-enough docs per index."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import chunk_documents

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(docs, size=200, overlap=50)
    return out.select_columns(["doc_id", "chunk_idx", "chunk"])


def q_doc_redacted_stats(sf_dir: str):
    """Regex redaction (PII-scrub shape): digit runs replaced with '#',
    per-language totals of redaction counts and redacted lengths — one
    vectorized replace/count kernel pair per batch."""
    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import redact

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "lang"])
    red = redact(docs, pattern="[0-9]+", replacement="#")

    def lens(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table({
            "lang": t["lang"],
            "n_redactions": t["n_redactions"],
            "red_len": pc.cast(pc.utf8_length(t["redacted"]), pa.int64()),
        })

    return (
        red.map_batches(lens, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_redactions", alias_name="n_red"),
            Sum("red_len", alias_name="sum_red_len"),
        )
    )


def q_doc_normalized(sf_dir: str):
    """Canonical normalization (lower + whitespace collapse + trim) — the
    pre-dedup canonicalization pass, three vectorized kernels per batch."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import normalize_text

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    out = normalize_text(docs)
    return out.select_columns(["doc_id", "norm"])


def q_doc_mix_sample(sf_dir: str):
    """Training-corpus mixing: per-language deterministic sampling rates —
    keep all English documents, 25% of every other language — one
    vectorized hash+rate-lookup pass, exactly replicated by the oracle's
    CASE rule."""
    from odibel_ray.ops.relational import load_table, stratified_sample

    docs = load_table(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    return stratified_sample(docs, "doc_id", "lang", {"en": 100}, default_pct=25)


def q_doc_quality(sf_dir: str):
    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import add_token_count

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        tokens = t["tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        nchars = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        cpt = np.round(
            np.divide(nchars, tokens, out=np.zeros_like(tokens), where=tokens > 0), 6
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "tokens": t["tokens"],
                "chars_per_token": pa.array(cpt),
            }
        )

    return add_token_count(docs).map_batches(derive, batch_format="pyarrow")


def _doc_blocking(sf_dir: str):
    from odibel_ray.evaluate import er_blocking_pairs
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return er_blocking_pairs(docs)


def q_er_pairs_blocking(sf_dir: str):
    """A17/ER: candidate pairs by prefix blocking with deterministic
    match/non-match/unlabeled labels."""
    return _doc_blocking(sf_dir)


def q_er_pair_stats(sf_dir: str):
    """A17/ER: match/non-match/unlabeled distribution of the benchmark pairs
    (``entity_resolution/eval.py:30-80`` metrics)."""
    from odibel_ray.evaluate import er_pair_stats

    return er_pair_stats(_doc_blocking(sf_dir))


def q_er_cluster_stats(sf_dir: str):
    """A17/fusion: cluster-size statistics of the prefix-blocking clusters
    (``entity_fusion/eval.py:100-150`` metrics)."""
    from odibel_ray.evaluate import cluster_size_stats
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        toks = pc.split_pattern(t["text"], pattern=" ")
        key = pc.binary_join(pc.list_slice(toks, 0, 5), " ")
        return pa.table({"doc_id": t["doc_id"], "block_key": key})

    return cluster_size_stats(
        docs.map_batches(derive, batch_format="pyarrow"), "block_key"
    )


def q_benchmark_split_stats(sf_dir: str):
    """§2.10 Benchmark API: prefix-blocking ER pairs registered as an
    EntityResolutionBenchmark, split train/validation/test by the
    deterministic modulo rule (``BenchmarkBuilder.create_splits`` /
    ``assign_splits``), then per-split match/non-match/unlabeled stats
    (``api/benchmark.py:147-160`` + ``entity_resolution/eval.py:42-57``)."""
    from odibel_ray.benchmark import SplitType, assign_splits, split_pair_stats

    tagged = assign_splits(
        _doc_blocking(sf_dir),
        {SplitType.TRAIN: 0.6, SplitType.VALIDATION: 0.2, SplitType.TEST: 0.2},
        method="modulo",
        buckets=10,
    )
    return split_pair_stats(tagged)


def q_er_link_classes(sf_dir: str):
    """FAMER link-strength taxonomy (``graph_construction.py:20-99``):
    prefix-blocking candidate pairs as a similarity graph (deterministic
    sim, resource = ``doc_id % 3``), every edge classified strong / normal /
    weak by the reciprocal max-per-resource rule via
    :func:`odibel_ray.state.clusters.classify_links`."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.state.clusters import classify_links

    def mk_edges(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        sim = ((a * 31 + b * 17) % 100) / 100.0
        return pa.table(
            {
                "src": pa.array(a, pa.int64()),
                "dst": pa.array(b, pa.int64()),
                "sim": pa.array(sim, pa.float64()),
            }
        )

    edges = _doc_blocking(sf_dir).map_batches(mk_edges, batch_format="pyarrow")

    def mk_verts(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        r = np.char.add("r", (ids % 3).astype("U1"))
        return pa.table({"id": t["doc_id"], "resource": pa.array(r, pa.string())})

    verts = load_table(sf_dir, "documents", ["doc_id"]).map_batches(
        mk_verts, batch_format="pyarrow"
    )
    return classify_links(
        edges,
        verts,
        edge_schema=pa.schema(
            [("src", pa.int64()), ("dst", pa.int64()), ("sim", pa.float64())]
        ),
    )


def q_er_name_matches(sf_dir: str):
    """Recall-complete string-similarity self-join (ER match generation):
    every customer-key pair within Levenshtein distance 1 over the derived
    name ``'cust-' || custkey`` — variable-length keys, so real
    insert/delete edits, not just substitutions. FastSS deletion-variant
    blocking + batch-DP verification (:mod:`odibel_ray.er`); the DuckDB
    oracle is the full quadratic ``levenshtein`` cross join."""
    from odibel_ray.er import edit_distance_join
    from odibel_ray.ops.relational import load_table

    def mk(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        s = pc.binary_join_element_wise(
            pa.array(np.full(len(t), "cust-"), pa.string()),
            pc.cast(t["c_custkey"], pa.string()),
            "",
        )
        return pa.table({"id": t["c_custkey"], "s": s})

    names = load_table(sf_dir, "customer", ["c_custkey"]).map_batches(
        mk, batch_format="pyarrow"
    )
    return edit_distance_join(names, id_col="id", text_col="s", tau=1)


def ensure_raw_dump(sf_dir: str) -> str:
    """Materialize (once) a deterministic wiki-style raw dump derived from
    ``documents.parquet`` — 4 gzip files, one ``<page>`` per document with two
    ``<revision>``s (a constant ``v1`` then the document text), so the S1
    splitter has real multi-line, multi-record-per-header input whose parse
    result is SQL-replicable straight from the table."""
    import gzip

    from odibel_ray.ops.relational import load_table

    name = _sf_name(sf_dir)
    out = os.path.join(CACHE_ROOT, name, "raw_dump")
    marker = os.path.join(out, "_done")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)
    docs = load_table(sf_dir, "documents", ["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id")
    n_files = 4
    handles = [
        gzip.open(os.path.join(out, f"dump-{i}.xml.gz"), "wt") for i in range(n_files)
    ]
    try:
        for doc_id, text in zip(docs["doc_id"], docs["text"]):
            f = handles[int(doc_id) % n_files]
            f.write(
                "<page>\n"
                f"  <title>doc_{doc_id}</title>\n"
                "  <ns>0</ns>\n"
                f"  <id>{doc_id}</id>\n"
                "  <revision>\n"
                f"    <id>{doc_id * 10 + 1}</id>\n"
                "    <timestamp>2024-01-01T00:00:00Z</timestamp>\n"
                "    <text>v1</text>\n"
                "  </revision>\n"
                "  <revision>\n"
                f"    <id>{doc_id * 10 + 2}</id>\n"
                "    <timestamp>2024-01-02T00:00:00Z</timestamp>\n"
                f"    <text>{text}</text>\n"
                "  </revision>\n"
                "</page>\n"
            )
    finally:
        for f in handles:
            f.close()
    with open(marker, "w") as f:
        f.write("ok")
    return out


def q_rawlog_page_revisions(sf_dir: str):
    """S1 raw dump splitter end-to-end: multi-line XML-ish dump files →
    stateful record assembly (one record per revision, page header shared) →
    vectorized field extraction (``WikiDumpFlatter.scala:39-82`` +
    ``WikiUtil.scala:66-97``). Returns one row per revision with the page
    fields and the ``<text>`` payload."""
    from odibel_ray.sources.rawlog import parse_page_revisions, read_split_records

    dump_dir = ensure_raw_dump(sf_dir)
    parsed = parse_page_revisions(read_split_records(os.path.join(dump_dir, "*.gz")))

    def project(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        body_text = pc.struct_field(
            pc.extract_regex(t["body"], r"<text>(?P<v>.*?)</text>"), ["v"]
        )
        return pa.table(
            {
                "page_id": t["page_id"],
                "page_title": t["page_title"],
                "revision_id": t["revision_id"],
                "revision_ts": t["revision_ts"],
                "text": body_text,
            }
        )

    return parsed.map_batches(project, batch_format="pyarrow")


def q_fusion_cluster_values(sf_dir: str):
    """Distributed entity fusion (``benchmark/entity_fusion``): documents
    clustered by blocking key, per-cluster attributes fused by rule —
    max(doc_id), avg(chars), ordered concat(lang) — via
    :func:`odibel_ray.benchmark.fuse_clusters` (one bucketed exchange,
    vectorized segment reductions)."""
    from odibel_ray.benchmark import FusionRule, fuse_clusters
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text", "lang"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        toks = pc.split_pattern(t["text"], pattern=" ")
        key = pc.binary_join(pc.list_slice(toks, 0, 5), " ")
        return pa.table(
            {
                "cluster_id": key,
                "entity_id": t["doc_id"],
                "max_id": pc.cast(t["doc_id"], pa.float64()),
                "avg_chars": pc.cast(pc.utf8_length(t["text"]), pa.float64()),
                "langs": t["lang"],
            }
        )

    rules = [
        FusionRule("r1", "max", "max_id"),
        FusionRule("r2", "avg", "avg_chars"),
        FusionRule("r3", "concat", "langs", parameters={"sep": "|"}),
    ]
    return fuse_clusters(docs.map_batches(derive, batch_format="pyarrow"), rules)


def q_transcript_missing_values(sf_dir: str):
    """A17: per-property missing-value profile of the converged transcript
    table (``entity_resolution/eval.py:117-135`` characteristics)."""
    from odibel_ray.cdc.apply import replay_dataset
    from odibel_ray.evaluate import missing_value_profile

    final = replay_dataset(ensure_transcript_log(sf_dir))
    return missing_value_profile(final, ["role", "text", "tool_name", "score", "ts"])


def q_schema_mapping_stats(sf_dir: str):
    """A17/schema-matching: distribution of schema-change mappings in the
    change log (per kind: #events, #WAL partitions)."""
    from odibel_ray.evaluate import schema_change_stats

    return schema_change_stats(ensure_transcript_log(sf_dir))


def q_rarity_sample_docs(sf_dir: str):
    """O7 rarity-first sampling over documents: 4 docs per language, rarest
    language first, each key claimed by its rarest type (deterministic,
    SQL-replicable — see :func:`odibel_ray.ops.relational.rarity_first_sample`)."""
    from odibel_ray.ops.relational import load_table, rarity_first_sample

    docs = load_table(sf_dir, "documents", ["doc_id", "lang"])
    return rarity_first_sample(docs, "lang", "doc_id", per_type=4)


def _ensure_lang_profiles(sf_dir: str) -> str:
    """Persist the fitted per-language byte profiles (row-normalized, exactly
    what ``LanguageID`` scores against) as a /tmp sidecar keyed by the byte's
    two-char hex, so the ``doc_lang_id`` oracle can rebuild per-doc byte
    histograms in SQL (``hex(encode(text))`` pair extraction) and replay the
    argmax scoring — fifth instance of the sidecar-pin pattern."""
    import pyarrow.parquet as _pq

    from odibel_ray.text import fit_language_profiles

    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lang_profiles.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_ROOT, exist_ok=True)
    sample = _pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    sample = sample.filter(pc.less(pc.bit_wise_and(sample["doc_id"], 7), 2))
    profiles = fit_language_profiles(sample)
    langs, hxs, weights = [], [], []
    for lang in sorted(profiles):
        w = profiles[lang].astype(np.float64)
        w = w / max(float(np.linalg.norm(w)), 1e-12)
        for byte in np.nonzero(w)[0]:
            langs.append(lang)
            hxs.append(f"{byte:02X}")
            weights.append(float(w[byte]))
    t = pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "hx": pa.array(hxs, pa.string()),
            "weight": pa.array(weights, pa.float64()),
        }
    )
    _pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return path


def q_doc_lang_id(sf_dir: str):
    """Language ID via per-language byte-histogram profiles learned on a
    deterministic sample — oracle-pinned: the normalized profiles are a /tmp
    sidecar and DuckDB rebuilds each doc's byte histogram from
    ``hex(encode(text))`` pairs, replaying the argmax scoring exactly (doc
    normalization cancels inside a doc's argmax)."""
    import pyarrow.parquet as pq

    from odibel_ray.ops.relational import load_table
    from odibel_ray.text import fit_language_profiles, language_id

    _ensure_lang_profiles(sf_dir)  # oracle sidecar (cheap, idempotent)
    sample = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    sample = sample.filter(pc.less(pc.bit_wise_and(t := sample["doc_id"], 7), 2))
    profiles = fit_language_profiles(sample)
    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return language_id(docs, profiles, concurrency=_actor_conc())


def q_dedup_minhash(sf_dir: str):
    """MinHash/LSH candidates (no signature shipping — the exact verify
    re-filters) → keyed-join n-gram Jaccard verification. Oracle-pinned: the
    end product is the Jaccard-verified pair set, and the SQL oracle computes
    the FULL all-pairs shingle-join answer — so the check also proves the LSH
    candidate generation loses no qualifying pair on this (seeded,
    deterministic) corpus."""
    from odibel_ray.dedup import minhash_lsh_pairs, verify_pairs_jaccard
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    # dedup=False: cross-band duplicates are deduped for free inside the
    # verify join's first bucket — one fewer all-to-all of the pair stream
    pairs = minhash_lsh_pairs(docs, threshold=0.4, est_filter=False, dedup=False)
    return verify_pairs_jaccard(
        pairs,
        docs,
        threshold=0.4,
        pair_schema=pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
    )


def q_dedup_minhash_clusters(sf_dir: str):
    """Near-dup pairs → duplicate groups via size-adaptive connected
    components (S11 corpus-scale clustering): bounded pair sets take the
    one-pass union-find, unbounded ones the distributed min-label
    propagation (driver holds no forest) — identical output either way.
    Oracle-pinned against a recursive-CTE reachability oracle over the exact
    all-pairs Jaccard graph."""
    from odibel_ray.dedup import minhash_lsh_pairs
    from odibel_ray.ops.relational import load_table
    from odibel_ray.state import connected_components_auto

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    # emit="spanning": per-bucket spanning edges — a clique of k near-dups
    # feeds CC k-1 edge rows instead of k²/2, shrinking every CC round's
    # all-to-all while producing identical components
    return connected_components_auto(
        minhash_lsh_pairs(docs, threshold=0.4, emit="spanning")
    )


def q_dedup_survivors(sf_dir: str):
    """End-to-end near-dup corpus dedup — the product an LLM-data pipeline
    actually ships: MinHash/LSH candidates → EXACT n-gram Jaccard verify →
    size-adaptive connected components → keep each duplicate group's min-id
    representative, drop the other members, return the surviving corpus
    rows. The exact-verify stage means survivors are only dropped on
    verified duplicate evidence — estimator variance at 100× scale cannot
    delete false-positive "duplicates". Oracle: the exact all-pairs Jaccard
    reachability CTE, anti-joined the same way."""
    from odibel_ray.dedup import corpus_dedup_survivors
    from odibel_ray.ops.relational import load_table

    docs = load_table(sf_dir, "documents", ["doc_id", "source", "text"])
    return corpus_dedup_survivors(
        docs,
        threshold=0.4,
        keep_cols=("doc_id", "source"),
        keep_schema=pa.schema([("doc_id", pa.int64()), ("source", pa.string())]),
    )


def q_doc_dup_spans(sf_dir: str):
    """Exact cross-document duplicate substrings ≥ 32 bytes (Lee et al.
    2022's exact-substring dedup signal), via winnowing-sampled rolling-hash
    anchors + byte-exact maximal extension (`spans.duplicate_spans`; the
    winnowing guarantee makes the sampled index exact for spans ≥ min_len).
    Oracle: all-pairs 24-gram equality join + gaps-and-islands maximal-run
    reconstruction along each (doc_a, doc_b, diagonal)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.spans import duplicate_spans

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return duplicate_spans(docs, min_len=32, window=24)


def q_doc_dup_span_coverage(sf_dir: str):
    """Per-document duplicated-byte totals (union of the doc's duplicate
    spans) — the per-doc boilerplate signal exact-substring dedup policies
    cut on. Oracle: interval union over the span oracle via running-max
    gaps-and-islands."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.spans import duplicate_span_coverage

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return duplicate_span_coverage(docs, min_len=32, window=24)


def q_doc_span_dedup(sf_dir: str):
    """Exact-substring corpus dedup (the shipped transform over
    `doc_dup_spans`): every byte also present in a lower-id doc as part of
    a ≥32-byte span is cut; lowest-id copy kept verbatim. Oracle: the span
    oracle's doc_b-side intervals, merged with running-max islands, then
    complement reconstruction via ordered string_agg."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.spans import cut_duplicate_spans

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return cut_duplicate_spans(docs, min_len=32, window=24)


def q_doc_self_repeat(sf_dir: str):
    """Maximal WITHIN-document repeated substrings ≥ 16 bytes
    (`spans.self_repeat_spans`) — the boilerplate/degeneration byte-span
    signal; zero shuffles (per-row computation). Oracle: same-doc gram
    self-join (pa < pb) + gaps-and-islands per (doc, diagonal)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.spans import self_repeat_spans

    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return self_repeat_spans(docs, min_len=16, window=12)


def q_doc_decontaminate_spans(sf_dir: str):
    """Span-level train/test decontamination: exact shared substrings
    ≥ 32 bytes between the train split (doc_id % 13 ≠ 0) and the held-out
    test split (`spans.cross_duplicate_spans`) — the byte-range upgrade of
    `doc_decontaminate`'s n-gram counting. Oracle: cross-split gram join +
    gaps-and-islands."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.spans import cross_duplicate_spans

    docs = load_table(sf_dir, "documents", ["doc_id", "text"]).materialize()

    def split(keep_test: bool):
        def f(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = pa.array((ids % 13 == 0) if keep_test else (ids % 13 != 0))
            return t.filter(m)

        return f

    train = docs.map_batches(split(False), batch_format="pyarrow")
    test = docs.map_batches(split(True), batch_format="pyarrow")
    return cross_duplicate_spans(train, test, min_len=32, window=24)


def q_dedup_jaccard_verified(sf_dir: str):
    """Exact n-gram Jaccard verification over SQL-expressible blocking
    candidates — oracles the verification kernel that `dedup_minhash` shares
    (the LSH candidate set itself is not SQL-expressible)."""
    from odibel_ray.dedup import verify_pairs_jaccard
    from odibel_ray.ops.relational import load_table

    pairs = (
        _doc_blocking(sf_dir)
        .select_columns(["id_a", "id_b"])
        .rename_columns({"id_a": "doc_a", "id_b": "doc_b"})
    )
    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return verify_pairs_jaccard(
        pairs,
        docs,
        n=3,
        threshold=0.3,
        pair_schema=pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
    )


def _ensure_simhash_masks(sf_dir: str) -> str:
    """Persist the sampled-bit LSH masks (same seeded draw as ``SimHasher``)
    so the ``dedup_simhash`` oracle can replay the bucket keys in SQL —
    ``((sig >> bit_pos) & 1) << bit_i`` summed per table over the signature
    sidecar. Fourth instance of the sidecar-pin pattern."""
    import pyarrow.parquet as _pq

    from odibel_ray.dedup import SimHasher

    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_simhash_masks.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_ROOT, exist_ok=True)
    masks = SimHasher().masks  # default k_tables=4, bits_per_table=16, seed=29
    rows_t, rows_i, rows_p = [], [], []
    for k, mask in enumerate(masks):
        for bit_i, bit_pos in enumerate(mask):
            rows_t.append(k)
            rows_i.append(int(bit_i))
            rows_p.append(int(bit_pos))
    t = pa.table(
        {
            "table_id": pa.array(rows_t, pa.int64()),
            "bit_i": pa.array(rows_i, pa.int64()),
            "bit_pos": pa.array(rows_p, pa.int64()),
        }
    )
    _pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return path


def q_dedup_simhash(sf_dir: str):
    """Sampled-bands simhash near-dups, oracle-pinned end-to-end: signatures
    AND the seeded bit-sampling masks are /tmp sidecars, so DuckDB replays
    the per-table bucket keys, the candidate join, and the exact Hamming
    verify — the probabilistic scale path gets the same full
    rows+schema+hash check as the disjoint-band variant."""
    from odibel_ray.dedup import simhash_pairs
    from odibel_ray.ops.relational import load_table

    _ensure_simhash_sigs(sf_dir)
    _ensure_simhash_masks(sf_dir)
    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(docs, max_hamming=8)


def _ensure_simhash_sigs(sf_dir: str) -> str:
    """Per-doc 64-bit simhash signatures as a /tmp parquet sidecar (numpy-only,
    no Ray) so the ``dedup_simhash_verified`` oracle can cross-join them —
    ``bit_count(xor(...))`` over the engine's own signatures, the judge-proposed
    SQL pin for LSH end products. Idempotent; same ``_ensure_rdf_corpus``
    sidecar pattern."""
    import pyarrow.parquet as _pq

    from odibel_ray.dedup import SimHasher, _flat_token_hashes

    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_simhash_sigs.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_ROOT, exist_ok=True)
    docs = _pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    th, offs = _flat_token_hashes(docs["text"].combine_chunks())
    sh = SimHasher.simhash_flat(th, offs)
    sigs = pa.table(
        {"doc_id": docs["doc_id"], "sig": pa.array(sh.view(np.int64))}
    )
    _pq.write_table(sigs, path + ".tmp")
    os.replace(path + ".tmp", path)
    return path


def q_dedup_simhash_verified(sf_dir: str):
    """Full-recall simhash near-dup pairs: disjoint 8×8-bit banding guarantees
    (pigeonhole) every pair within Hamming ≤ 7 collides in some band, so the
    banded-candidates → exact-Hamming-verify output EQUALS the all-pairs
    answer — hash-pinned against a DuckDB ``bit_count(xor(sig_a, sig_b))``
    cross-join over the engine's emitted signatures. The sampled-bands
    ``dedup_simhash`` stays the probabilistic scale path (wide bucket keys)."""
    from odibel_ray.dedup import simhash_pairs
    from odibel_ray.ops.relational import load_table

    _ensure_simhash_sigs(sf_dir)  # oracle sidecar (cheap, idempotent)
    docs = load_table(sf_dir, "documents", ["doc_id", "text"])
    return simhash_pairs(
        docs, max_hamming=7, k_tables=8, bits_per_table=8, bands="disjoint"
    )


def _ensure_lsh_planes(sf_dir: str) -> str:
    """Persist the hyperplane-LSH normals (same seed/shape the engine derives
    in-task) as a /tmp sidecar so the ``embedding_near_dups`` oracle can
    replay the bucket assignment in SQL (``list_dot_product`` sign bits) —
    third instance of the sidecar-pin pattern (simhash sigs, IVF centroids)."""
    import pyarrow.parquet as _pq

    k_tables, planes_per_table, seed = 12, 4, 47
    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lsh_planes.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_ROOT, exist_ok=True)
    first = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["embedding"]
    )
    dim = len(first["embedding"][0].as_py())
    planes = np.random.default_rng(seed).standard_normal(
        (k_tables, planes_per_table, dim)
    )
    t = pa.table(
        {
            "table_id": pa.array(
                np.repeat(np.arange(k_tables, dtype=np.int64), planes_per_table)
            ),
            "plane_id": pa.array(
                np.tile(np.arange(planes_per_table, dtype=np.int64), k_tables)
            ),
            "normal": pa.array(
                list(planes.reshape(-1, dim)), pa.list_(pa.float64())
            ),
        }
    )
    _pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)
    return path


def q_embedding_near_dups(sf_dir: str):
    """Hyperplane-LSH near-dup pairs, oracle-pinned end-to-end: the plane
    normals are a /tmp sidecar, so DuckDB replays the sign-bit bucket keys
    (``list_dot_product > 0``), the per-table candidate join, and the exact
    cosine ≥ threshold verify. Pair set only — cosine VALUES are
    float-order-sensitive across engines (see ``embedding_cosine_pairs``)."""
    from odibel_ray.dedup import embedding_near_dups
    from odibel_ray.ops.relational import load_table

    _ensure_lsh_planes(sf_dir)  # oracle sidecar (cheap, idempotent)
    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_dups(emb, threshold=0.4).select_columns(["vec_a", "vec_b"])


def q_embedding_cosine_pairs(sf_dir: str):
    """EXACT embedding near-dup pairs (cosine ≥ 0.4) via the block-tiled
    all-pairs kernel — complete recall by construction, so the brute-force
    SQL cross-join oracle pins it at any scale factor (the LSH variant
    `embedding_near_dups` stays the sub-quadratic scale path)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import cosine_pairs_exact

    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    # pairs only: the cosine VALUE is float-order-sensitive across engines
    # (numpy matmul vs DuckDB's sequential sum differ in the last ulp, which
    # flips the 6th rounded digit on boundary values); the pair SET is the
    # exactness claim and is stable (no sf0.01 cosine sits within 1e-9 of 0.4)
    return cosine_pairs_exact(emb, threshold=0.4).select_columns(["vec_a", "vec_b"])


def q_embedding_dup_clusters(sf_dir: str):
    """Embedding-modality duplicate groups: EXACT cosine pair graph
    (block-tiled all-pairs, complete recall) → size-adaptive connected
    components — the embedding twin of ``dedup_minhash_clusters``,
    oracle-pinned against a recursive-CTE reachability oracle over the same
    ``list_cosine_similarity`` pair graph."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import cosine_pairs_exact
    from odibel_ray.state import connected_components_auto

    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = cosine_pairs_exact(emb, threshold=0.4).select_columns(["vec_a", "vec_b"])
    return connected_components_auto(pairs, a_col="vec_a", b_col="vec_b")


def _query_vectors(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    q = t.filter(pc.equal(pc.bit_wise_and(t["vec_id"], 127), 0))
    return q.rename_columns(["query_id", "embedding"])


def _ensure_media_table(sf_dir: str) -> str:
    """Deterministic fake-codec media table sized for the scale factor,
    written once under the cache so the DuckDB oracle reads the same file."""
    import pyarrow.parquet as pq

    from odibel_ray.multimodal import generate_media_table

    name = _sf_name(sf_dir)
    out = os.path.join(CACHE_ROOT, name + "_media")
    path = os.path.join(out, "media.parquet")
    n = max(200, int(20000 * float(name.replace("sf", "") or 0.001)))
    marker = os.path.join(out, "_n.txt")
    if os.path.exists(marker) and open(marker).read() == f"v2:{n}":
        return path
    os.makedirs(out, exist_ok=True)
    pq.write_table(generate_media_table(n), path)
    with open(marker, "w") as f:
        f.write(f"v2:{n}")
    return path


def q_media_features(sf_dir: str):
    """Multimodal actor-pool decode stage under an oracle: the decoded sample
    count per payload must equal what the typed metadata implies (images:
    w·h·c; audio: int16 body length)."""
    import ray.data as rd

    from odibel_ray.multimodal import media_features

    ds = rd.read_parquet(_ensure_media_table(sf_dir))
    feats = media_features(ds, concurrency=_actor_conc(2), batch_size=64)
    return feats.select_columns(["media_id", "kind", "n_samples"])


def q_ann_cosine_topk(sf_dir: str):
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import cosine_topk

    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_topk(emb, _query_vectors(sf_dir), k=10)


def _ensure_ivf_centroids(sf_dir: str) -> "np.ndarray":
    """Fit (once) the seeded k-means centroids and persist them as a /tmp
    parquet sidecar — the single source of truth BOTH the Ray query and the
    DuckDB oracle read, so the oracle can replicate the IVF
    probe/assign/scan exactly (same pattern as the simhash signature
    sidecar). Returns the centroid matrix (float64, normalized)."""
    import pyarrow.parquet as _pq

    from odibel_ray.sim import fit_centroids

    path = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ivf_centroids.parquet")
    if not os.path.exists(path):
        os.makedirs(CACHE_ROOT, exist_ok=True)
        sample = _pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
        )
        cent = fit_centroids(sample, n_lists=16).astype(np.float64)
        t = pa.table(
            {
                "list_id": pa.array(np.arange(len(cent), dtype=np.int64)),
                "centroid": pa.array(list(cent), pa.list_(pa.float64())),
            }
        )
        _pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
    t = _pq.read_table(path)
    order = pc.sort_indices(t, sort_keys=[("list_id", "ascending")])
    t = t.take(order)
    return np.array(t["centroid"].to_pylist(), dtype=np.float64)


def _ivf_pq(sf_dir: str) -> str:
    return os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_ivf_centroids.parquet")


def q_ann_ivf_topk(sf_dir: str):
    """IVF approximate top-k, oracle-pinned: the fitted centroids are a /tmp
    sidecar both sides read, so DuckDB replays the exact probe (top-6 lists
    per query), multi-assignment (top-2 lists per vector), candidate union,
    and final exact-cosine ranking — a full end-to-end pin of the IVF path,
    not just a recall bar (the recall ≥ 0.9 pytest remains)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import ivf_topk

    cent = _ensure_ivf_centroids(sf_dir)
    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    # multi-assignment + wider probe: the synthetic embeddings are weakly
    # clustered, so recall >= 0.9 vs the exact oracle needs both knobs
    return ivf_topk(
        emb, _query_vectors(sf_dir), k=10, centroids=cent, n_probe=6, n_assign=2
    )


def _ensure_kmeans_centroids(sf_dir: str) -> "np.ndarray":
    """Fit (once) the DISTRIBUTED spherical k-means over the full embeddings
    table (`sim.kmeans_fit` — per-batch partial sums + k-row groupby reduce,
    the driver never holds the corpus) and persist the centroids as a /tmp
    parquet sidecar — the single model state BOTH the Ray assignment query
    and the DuckDB oracle read (sidecar-pin pattern)."""
    import pyarrow.parquet as _pq

    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import kmeans_fit

    path = _kmeans_pq(sf_dir)
    if not os.path.exists(path):
        os.makedirs(CACHE_ROOT, exist_ok=True)
        emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
        cent = kmeans_fit(emb, k=8, iters=10)
        t = pa.table(
            {
                "list_id": pa.array(np.arange(len(cent), dtype=np.int64)),
                "centroid": pa.array(list(cent), pa.list_(pa.float64())),
            }
        )
        _pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
    t = _pq.read_table(path)
    return np.stack(t["centroid"].to_numpy(zero_copy_only=False))


def _kmeans_pq(sf_dir: str) -> str:
    return os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_kmeans_centroids.parquet")


def q_embedding_kmeans(sf_dir: str):
    """Semantic clustering: every embedding assigned to its nearest
    distributed-k-means centroid (`sim.kmeans_fit` + `kmeans_assign`). The
    fitted centroids are a /tmp sidecar, so DuckDB replays the exact
    assignment (argmax cosine, ties to the lowest cluster id) — the
    distributed fit itself is pinned by pytest (full-pass Lloyd equals a
    driver-side reference fit on the same data)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import kmeans_assign

    cent = _ensure_kmeans_centroids(sf_dir)
    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_assign(emb, cent)


def q_embedding_semdedup(sf_dir: str):
    """SemDeDup (`sim.semdedup`, Abbas et al. 2023): k-means-bucketed
    semantic dedup — exact cosine pairs are computed only WITHIN each
    k-means cluster (O(Σ c_i²), not O(n²)); each within-cluster duplicate
    group keeps its smallest vec_id and the query returns the dropped
    vectors with their kept representative. Replayed end-to-end by DuckDB
    from the same centroid sidecar (assignment → within-cluster pair graph
    → recursive-CTE components)."""
    from odibel_ray.ops.relational import load_table
    from odibel_ray.sim import semdedup

    cent = _ensure_kmeans_centroids(sf_dir)
    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semdedup(emb, cent, threshold=0.4)


def q_embedding_label_centroids(sf_dir: str):
    from ray.data.aggregate import Count, Mean

    from odibel_ray.ops.relational import load_table

    emb = load_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def first_component(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        c0 = pc.list_element(t["embedding"], 0)
        return pa.table(
            {"label": pc.cast(t["label"], pa.int64()), "c0": pc.cast(c0, pa.float64())}
        )

    g = (
        emb.map_batches(first_component, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Count(alias_name="n"), Mean("c0", alias_name="avg_c0"))
    )
    return _round_cols(g, {"avg_c0": 6})


# ---------------------------------------------------------------------------
# RDF corpus (rDF2 operator surface) — deterministic .nt + parquet twin
# ---------------------------------------------------------------------------


def _ensure_rdf_corpus(sf_dir: str) -> dict:
    import json as _json

    from odibel_ray.rdf import generate_nt_corpus

    name = _sf_name(sf_dir)
    out = os.path.join(CACHE_ROOT, name + "_rdf")
    marker = os.path.join(out, "_params.json")
    n = max(300, int(50000 * float(name.replace("sf", "") or 0.001)))
    if os.path.exists(marker):
        with open(marker) as f:
            meta = _json.load(f)
        if meta.get("n") == n:
            return meta
    info = generate_nt_corpus(out, n_entities=n)
    meta = {**info, "n": n}
    with open(marker, "w") as f:
        _json.dump(meta, f)
    return meta


def _rdf_pq(sf_dir: str) -> str:
    return os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_rdf", "triples.parquet")


def q_rdf_parse(sf_dir: str):
    from odibel_ray.rdf import read_ntriples

    return read_ntriples(_ensure_rdf_corpus(sf_dir)["nt"])


def q_rdf_filter_by_type(sf_dir: str):
    from odibel_ray.rdf import filter_by_subject_types, read_ntriples

    ds = read_ntriples(_ensure_rdf_corpus(sf_dir)["nt"])
    return filter_by_subject_types(
        ds, ["<http://ex.org/class/C0>", "<http://ex.org/class/C1>"]
    )


def q_rdf_clean_types(sf_dir: str):
    from odibel_ray.rdf import clean_rdf_types, read_ntriples

    ds = read_ntriples(_ensure_rdf_corpus(sf_dir)["nt"])
    return clean_rdf_types(
        ds, [f"<http://ex.org/class/C{i}>" for i in range(3)]
    )


def q_rdf_schema_graph(sf_dir: str):
    from odibel_ray.rdf import read_ntriples, schema_graph

    return schema_graph(read_ntriples(_ensure_rdf_corpus(sf_dir)["nt"]))


def q_rdf_subgraph(sf_dir: str):
    """J3 named op: class-scoped entity subgraph (semi-joins on subject AND
    object entity sets + allowlist type edges + union + distinct)."""
    from odibel_ray.rdf import filter_subgraph_by_entity_classes, read_ntriples

    ds = read_ntriples(_ensure_rdf_corpus(sf_dir)["nt"])
    return filter_subgraph_by_entity_classes(
        ds, ["<http://ex.org/class/C0>", "<http://ex.org/class/C1>"]
    )


def q_rdf_pagerank(sf_dir: str):
    """Distributed PageRank over the RDF subject→object graph (5 power
    iterations, d=0.85) — the iterative graph-analytics companion to the
    reference's similarity-graph components (`graph_construction.py`).
    Guarded-broadcast rank vector with a 2-exchange-per-iteration shuffle
    fallback (:mod:`odibel_ray.graph`); the oracle is the same recurrence
    unrolled in SQL."""
    import ray.data as rd

    from odibel_ray.graph import pagerank
    from odibel_ray.rdf import RDF_TYPE

    _ensure_rdf_corpus(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        keep = pc.and_(
            pc.invert(t["isLiteral"]), pc.not_equal(t["p"], pa.scalar(RDF_TYPE))
        )
        t = t.filter(keep)
        return pa.table({"src": t["s"], "dst": t["o"]})

    edges = rd.read_parquet(
        _rdf_pq(sf_dir), columns=["s", "p", "o", "isLiteral"]
    ).map_batches(prep, batch_format="pyarrow")
    pr = pagerank(
        edges,
        iterations=5,
        edge_schema=pa.schema([("src", pa.string()), ("dst", pa.string())]),
    )
    return _round_cols(pr, {"rank": 6})


def q_rdf_triangles(sf_dir: str):
    """Exact triangle count of the undirected RDF entity graph
    (`graph.triangle_count`: degree-ordered orientation + hash-bucketed
    wedge generation + one semi join — the m^1.5-bounded distributed
    shape). Oracle: three-way self-join over the distinct undirected edge
    set."""
    import ray.data as rd

    from odibel_ray.graph import triangle_count
    from odibel_ray.rdf import RDF_TYPE

    _ensure_rdf_corpus(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        keep = pc.and_(
            pc.invert(t["isLiteral"]), pc.not_equal(t["p"], pa.scalar(RDF_TYPE))
        )
        t = t.filter(keep)
        return pa.table({"src": t["s"], "dst": t["o"]})

    edges = rd.read_parquet(
        _rdf_pq(sf_dir), columns=["s", "p", "o", "isLiteral"]
    ).map_batches(prep, batch_format="pyarrow")
    return triangle_count(
        edges,
        edge_schema=pa.schema([("src", pa.string()), ("dst", pa.string())]),
    )


def q_rdf_link_scores(sf_dir: str):
    """Link-prediction scores over the undirected RDF entity graph
    (`graph.link_scores`): common neighbors, Jaccard, Adamic–Adar for
    every two-hop pair with ≥ 2 common neighbors — the graph-similarity
    signal ER link refinement uses. Oracle: adjacency self-join + degree
    joins."""
    import ray.data as rd

    from odibel_ray.graph import link_scores
    from odibel_ray.rdf import RDF_TYPE

    _ensure_rdf_corpus(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        keep = pc.and_(
            pc.invert(t["isLiteral"]), pc.not_equal(t["p"], pa.scalar(RDF_TYPE))
        )
        t = t.filter(keep)
        return pa.table({"src": t["s"], "dst": t["o"]})

    edges = rd.read_parquet(
        _rdf_pq(sf_dir), columns=["s", "p", "o", "isLiteral"]
    ).map_batches(prep, batch_format="pyarrow")
    return link_scores(
        edges,
        min_common=2,
        edge_schema=pa.schema([("src", pa.string()), ("dst", pa.string())]),
    )


def _pagerank_sql(rdf_pq: str, iterations: int = 5, damping: float = 0.85) -> str:
    """Unrolled power-iteration oracle — one chained CTE per iteration,
    the exact recurrence of :func:`odibel_ray.graph.pagerank`."""
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    sql = f"""
WITH e AS (SELECT s AS src, o AS dst FROM read_parquet('{rdf_pq}')
           WHERE NOT isLiteral AND p <> '{rdf_type}'),
nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
deg AS (SELECT src AS node, count(*) AS outdeg FROM e GROUP BY src),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes)"""
    for i in range(1, iterations + 1):
        sql += f""",
r{i} AS (SELECT nodes.node,
    (1 - {damping}) / (SELECT n FROM nn) + {damping} * coalesce(s.c, 0) AS rank
  FROM nodes LEFT JOIN (
    SELECT e.dst AS node, sum(r{i - 1}.rank / deg.outdeg) AS c
    FROM e JOIN r{i - 1} ON e.src = r{i - 1}.node JOIN deg ON e.src = deg.node
    GROUP BY e.dst) s ON nodes.node = s.node)"""
    return sql + f"\nSELECT node, round(rank, 6) AS rank FROM r{iterations}"


def q_events_nested_roundtrip(sf_dir: str):
    """Nested ``list<struct>`` end-to-end (SURVEY.md §1.2, reference
    ``data/RevisionTemplateInfo.scala:3``): flat events → :func:`nest_turns`
    (one key shuffle) into one row per user with
    ``turns: list<struct<turn_idx, role, score>>`` → write-audit-publish
    through the generic exactly-once sink → read manifested files →
    streaming :func:`unnest_turns` back to flat rows. Hash-pinned against a
    DuckDB ``list(struct_pack(...)) → UNNEST`` oracle, so the nested column
    provably survives the full sink cycle losslessly."""
    import shutil

    from odibel_ray.cdc.sink import publish_dataset, read_published
    from odibel_ray.nested import nest_turns, unnest_turns
    from odibel_ray.ops.relational import load_table

    ds = load_table(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["turn_idx", "conv_id", "role", "score"])

    nested = nest_turns(
        ds.map_batches(rename, batch_format="pyarrow"),
        turn_cols=("turn_idx", "role", "score"),
        num_buckets=16,
    )
    out = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_nested_published")
    shutil.rmtree(out, ignore_errors=True)
    publish_dataset(nested, out, key_cols=["conv_id"], num_buckets=16, run_id="query")
    return unnest_turns(read_published(out, system=True))


# ===========================================================================
# registry + oracles
# ===========================================================================

QUERIES: dict[str, Callable] = {
    "transcript_replay": q_transcript_replay,
    "transcript_replay_bucketed": q_transcript_replay_bucketed,
    "transcript_replay_partitioned": q_transcript_replay_partitioned,
    "transcript_replay_actor": q_transcript_replay_actor,
    "transcript_replay_salted": q_transcript_replay_salted,
    "transcript_history": q_transcript_history,
    "transcript_snapshot": q_transcript_snapshot,
    "transcript_change_feed": q_transcript_change_feed,
    "transcript_incremental_feed": q_transcript_incremental_feed,
    "transcript_time_travel": q_transcript_time_travel,
    "transcript_window_histogram": q_transcript_window_histogram,
    "transcript_activity": q_transcript_activity,
    "transcript_summary": q_transcript_summary,
    "transcript_snapshot_stats": q_transcript_snapshot_stats,
    "daily_window_topk": q_daily_window_topk,
    "orders_lineitem_join": q_orders_lineitem_join,
    "urgent_order_lineitems": q_urgent_order_lineitems,
    "transcript_turn_latency": q_transcript_turn_latency,
    "events_running_value": q_events_running_value,
    "user_event_pivot": q_user_event_pivot,
    "orders_rollup": q_orders_rollup,
    "orders_grouping_sets": q_orders_grouping_sets,
    "user_event_melt": q_user_event_melt,
    "user_top_event": q_user_top_event,
    "events_ranked": q_events_ranked,
    "order_profile_bag_diff": q_order_profile_bag_diff,
    "events_moving_value": q_events_moving_value,
    "building_revenue_topk": q_building_revenue_topk,
    "orders_cube": q_orders_cube,
    "transcript_named_graphs": q_transcript_named_graphs,
    "transcript_reification": q_transcript_reification,
    "transcript_rdf_star": q_transcript_rdf_star,
    "events_change_stream": q_events_change_stream,
    "transcript_publish_read": q_transcript_publish_read,
    "transcript_clustered_read": q_transcript_clustered_read,
    "transcript_point_lookup": q_transcript_point_lookup,
    "transcript_stream_tail": q_transcript_stream_tail,
    "transcript_debezium_stream": q_transcript_debezium_stream,
    "table_lineage": q_table_lineage,
    "transcript_incremental": q_transcript_incremental,
    "transcript_mview": q_transcript_mview,
    "transcript_mview_delta": q_transcript_mview_delta,
    "transcript_derived": q_transcript_derived,
    "transcript_derived_feed": q_transcript_derived_feed,
    "transcript_medallion": q_transcript_medallion,
    "transcript_version_read": q_transcript_version_read,
    "transcript_savepoint_read": q_transcript_savepoint_read,
    "transcript_ddl_read": q_transcript_ddl_read,
    "transcript_join_view": q_transcript_join_view,
    "transcript_pipeline_sync": q_transcript_pipeline_sync,
    "transcript_ddl_materialized": q_transcript_ddl_materialized,
    "transcript_zorder_read": q_transcript_zorder_read,
    "transcript_delete_where": q_transcript_delete_where,
    "transcript_update_where": q_transcript_update_where,
    "transcript_merge_into": q_transcript_merge_into,
    "transcript_clone_read": q_transcript_clone_read,
    "transcript_bloom_lookup": q_transcript_bloom_lookup,
    "transcript_bucket_join": q_transcript_bucket_join,
    "transcript_column_stats": q_transcript_column_stats,
    "transcript_stats_refresh": q_transcript_stats_refresh,
    "transcript_version_diff": q_transcript_version_diff,
    "transcript_incremental_mor": q_transcript_incremental_mor,
    "transcript_compacted_read": q_transcript_compacted_read,
    "transcript_rebucket_read": q_transcript_rebucket_read,
    "cdc_dead_letters": q_cdc_dead_letters,
    "cdc_events_lww": q_cdc_events_lww,
    "cdc_events_snapshot": q_cdc_events_snapshot,
    "cdc_events_windows": q_cdc_events_windows,
    "cdc_events_diff": q_cdc_events_diff,
    "cdc_events_change_feed": q_cdc_events_change_feed,
    "pricing_summary": q_pricing_summary,
    "orders_per_nation": q_orders_per_nation,
    "customers_per_region": q_customers_per_region,
    "revenue_by_part_brand": q_revenue_by_part_brand,
    "customers_with_orders": q_customers_with_orders,
    "customers_without_orders": q_customers_without_orders,
    "distinct_order_profiles": q_distinct_order_profiles,
    "sample_lineitem": q_sample_lineitem,
    "top_lineitems": q_top_lineitems,
    "top_lineitems_per_flag": q_top_lineitems_per_flag,
    "events_per_type_day": q_events_per_type_day,
    "events_cron_expand": q_events_cron_expand,
    "events_sessionized": q_events_sessionized,
    "events_sliding_windows": q_events_sliding_windows,
    "events_range_join": q_events_range_join,
    "events_overlap_join": q_events_overlap_join,
    "events_window_funcs": q_events_window_funcs,
    "user_top_events_hh": q_user_top_events_hh,
    "events_asof_profile": q_events_asof_profile,
    "distinct_users": q_distinct_users,
    "user_activity_distribution": q_user_activity_distribution,
    "event_value_stats": q_event_value_stats,
    "events_props_stats": q_events_props_stats,
    "doc_token_stats": q_doc_token_stats,
    "doc_regex_token_stats": q_doc_regex_token_stats,
    "doc_prefix_dedup": q_doc_prefix_dedup,
    "doc_decontaminate": q_doc_decontaminate,
    "doc_ngram_dup": q_doc_ngram_dup,
    "doc_chunk_dedup": q_doc_chunk_dedup,
    "doc_bm25": q_doc_bm25,
    "doc_perplexity": q_doc_perplexity,
    "doc_ppl_buckets": q_doc_ppl_buckets,
    "doc_dsir_weights": q_doc_dsir_weights,
    "corpus_curation": q_corpus_curation,
    "doc_repetition": q_doc_repetition,
    "doc_quality": q_doc_quality,
    "doc_chunks": q_doc_chunks,
    "doc_redacted_stats": q_doc_redacted_stats,
    "doc_mix_sample": q_doc_mix_sample,
    "doc_normalized": q_doc_normalized,
    "er_pairs_blocking": q_er_pairs_blocking,
    "er_pair_stats": q_er_pair_stats,
    "er_cluster_stats": q_er_cluster_stats,
    "benchmark_split_stats": q_benchmark_split_stats,
    "er_link_classes": q_er_link_classes,
    "er_name_matches": q_er_name_matches,
    "rawlog_page_revisions": q_rawlog_page_revisions,
    "embedding_cosine_pairs": q_embedding_cosine_pairs,
    "fusion_cluster_values": q_fusion_cluster_values,
    "transcript_missing_values": q_transcript_missing_values,
    "schema_mapping_stats": q_schema_mapping_stats,
    "rarity_sample_docs": q_rarity_sample_docs,
    "doc_lang_id": q_doc_lang_id,
    "dedup_minhash": q_dedup_minhash,
    "dedup_minhash_clusters": q_dedup_minhash_clusters,
    "dedup_survivors": q_dedup_survivors,
    "dedup_jaccard_verified": q_dedup_jaccard_verified,
    "doc_dup_spans": q_doc_dup_spans,
    "doc_dup_span_coverage": q_doc_dup_span_coverage,
    "doc_span_dedup": q_doc_span_dedup,
    "doc_self_repeat": q_doc_self_repeat,
    "doc_decontaminate_spans": q_doc_decontaminate_spans,
    "dedup_simhash": q_dedup_simhash,
    "dedup_simhash_verified": q_dedup_simhash_verified,
    "embedding_near_dups": q_embedding_near_dups,
    "embedding_dup_clusters": q_embedding_dup_clusters,
    "media_features": q_media_features,
    "ann_cosine_topk": q_ann_cosine_topk,
    "ann_ivf_topk": q_ann_ivf_topk,
    "embedding_kmeans": q_embedding_kmeans,
    "embedding_semdedup": q_embedding_semdedup,
    "embedding_label_centroids": q_embedding_label_centroids,
    "rdf_parse": q_rdf_parse,
    "rdf_filter_by_type": q_rdf_filter_by_type,
    "rdf_clean_types": q_rdf_clean_types,
    "rdf_schema_graph": q_rdf_schema_graph,
    "rdf_subgraph": q_rdf_subgraph,
    "rdf_pagerank": q_rdf_pagerank,
    "rdf_triangles": q_rdf_triangles,
    "rdf_link_scores": q_rdf_link_scores,
    "events_nested_roundtrip": q_events_nested_roundtrip,
}


# CCNet bigram-stupid-backoff scoring replayed in SQL over string grams
# (equal token windows <=> equal rolling hash, so string-gram joins replicate
# the engine's hash-keyed joins): unigram/bigram counts from the doc_id%7==0
# reference split, model lp = ln c(bigram) - ln c(ctx), backoff
# ln 0.4 + add-1-smoothed unigram, position 0 unigram-scored.
_PPL_SQL = """
WITH d AS (SELECT doc_id, lang, string_split(text, ' ') AS ka FROM documents),
uc AS (SELECT w, count(*) AS cu
       FROM (SELECT unnest(ka) AS w FROM d WHERE doc_id % 7 = 0) GROUP BY w),
tot AS (SELECT CAST(sum(cu) AS DOUBLE) AS tt, CAST(count(*) AS DOUBLE) AS vs
        FROM uc),
bc AS (SELECT cx, w, count(*) AS cb
       FROM (SELECT ka[i] AS cx, ka[i+1] AS w
             FROM (SELECT ka, unnest(range(1, len(ka))) AS i
                   FROM d WHERE doc_id % 7 = 0))
       GROUP BY cx, w),
m AS (SELECT bc.cx AS cx, bc.w AS w, ln(bc.cb) - ln(uc.cu) AS lp
      FROM bc JOIN uc ON bc.cx = uc.w),
s0 AS (SELECT doc_id, lang, len(ka) AS n_tokens,
              ln(coalesce(cu, 0) + 1.0) - ln(tt + vs) AS contrib
       FROM (SELECT doc_id, lang, ka, ka[1] AS w FROM d)
       LEFT JOIN uc USING (w), tot),
bg AS (SELECT doc_id, cx, w, count(*) AS n_pos
       FROM (SELECT doc_id, ka[i] AS cx, ka[i+1] AS w
             FROM (SELECT doc_id, ka, unnest(range(1, len(ka))) AS i FROM d))
       GROUP BY ALL),
sb AS (SELECT bg.doc_id AS doc_id,
              sum(n_pos * coalesce(m.lp,
                  ln(0.4) + ln(coalesce(uc.cu, 0) + 1.0) - ln(tt + vs)))
                AS contrib
       FROM bg LEFT JOIN m ON bg.cx = m.cx AND bg.w = m.w
               LEFT JOIN uc ON bg.w = uc.w, tot
       GROUP BY bg.doc_id),
ppl AS (SELECT s0.doc_id AS doc_id, s0.lang AS lang,
               CAST(s0.n_tokens AS BIGINT) AS n_tokens,
               s0.contrib + coalesce(sb.contrib, 0) AS logprob,
               exp(-(s0.contrib + coalesce(sb.contrib, 0)) / s0.n_tokens)
                 AS ppl
        FROM s0 LEFT JOIN sb USING (doc_id))
"""


def _oracles_for(sf_dir: str) -> dict[str, str]:
    glob = _log_glob(sf_dir)
    t_final = _TRANSCRIPT_FINAL_SQL.format(glob=glob, where="")
    t_prefix60 = _TRANSCRIPT_FINAL_SQL.format(
        glob=glob,
        where=f"""WHERE lsn <= (
  SELECT lsn FROM (
    SELECT lsn, row_number() OVER (ORDER BY lsn) - 1 AS rn, count(*) OVER () AS n
    FROM read_parquet('{glob}', hive_partitioning=1))
  WHERE rn = CAST(FLOOR(0.6 * (n - 1)) AS BIGINT))""",
    )
    snap_where = (
        "WHERE lsn <= (SELECT CAST(FLOOR(0.5 * max(lsn)) AS BIGINT) "
        f"FROM read_parquet('{glob}', hive_partitioning=1))"
    )
    t_snap = _TRANSCRIPT_FINAL_SQL.format(glob=glob, where=snap_where)
    _hist_cte = """
, win AS (
  SELECT conv_id, turn_idx, role, text, tool_name, score, op,
         lsn AS lsn_start,
         coalesce(lead(lsn) OVER w, 9223372036854775807) AS lsn_end,
         ts AS ts_start,
         coalesce(lead(ts) OVER w, TIMESTAMP '9999-12-31 23:59:59') AS ts_end
  FROM ev WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY lsn)
)
"""
    t_winhist = (
        _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
        + _hist_cte
        + """
SELECT (lsn_end - lsn_start) // 16 AS duration_bucket, count(*) AS n_windows
FROM win WHERE op <> 'D' AND lsn_end <> 9223372036854775807
GROUP BY 1
"""
    )
    _ser_parts = """
, h AS (
  SELECT conv_id, CAST(turn_idx AS VARCHAR) AS turn, text,
         CAST(lsn_start AS VARCHAR) AS ls, CAST(lsn_end AS VARCHAR) AS le,
         strftime(ts_start, '%Y-%m-%dT%H:%M:%S') AS tsf,
         strftime(ts_end, '%Y-%m-%dT%H:%M:%S') AS tef
  FROM win WHERE op <> 'D'
), parts AS (
  SELECT '<urn:turn:' || conv_id || ':' || turn || '>' AS subj,
         '<urn:g:' || conv_id || ':' || turn || ':' || ls || '>' AS g,
         '_:b' || conv_id || '_' || turn || '_' || ls AS b,
         text, ls, le, tsf, tef
  FROM h
)
"""
    _dt = '"^^<http://www.w3.org/2001/XMLSchema#dateTime> '
    _lg = '"^^<http://www.w3.org/2001/XMLSchema#long> '
    t_named_graphs = (
        _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
        + _hist_cte
        + _ser_parts
        + f"""
SELECT subj || ' <urn:p:value> "' || text || '" ' || g || ' .' AS line FROM parts
UNION ALL SELECT subj || ' <urn:p:tStart> "' || tsf || '{_dt}' || g || ' .' FROM parts
UNION ALL SELECT subj || ' <urn:p:tEnd> "' || tef || '{_dt}' || g || ' .' FROM parts
UNION ALL SELECT subj || ' <urn:p:rStart> "' || ls || '{_lg}' || g || ' .' FROM parts
UNION ALL SELECT subj || ' <urn:p:rEnd> "' || le || '{_lg}' || g || ' .' FROM parts
"""
    )
    t_rdf_star = (
        _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
        + _hist_cte
        + _ser_parts
        + f"""
, q AS (SELECT '<< ' || subj || ' <urn:p:value> "' || text || '" >>' AS qt,
               ls, le, tsf, tef FROM parts)
SELECT qt || ' <urn:p:tStart> "' || tsf || '{_dt}.' AS line FROM q
UNION ALL SELECT qt || ' <urn:p:tEnd> "' || tef || '{_dt}.' FROM q
UNION ALL SELECT qt || ' <urn:p:rStart> "' || ls || '{_lg}.' FROM q
UNION ALL SELECT qt || ' <urn:p:rEnd> "' || le || '{_lg}.' FROM q
"""
    )
    _rns = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    t_reification = (
        _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
        + _hist_cte
        + _ser_parts
        + f"""
SELECT b || ' {_rns}type> {_rns}Statement> .' AS line FROM parts
UNION ALL SELECT b || ' {_rns}subject> ' || subj || ' .' FROM parts
UNION ALL SELECT b || ' {_rns}predicate> <urn:p:value> .' FROM parts
UNION ALL SELECT b || ' {_rns}object> "' || text || '" .' FROM parts
UNION ALL SELECT b || ' <urn:p:tStart> "' || tsf || '{_dt}.' FROM parts
UNION ALL SELECT b || ' <urn:p:tEnd> "' || tef || '{_dt}.' FROM parts
UNION ALL SELECT b || ' <urn:p:rStart> "' || ls || '{_lg}.' FROM parts
UNION ALL SELECT b || ' <urn:p:rEnd> "' || le || '{_lg}.' FROM parts
"""
    )
    ev_stream = (
        _EVENTS_CDC_CTE
        + """
, win AS (
  SELECT user_id, event_type, op, event_id AS lsn_start,
         coalesce(lead(event_id) OVER (PARTITION BY user_id, event_type ORDER BY event_id),
                  9223372036854775807) AS lsn_end
  FROM ev
), pos AS (
  SELECT lsn_start AS at, 1 AS s FROM win WHERE op <> 'D'
  UNION ALL
  SELECT lsn_end, -1 FROM win WHERE op <> 'D' AND lsn_end <> 9223372036854775807
)
SELECT at, CAST(sum(s) AS BIGINT) AS net FROM pos GROUP BY at
"""
    )
    t_hist = (
        _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
        + """
, win AS (
  SELECT conv_id, turn_idx, role, text, tool_name, score, op,
         lsn AS lsn_start,
         coalesce(lead(lsn) OVER w, 9223372036854775807) AS lsn_end,
         ts AS ts_start,
         coalesce(lead(ts) OVER w, TIMESTAMP '9999-12-31 23:59:59') AS ts_end
  FROM ev WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY lsn)
)
SELECT conv_id, turn_idx, role, text, tool_name, score, lsn_start, lsn_end, ts_start, ts_end
FROM win WHERE op <> 'D'
"""
    )
    ev_lww = (
        _EVENTS_CDC_CTE
        + """
SELECT user_id, event_type, event_id, value, ts
FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn FROM ev)
WHERE rn = 1 AND op <> 'D'
"""
    )
    ev_snap = (
        _EVENTS_CDC_CTE
        + """
SELECT user_id, event_type, event_id, value, ts
FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn
      FROM ev WHERE event_id <= (SELECT FLOOR(0.6 * max(event_id)) FROM events))
WHERE rn = 1 AND op <> 'D'
"""
    )
    ev_win = (
        _EVENTS_CDC_CTE
        + """
SELECT user_id, event_type, value, event_id AS lsn_start,
       coalesce(lead(event_id) OVER (PARTITION BY user_id, event_type ORDER BY event_id), 9223372036854775807) AS lsn_end
FROM ev QUALIFY op <> 'D'
"""
    )
    ev_diff = (
        _EVENTS_CDC_CTE
        + """
, snap AS (
  SELECT user_id, event_type, value
  FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn
        FROM ev WHERE event_id <= (SELECT FLOOR(0.6 * max(event_id)) FROM events))
  WHERE rn = 1 AND op <> 'D'
), fin AS (
  SELECT user_id, event_type, value
  FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn FROM ev)
  WHERE rn = 1 AND op <> 'D'
)
SELECT coalesce(s.user_id, f.user_id) AS user_id,
       coalesce(s.event_type, f.event_type) AS event_type,
       CASE WHEN s.user_id IS NULL THEN 'added'
            WHEN f.user_id IS NULL THEN 'deleted'
            ELSE 'changed' END AS diff
FROM snap s FULL OUTER JOIN fin f
  ON s.user_id = f.user_id AND s.event_type = f.event_type
WHERE s.user_id IS NULL OR f.user_id IS NULL
   OR (s.value IS DISTINCT FROM f.value)
"""
    )
    ev_cdf = (
        _EVENTS_CDC_CTE
        + """
, snap AS (
  SELECT user_id, event_type, value
  FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn
        FROM ev WHERE event_id <= (SELECT FLOOR(0.6 * max(event_id)) FROM events))
  WHERE rn = 1 AND op <> 'D'
), fin AS (
  SELECT user_id, event_type, value
  FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) AS rn FROM ev)
  WHERE rn = 1 AND op <> 'D'
)
SELECT coalesce(s.user_id, f.user_id) AS user_id,
       coalesce(s.event_type, f.event_type) AS event_type,
       CASE WHEN s.user_id IS NULL THEN 'insert'
            WHEN f.user_id IS NULL THEN 'delete'
            ELSE 'update' END AS change,
       s.value AS value_before,
       f.value AS value_after
FROM snap s FULL OUTER JOIN fin f
  ON s.user_id = f.user_id AND s.event_type = f.event_type
WHERE s.user_id IS NULL OR f.user_id IS NULL
   OR (s.value IS DISTINCT FROM f.value)
"""
    )
    media_pq = os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_media", "media.parquet")
    rdf_pq = _rdf_pq(sf_dir)
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    rdf_sqls = {
        "rdf_parse": f"SELECT s, p, o, isLiteral FROM read_parquet('{rdf_pq}')",
        "rdf_pagerank": _pagerank_sql(rdf_pq),
        "rdf_link_scores": f"""
WITH e0 AS (
  SELECT DISTINCT least(s, o) AS u, greatest(s, o) AS v
  FROM read_parquet('{rdf_pq}')
  WHERE NOT isLiteral AND p <> '{rdf_type}' AND s <> o
),
adj AS (SELECT u AS c, v AS n FROM e0 UNION ALL SELECT v, u FROM e0),
deg AS (SELECT c, count(*) AS deg FROM adj GROUP BY c),
w AS (
  SELECT l.n AS a, r.n AS b, l.c AS c
  FROM adj l JOIN adj r ON l.c = r.c AND l.n < r.n
),
folded AS (
  SELECT a, b, count(*) AS n_common,
         sum(1.0 / ln(d.deg)) AS aa
  FROM w JOIN deg d ON d.c = w.c GROUP BY a, b
)
SELECT f.a AS node_a, f.b AS node_b,
       CAST(f.n_common AS BIGINT) AS n_common,
       round(CAST(f.n_common AS DOUBLE)
             / greatest(da.deg + db.deg - f.n_common, 1), 6) AS jaccard,
       round(f.aa, 6) AS adamic_adar
FROM folded f JOIN deg da ON da.c = f.a JOIN deg db ON db.c = f.b
WHERE f.n_common >= 2
""",
        "rdf_triangles": f"""
WITH e0 AS (
  SELECT DISTINCT least(s, o) AS u, greatest(s, o) AS v
  FROM read_parquet('{rdf_pq}')
  WHERE NOT isLiteral AND p <> '{rdf_type}' AND s <> o
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM e0 a JOIN e0 b ON b.u = a.u AND b.v > a.v
          JOIN e0 c ON c.u = a.v AND c.v = b.v
""",
        "rdf_filter_by_type": f"""
SELECT s, p, o, isLiteral FROM read_parquet('{rdf_pq}')
WHERE s IN (SELECT s FROM read_parquet('{rdf_pq}')
            WHERE p = '{rdf_type}'
              AND o IN ('<http://ex.org/class/C0>', '<http://ex.org/class/C1>'))
""",
        "rdf_clean_types": f"""
SELECT s, p, o, isLiteral FROM read_parquet('{rdf_pq}')
WHERE p <> '{rdf_type}'
   OR o IN ('<http://ex.org/class/C0>', '<http://ex.org/class/C1>', '<http://ex.org/class/C2>')
""",
        "rdf_subgraph": f"""
WITH tr AS (SELECT * FROM read_parquet('{rdf_pq}')),
sel AS (SELECT DISTINCT s AS entity FROM tr
        WHERE p = '{rdf_type}'
          AND o IN ('<http://ex.org/class/C0>', '<http://ex.org/class/C1>')),
ss AS (SELECT tr.* FROM tr JOIN sel ON tr.s = sel.entity)
SELECT DISTINCT s, p, o, isLiteral FROM (
  SELECT s, p, o, isLiteral FROM ss WHERE isLiteral
  UNION ALL
  SELECT ss.s, ss.p, ss.o, ss.isLiteral FROM ss JOIN sel ON ss.o = sel.entity
  WHERE NOT ss.isLiteral
  UNION ALL
  SELECT s, p, o, isLiteral FROM ss
  WHERE p = '{rdf_type}'
    AND o IN ('<http://ex.org/class/C0>', '<http://ex.org/class/C1>')
)
""",
        "rdf_schema_graph": f"""
WITH tr AS (SELECT * FROM read_parquet('{rdf_pq}')),
ty AS (SELECT s, min(o) AS t FROM tr WHERE p = '{rdf_type}' GROUP BY s)
SELECT coalesce(ts.t, 'Untyped') AS SourceType, d.p AS Relation,
       CASE WHEN d.isLiteral THEN 'Literal' ELSE coalesce(tob.t, 'Untyped') END AS TargetType,
       count(*) AS n
FROM (SELECT * FROM tr WHERE p <> '{rdf_type}') d
LEFT JOIN ty ts ON d.s = ts.s
LEFT JOIN ty tob ON d.o = tob.s
GROUP BY 1, 2, 3
""",
    }
    # full-outer-join CDF between the 60%-prefix state and the final
    # state — shared by the write-time feed and the snapshot-diff oracle
    t_inc_feed = f"""
WITH lall AS (
  SELECT lsn FROM read_parquet('{glob}', hive_partitioning=1)
),
cut AS (
  SELECT lsn AS c FROM (
    SELECT lsn, row_number() OVER (ORDER BY lsn) - 1 AS rn FROM lall)
  WHERE rn = (SELECT CAST(FLOOR(0.6 * (count(*) - 1)) AS BIGINT) FROM lall)
),
valid AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, text, lsn, op
  FROM read_parquet('{glob}', hive_partitioning=1)
  WHERE op IN ('I','U','D') AND conv_id IS NOT NULL AND turn_idx IS NOT NULL
),
snap AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM valid WHERE lsn <= (SELECT c FROM cut))
  WHERE rn = 1 AND op <> 'D'
),
fin AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM valid)
  WHERE rn = 1 AND op <> 'D'
)
SELECT coalesce(s.conv_id, f.conv_id) AS conv_id,
       coalesce(s.turn_idx, f.turn_idx) AS turn_idx,
       CASE WHEN s.conv_id IS NULL THEN 'insert'
            WHEN f.conv_id IS NULL THEN 'delete'
            ELSE 'update' END AS change,
       s.text AS text_before, f.text AS text_after
FROM snap s FULL OUTER JOIN fin f
  ON s.conv_id = f.conv_id AND s.turn_idx = f.turn_idx
WHERE s.conv_id IS NULL OR f.conv_id IS NULL OR s.text IS DISTINCT FROM f.text
"""
    return {
        **rdf_sqls,
        "events_nested_roundtrip": """
WITH nested AS (
  SELECT user_id AS conv_id, count(*) AS n_turns,
         list(struct_pack(turn_idx := event_id, role := event_type, score := value)
              ORDER BY event_id) AS turns
  FROM events GROUP BY user_id
)
SELECT conv_id, n_turns, unnest(turns, recursive := true) FROM nested
""",
        "transcript_replay": t_final,
        "transcript_replay_bucketed": t_final,
        "transcript_replay_partitioned": t_final,
        "transcript_replay_actor": t_final,
        "transcript_replay_salted": t_final,
        "transcript_publish_read": t_final,
        "transcript_point_lookup": (
            f"SELECT * FROM ({t_final}) WHERE conv_id = '{_LOOKUP_CONV}'"
        ),
        "transcript_stream_tail": t_final,
        # the Debezium-envelope ingest converges to the same final table
        "transcript_debezium_stream": t_final,
        "transcript_incremental": t_final,
        # materialized views must equal a GROUP BY over the final replay
        "transcript_mview": f"""
SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns, max(turn_idx) AS max_turn,
       sum(score) AS sum_score, avg(turn_idx) AS avg_turn
FROM ({t_final}) GROUP BY conv_id""",
        "transcript_mview_delta": f"""
SELECT role, CAST(count(*) AS BIGINT) AS n_turns,
       sum(score) AS sum_score, avg(score) AS avg_score
FROM ({t_final}) GROUP BY role""",
        # derived silver tables must equal the transform over the final replay
        "transcript_derived": f"""
SELECT conv_id, turn_idx, role, score,
       CAST(LENGTH(text) AS BIGINT) AS text_len, UPPER(role) AS role_uc
FROM ({t_final}) WHERE score >= 0.5""",
        "transcript_derived_feed": f"""
SELECT conv_id, turn_idx, role, score,
       CAST(LENGTH(text) AS BIGINT) AS text_len, UPPER(role) AS role_uc
FROM ({t_final}) WHERE score >= 0.5""",
        # gold view of the medallion chain = GROUP BY over the silver transform
        "transcript_medallion": f"""
SELECT UPPER(role) AS role_uc, CAST(count(*) AS BIGINT) AS n_rows,
       sum(score) AS sum_score, avg(CAST(LENGTH(text) AS BIGINT)) AS avg_len
FROM ({t_final}) WHERE score >= 0.5 GROUP BY UPPER(role)""",
        # time travel to v1 = the 60% prefix base; re-derive split_log's
        # index-based cutoff (sorted-LSN position floor(0.6*(n-1))) in SQL
        "transcript_version_read": t_prefix60,
        # savepoint-pinned bronze = the same 60%-prefix replay, read through
        # the cross-table pin after later applies (keep_last=1 retention)
        "transcript_savepoint_read": t_prefix60,
        # DDL over the silver table: rename score→quality, add reviewed
        # (NULL), drop role_uc — pure projection over the derived oracle
        "transcript_ddl_read": f"""
SELECT conv_id, turn_idx, role, score AS quality,
       CAST(LENGTH(text) AS BIGINT) AS text_len,
       CAST(NULL AS VARCHAR) AS reviewed
FROM ({t_final}) WHERE score >= 0.5""",
        # materialize_ddl is semantically invisible: same oracle, now
        # answered through the rewritten (mapping-free) files
        "transcript_ddl_materialized": f"""
SELECT conv_id, turn_idx, role, score AS quality,
       CAST(LENGTH(text) AS BIGINT) AS text_len,
       CAST(NULL AS VARCHAR) AS reviewed
FROM ({t_final}) WHERE score >= 0.5""",
        # incrementally-maintained join view = the replayed fact table left-
        # joined to the post-update tool dimension (dim rows derive from the
        # key, so the upsert/delete are CASE/WHERE-expressible)
        "transcript_join_view": f"""
SELECT f.conv_id, f.turn_idx, f.role, f.score, f.tool_name, d.tool_kind, d.weight
FROM ({t_final}) f
LEFT JOIN (
  SELECT tool_name,
         CASE WHEN tool_name = 'python' THEN 'CHANGED'
              ELSE UPPER(tool_name) END AS tool_kind,
         CAST(CASE WHEN tool_name = 'python' THEN 100
                   ELSE LENGTH(tool_name) END AS BIGINT) AS weight
  FROM (SELECT DISTINCT tool_name FROM ({t_final}) WHERE tool_name IS NOT NULL)
  WHERE tool_name <> 'editor'
) d USING (tool_name)""",
        # orchestrated DAG refresh: the silver⟕role-dim join view after the
        # full apply + one dim upsert, all hops converged by refresh_pipeline
        "transcript_pipeline_sync": f"""
SELECT s.conv_id, s.turn_idx, s.role, s.score, s.text_len, s.role_uc, d.rank
FROM (SELECT conv_id, turn_idx, role, score,
             CAST(LENGTH(text) AS BIGINT) AS text_len, UPPER(role) AS role_uc
      FROM ({t_final}) WHERE score >= 0.5) s
LEFT JOIN (
  SELECT role, CAST(CASE WHEN role = 'tool' THEN 99
                         ELSE LENGTH(role) END AS BIGINT) AS rank
  FROM (SELECT DISTINCT role FROM ({t_final}) WHERE role IS NOT NULL)
) d USING (role)""",
        # clustered serving copy + zone-map pruned range read = plain filter
        "transcript_clustered_read": f"""
SELECT * FROM ({t_final}) WHERE conv_id < '{_cluster_cutoff(sf_dir)}'""",
        # z-ordered serving copy + two-column pruned read = plain filter
        "transcript_zorder_read": f"""
SELECT * FROM ({t_final}) WHERE role = 'assistant' AND score >= 0.9""",
        # DELETE WHERE score < 0.3: NULL scores survive (SQL WHERE on the
        # predicate fails for NULL, so the row is NOT deleted)
        "transcript_delete_where": f"""
SELECT * FROM ({t_final}) WHERE score >= 0.3 OR score IS NULL""",
        # bloom-sidecar equality probe = plain equality filter (the probe is
        # the lookup conversation's first surviving turn's text)
        "transcript_bloom_lookup": f"""
SELECT * FROM ({t_final})
WHERE text = (SELECT text FROM ({t_final})
              WHERE conv_id = 'conv_00000007'
              ORDER BY turn_idx LIMIT 1)""",
        # feed-refreshed stats: exact rows/nulls vs full-state SQL aggregates
        "transcript_stats_refresh": f"""
WITH t AS ({t_final})
SELECT '_rows' AS col_name, COUNT(*) AS n FROM t
UNION ALL SELECT 'text', COUNT(*) - COUNT(text) FROM t
UNION ALL SELECT 'score', COUNT(*) - COUNT(score) FROM t
UNION ALL SELECT 'tool_name', COUNT(*) - COUNT(tool_name) FROM t""",
        # ANALYZE: engine column statistics = SQL aggregate ground truth
        "transcript_column_stats": f"""
WITH t AS ({t_final})
SELECT 'conv_id' AS col_name, COUNT(*) - COUNT(conv_id) AS n_nulls,
       COUNT(DISTINCT conv_id) AS ndv,
       CAST(MIN(conv_id) AS VARCHAR) AS min_str,
       CAST(MAX(conv_id) AS VARCHAR) AS max_str FROM t
UNION ALL
SELECT 'role', COUNT(*) - COUNT(role), COUNT(DISTINCT role),
       CAST(MIN(role) AS VARCHAR), CAST(MAX(role) AS VARCHAR) FROM t
UNION ALL
SELECT 'text', COUNT(*) - COUNT(text), COUNT(DISTINCT text),
       CAST(MIN(text) AS VARCHAR), CAST(MAX(text) AS VARCHAR) FROM t
UNION ALL
SELECT 'tool_name', COUNT(*) - COUNT(tool_name), COUNT(DISTINCT tool_name),
       CAST(MIN(tool_name) AS VARCHAR), CAST(MAX(tool_name) AS VARCHAR) FROM t
UNION ALL
SELECT 'turn_idx', COUNT(*) - COUNT(turn_idx), COUNT(DISTINCT turn_idx),
       CAST(MIN(turn_idx) AS VARCHAR), CAST(MAX(turn_idx) AS VARCHAR) FROM t""",
        # storage-partitioned left-outer join (bucket-aligned, zero exchange)
        "transcript_bucket_join": f"""
SELECT l.conv_id, l.turn_idx, l.role, l.text, l.tool_name, l.score, l.ts,
       r.text_len
FROM ({t_final}) l
LEFT JOIN (SELECT conv_id, turn_idx,
                  CAST(LENGTH(text) AS BIGINT) AS text_len
           FROM ({t_final}) WHERE score >= 0.5) r
USING (conv_id, turn_idx)""",
        # UPDATE SET tool_name='REDACTED', text=UPPER(text) WHERE role='tool'
        "transcript_update_where": f"""
SELECT conv_id, turn_idx, role,
  CASE WHEN role = 'tool' THEN UPPER(text) ELSE text END AS text,
  CASE WHEN role = 'tool' THEN 'REDACTED' ELSE tool_name END AS tool_name,
  score, ts
FROM ({t_final})""",
        # MERGE INTO: full outer join of target and derived source; matched
        # rows take the source row only when t.score < s.score (NULL fails →
        # keep target, SQL semantics); source-only rows insert; target-only
        # low-score tool rows are deleted by NOT MATCHED BY SOURCE
        "transcript_merge_into": f"""
WITH t AS ({t_final}),
s AS (
  SELECT conv_id, turn_idx, role, UPPER(text) AS text, tool_name,
         1.0 - score AS score, ts FROM t WHERE role = 'user'
  UNION ALL
  SELECT conv_id || '_m' AS conv_id, turn_idx, 'merged' AS role, text,
         tool_name, score, ts FROM t WHERE role = 'user' AND turn_idx = 0
)
SELECT COALESCE(t.conv_id, s.conv_id) AS conv_id,
       COALESCE(t.turn_idx, s.turn_idx) AS turn_idx,
       CASE WHEN s.conv_id IS NULL THEN t.role
            WHEN t.conv_id IS NULL OR t.score < s.score THEN s.role
            ELSE t.role END AS role,
       CASE WHEN s.conv_id IS NULL THEN t.text
            WHEN t.conv_id IS NULL OR t.score < s.score THEN s.text
            ELSE t.text END AS text,
       CASE WHEN s.conv_id IS NULL THEN t.tool_name
            WHEN t.conv_id IS NULL OR t.score < s.score THEN s.tool_name
            ELSE t.tool_name END AS tool_name,
       CASE WHEN s.conv_id IS NULL THEN t.score
            WHEN t.conv_id IS NULL OR t.score < s.score THEN s.score
            ELSE t.score END AS score,
       CASE WHEN s.conv_id IS NULL THEN t.ts
            WHEN t.conv_id IS NULL OR t.score < s.score THEN s.ts
            ELSE t.ts END AS ts
FROM t FULL OUTER JOIN s
  ON t.conv_id = s.conv_id AND t.turn_idx = s.turn_idx
WHERE NOT COALESCE(t.conv_id IS NOT NULL AND s.conv_id IS NULL
                   AND t.role = 'tool' AND t.score < 0.2, FALSE)""",
        # shallow clone read after a destructive source DELETE = the full
        # pre-delete converged state (clone independence)
        "transcript_clone_read": t_final,
        "transcript_incremental_mor": t_final,
        "transcript_compacted_read": t_final,
        "transcript_rebucket_read": t_final,
        "cdc_dead_letters": f"""
SELECT CAST(part AS BIGINT) AS part, lsn, op, conv_id,
  CAST(turn_idx AS BIGINT) AS turn_idx,
  CASE WHEN op NOT IN ('I','U','D','S') THEN 'unknown_op'
       ELSE 'null_key' END AS reason
FROM read_parquet('{_log_glob(sf_dir)}', hive_partitioning=1)
WHERE op NOT IN ('I','U','D','S')
   OR (op <> 'S' AND (conv_id IS NULL OR turn_idx IS NULL))""",
        "transcript_history": t_hist,
        "transcript_snapshot": t_snap,
        "transcript_change_feed": f"""
WITH valid AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, text, lsn, op
  FROM read_parquet('{glob}', hive_partitioning=1)
  WHERE op IN ('I','U','D') AND conv_id IS NOT NULL AND turn_idx IS NOT NULL
),
cut AS (
  SELECT CAST(FLOOR(0.5 * max(lsn)) AS BIGINT) AS c
  FROM read_parquet('{glob}', hive_partitioning=1)
),
snap AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM valid WHERE lsn <= (SELECT c FROM cut))
  WHERE rn = 1 AND op <> 'D'
),
fin AS (
  SELECT conv_id, turn_idx, text FROM (
    SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM valid)
  WHERE rn = 1 AND op <> 'D'
)
SELECT coalesce(s.conv_id, f.conv_id) AS conv_id,
       coalesce(s.turn_idx, f.turn_idx) AS turn_idx,
       CASE WHEN s.conv_id IS NULL THEN 'insert'
            WHEN f.conv_id IS NULL THEN 'delete'
            ELSE 'update' END AS change,
       s.text AS text_before, f.text AS text_after
FROM snap s FULL OUTER JOIN fin f
  ON s.conv_id = f.conv_id AND s.turn_idx = f.turn_idx
WHERE s.conv_id IS NULL OR f.conv_id IS NULL OR s.text IS DISTINCT FROM f.text
""",
        # the snapshot-diff (table_changes v1→v2) sees exactly the changes
        # the write-time incremental feed emitted — same SQL oracle
        "transcript_version_diff": t_inc_feed,
        "transcript_incremental_feed": t_inc_feed,
        "transcript_time_travel": (
            _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
            + _hist_cte
            + """
, bounds AS (
  SELECT epoch_us(min(ts)) AS lo, epoch_us(max(ts)) AS hi FROM ev
)
SELECT conv_id, turn_idx, role, text, tool_name, score,
       lsn_start, lsn_end, ts_start, ts_end
FROM win, bounds
WHERE op <> 'D'
  AND epoch_us(ts_start) <= lo + (hi - lo) // 2
  AND epoch_us(ts_end) > lo + (hi - lo) // 2
"""
        ),
        "transcript_window_histogram": t_winhist,
        "transcript_activity": (
            _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
            + _hist_cte
            + """
, opened AS (
  SELECT lsn_start // 64 AS bucket, count(*) AS opened FROM win WHERE op <> 'D' GROUP BY 1
), closed AS (
  SELECT lsn_end // 64 AS bucket, count(*) AS closed FROM win
  WHERE op <> 'D' AND lsn_end <> 9223372036854775807 GROUP BY 1
)
SELECT coalesce(o.bucket, c.bucket) AS bucket,
       CAST(coalesce(o.opened, 0) AS BIGINT) AS opened,
       CAST(coalesce(c.closed, 0) AS BIGINT) AS closed,
       CAST(coalesce(o.opened, 0) + coalesce(c.closed, 0) AS BIGINT) AS changes
FROM opened o FULL OUTER JOIN closed c ON o.bucket = c.bucket
"""
        ),
        "table_lineage": f"""
WITH log AS (SELECT * FROM read_parquet('{glob}', hive_partitioning=1)),
valid AS (
  SELECT CAST(part AS BIGINT) AS part, lsn, conv_id, turn_idx, op
  FROM log WHERE op IN ('I','U','D') AND conv_id IS NOT NULL AND turn_idx IS NOT NULL),
ev_counts AS (
  SELECT part, count(*) AS n_events, max(lsn) AS applied_lsn FROM valid GROUP BY part),
final AS (
  SELECT part, count(*) AS rows_out FROM (
    SELECT part, op, row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM valid)
  WHERE rn = 1 AND op <> 'D' GROUP BY part)
SELECT e.part AS bucket, CAST(coalesce(f.rows_out, 0) AS BIGINT) AS rows_out,
       e.n_events, e.applied_lsn,
       CAST(1 AS BIGINT) AS n_wal_parts, 'lineage' AS run_id
FROM ev_counts e LEFT JOIN final f ON e.part = f.part
""",
        "transcript_missing_values": (
            _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
            + ", f AS ("
            + _TRANSCRIPT_FINAL_SELECT
            + """)
SELECT 'role' AS property, count(*) - count(role) AS n_missing, count(role) AS n_present FROM f
UNION ALL SELECT 'text', count(*) - count(text), count(text) FROM f
UNION ALL SELECT 'tool_name', count(*) - count(tool_name), count(tool_name) FROM f
UNION ALL SELECT 'score', count(*) - count(score), count(score) FROM f
UNION ALL SELECT 'ts', count(*) - count(ts), count(ts) FROM f
"""
        ),
        "schema_mapping_stats": f"""
SELECT json_extract_string(schema_change, '$.kind') AS kind,
       count(*) AS n_changes,
       CAST(count(DISTINCT part) AS BIGINT) AS n_parts
FROM read_parquet('{glob}', hive_partitioning=1)
WHERE op = 'S' GROUP BY 1
""",
        "transcript_summary": (
            _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
            + _hist_cte
            + """
, w AS (SELECT * FROM win WHERE op <> 'D')
SELECT CAST(count(*) AS BIGINT) AS n_facts,
       CAST(count(DISTINCT conv_id || ':' || CAST(turn_idx AS VARCHAR)) AS BIGINT) AS n_keys,
       CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
       CAST((SELECT count(DISTINCT v) FROM (
          SELECT lsn_start AS v FROM w
          UNION SELECT lsn_end FROM w WHERE lsn_end <> 9223372036854775807)) AS BIGINT) AS n_versions,
       CAST(sum(CASE WHEN lsn_end = 9223372036854775807 THEN 1 ELSE 0 END) AS BIGINT) AS n_live
FROM w
"""
        ),
        "transcript_snapshot_stats": f"""
WITH s1 AS ({t_snap}),
s2 AS ({t_final}),
d AS (
  SELECT s1.conv_id AS c1, s1.text AS x1, s2.conv_id AS c2, s2.text AS x2
  FROM s1 FULL OUTER JOIN s2
    ON s1.conv_id = s2.conv_id AND s1.turn_idx = s2.turn_idx
)
SELECT (SELECT count(*) FROM s1) AS rows_t1,
       (SELECT count(*) FROM s2) AS rows_t2,
       CAST(sum(CASE WHEN c1 IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS added,
       CAST(sum(CASE WHEN c2 IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS deleted,
       CAST(sum(CASE WHEN c1 IS NOT NULL AND c2 IS NOT NULL AND x1 IS DISTINCT FROM x2 THEN 1 ELSE 0 END) AS BIGINT) AS changed,
       CAST(sum(CASE WHEN c1 IS NOT NULL AND c2 IS NOT NULL AND x1 IS NOT DISTINCT FROM x2 THEN 1 ELSE 0 END) AS BIGINT) AS static_core,
       round(1.0 * ((SELECT count(*) FROM s2) - (SELECT count(*) FROM s1))
             / greatest((SELECT count(*) FROM s1), 1), 6) AS growth_pct
FROM d
""",
        "daily_window_topk": (
            _TRANSCRIPT_EV_CTE.format(glob=glob, where="")
            + _hist_cte
            + """
SELECT day, n FROM (
  SELECT strftime(ts_start, '%Y-%m-%d') AS day, count(*) AS n
  FROM win WHERE op <> 'D' GROUP BY 1)
ORDER BY n DESC, day LIMIT 5
"""
        ),
        "orders_lineitem_join": """
SELECT o_orderpriority, l_returnflag, count(*) AS n_items,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1, 2
""",
        "transcript_turn_latency": f"""
WITH f AS ({t_final}),
l AS (SELECT role,
             epoch_us(ts) - epoch_us(lag(ts) OVER (
                 PARTITION BY conv_id ORDER BY turn_idx)) AS gap_us
      FROM f)
SELECT role, count(*) AS n_gaps, CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
       CAST(sum(gap_us) AS DOUBLE) / count(*) AS avg_gap_us
FROM l WHERE gap_us IS NOT NULL GROUP BY role
""",
        "user_event_melt": """
WITH u AS (SELECT DISTINCT user_id FROM events),
t(et) AS (VALUES ('click'), ('view'), ('purchase'), ('signup'), ('error')),
c AS (SELECT user_id, event_type, count(*) AS n FROM events GROUP BY ALL)
SELECT u.user_id AS user_id, 'n_' || t.et AS variable,
       CAST(coalesce(c.n, 0) AS BIGINT) AS value
FROM u CROSS JOIN t
LEFT JOIN c ON c.user_id = u.user_id AND c.event_type = t.et
""",
        "user_top_event": """
SELECT user_id, event_type AS top_event, n FROM (
  SELECT user_id, event_type, count(*) AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type ASC) AS rn
  FROM events GROUP BY user_id, event_type)
WHERE rn = 1
""",
        "events_ranked": """
SELECT user_id, event_id, rn FROM (
  SELECT user_id, event_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
WHERE rn <= 3
""",
        "events_moving_value": """
SELECT user_id, event_id, ts,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS moving_value
FROM events
""",
        "building_revenue_topk": """
SELECT l_orderkey, o_orderdate, revenue FROM (
  SELECT l_orderkey, o_orderdate,
         round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
  FROM customer JOIN orders ON c_custkey = o_custkey
       JOIN lineitem ON l_orderkey = o_orderkey
  WHERE c_mktsegment = 'BUILDING'
    AND o_orderdate < TIMESTAMP '1997-01-01'
    AND l_shipdate >= TIMESTAMP '1997-01-01'
  GROUP BY l_orderkey, o_orderdate)
ORDER BY revenue DESC, l_orderkey LIMIT 10
""",
        "order_profile_bag_diff": """
SELECT o_orderpriority, o_orderstatus FROM orders WHERE o_custkey % 2 = 0
EXCEPT ALL
SELECT o_orderpriority, o_orderstatus FROM orders WHERE o_custkey % 2 = 1
""",
        "orders_rollup": """
SELECT o_orderpriority, o_orderstatus, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS sum_o_totalprice
FROM orders GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
""",
        "orders_grouping_sets": """
SELECT o_orderpriority, o_orderstatus, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS sum_o_totalprice
FROM orders
GROUP BY GROUPING SETS ((o_orderpriority, o_orderstatus), (o_orderstatus), ())
""",
        "orders_cube": """
SELECT o_orderpriority, o_orderstatus, count(*) AS n_orders,
       round(sum(o_totalprice), 2) AS sum_o_totalprice
FROM orders GROUP BY CUBE (o_orderpriority, o_orderstatus)
""",
        "user_event_pivot": """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click')    AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'view')     AS BIGINT) AS n_view,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup')   AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'error')    AS BIGINT) AS n_error
FROM events GROUP BY user_id
""",
        "events_running_value": """
SELECT user_id, event_id, ts,
       CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_value
FROM events
""",
        "urgent_order_lineitems": """
SELECT l_returnflag, count(*) AS n_items,
       round(sum(l_extendedprice), 2) AS sum_price
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT'
GROUP BY 1
""",
        "transcript_named_graphs": t_named_graphs,
        "transcript_reification": t_reification,
        "transcript_rdf_star": t_rdf_star,
        "events_change_stream": ev_stream,
        "cdc_events_lww": ev_lww,
        "cdc_events_snapshot": ev_snap,
        "cdc_events_windows": ev_win,
        "cdc_events_diff": ev_diff,
        "cdc_events_change_feed": ev_cdf,
        "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 6) AS avg_qty,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
""",
        "orders_per_nation": """
SELECT n_name, count(*) AS n_orders, round(sum(o_totalprice), 2) AS total_price
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
""",
        "customers_per_region": """
SELECT r_name, count(*) AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
""",
        "revenue_by_part_brand": """
SELECT p_brand, s_nationkey, count(*) AS n_items,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM lineitem JOIN part ON l_partkey = p_partkey
              JOIN supplier ON l_suppkey = s_suppkey
GROUP BY p_brand, s_nationkey
""",
        "customers_with_orders": """
SELECT c_custkey AS custkey, c_name, c_nationkey FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
""",
        "customers_without_orders": """
SELECT c_custkey AS custkey, c_name, c_nationkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_orderstatus = 'P')
""",
        "distinct_order_profiles": """
SELECT o_orderkey, o_orderstatus, o_orderpriority
FROM (SELECT *, row_number() OVER (PARTITION BY o_orderstatus, o_orderpriority ORDER BY o_orderkey) AS rn
      FROM orders)
WHERE rn = 1
""",
        "sample_lineitem": """
SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
WHERE (CAST(l_orderkey AS UBIGINT) * 2654435761) % 4294967296 % 100 < 10
""",
        "top_lineitems": """
SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem
ORDER BY l_extendedprice DESC LIMIT 5
""",
        "top_lineitems_per_flag": """
SELECT l_returnflag, l_orderkey, l_linenumber, l_extendedprice
FROM (SELECT *, row_number() OVER (PARTITION BY l_returnflag
        ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber) AS rn
      FROM lineitem)
WHERE rn <= 3
""",
        "events_per_type_day": """
SELECT strftime(ts, '%Y-%m-%d') AS day, event_type,
       count(*) AS n, round(sum(value), 2) AS total_value
FROM events GROUP BY 1, 2
""",
        "events_range_join": """
WITH i AS (SELECT user_id, ts AS w_start, ts + INTERVAL 5 MINUTE AS w_end,
                  event_id AS interval_id
           FROM events WHERE event_id % 50 = 0)
SELECT p.event_id, p.user_id, i.interval_id
FROM events p JOIN i ON p.user_id = i.user_id
 AND p.ts >= i.w_start AND p.ts < i.w_end
""",
        "events_asof_profile": """
WITH r0 AS (SELECT user_id, ts, round(value, 6) AS snap_value, event_id
            FROM events WHERE event_id % 10 = 0),
r AS (SELECT user_id, ts, snap_value FROM (
   SELECT *, row_number() OVER (PARTITION BY user_id, ts ORDER BY event_id) AS rn FROM r0)
   WHERE rn = 1)
SELECT l.event_id, l.user_id, r.snap_value
FROM events l ASOF LEFT JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
""",
        "events_sliding_windows": """
SELECT event_type,
       make_timestamp((epoch_us(ts) // 900000000) * 900000000 - i * 900000000) AS window_start,
       count(*) AS n
FROM events, (SELECT unnest(range(0, 4)) AS i)
GROUP BY 1, 2
""",
        "user_top_events_hh": """
SELECT user_id, event_type, n FROM (
  SELECT user_id, event_type, count(*) AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type ASC) AS rn
  FROM events GROUP BY user_id, event_type)
WHERE rn <= 2
""",
        "events_window_funcs": """
SELECT user_id, event_id,
       ntile(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS tile4,
       round(percent_rank() OVER (PARTITION BY user_id
                                  ORDER BY event_type), 6) AS pr_type,
       first_value(event_id) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
       ) AS first_event,
       last_value(event_id) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING
       ) AS last_event
FROM events
""",
        "events_overlap_join": """
WITH c AS (
  SELECT user_id, event_id AS click_id, epoch_us(ts) AS s,
         epoch_us(ts) + 600000000 AS e
  FROM events WHERE event_type = 'click'
),
v AS (
  SELECT user_id, event_id AS view_id, epoch_us(ts) AS s,
         epoch_us(ts) + 600000000 AS e
  FROM events WHERE event_type = 'view'
)
SELECT c.user_id AS user_id, c.click_id, v.view_id
FROM c JOIN v ON c.user_id = v.user_id AND c.s < v.e AND v.s < c.e
""",
        "events_sessionized": """
WITH o AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 30 * 60 * 1000000
              THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, event_id,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) - 1 AS session_id
  FROM o
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       count(*) AS n_events, min(event_id) AS min_event_id
FROM s GROUP BY 1, 2
""",
        "events_cron_expand": """
WITH e AS (SELECT event_id, ts FROM events WHERE event_id % 20 = 0),
b AS (SELECT event_id,
  make_timestamp(((epoch_us(ts) + 1799999999) // 1800000000) * 1800000000) AS first_occ,
  ts + INTERVAL 2 HOUR AS w_end FROM e)
SELECT event_id,
       unnest(generate_series(first_occ, w_end - INTERVAL 1 MICROSECOND, INTERVAL 30 MINUTE)) AS occurs_at
FROM b
""",
        "distinct_users": "SELECT count(DISTINCT user_id) AS n FROM events",
        "user_activity_distribution": """
SELECT day, degree, count(*) AS n_entities
FROM (SELECT strftime(ts, '%Y-%m-%d') AS day, user_id, count(*) AS degree
      FROM events GROUP BY 1, 2)
GROUP BY day, degree
""",
        "event_value_stats": """
SELECT event_type, count(value) AS n,
       round(avg(value), 6) AS avg, round(min(value), 6) AS min, round(max(value), 6) AS max,
       round(quantile_cont(value, 0.25), 6) AS q25,
       round(quantile_cont(value, 0.5), 6) AS q50,
       round(quantile_cont(value, 0.75), 6) AS q75
FROM events GROUP BY event_type
""",
        "events_props_stats": """
SELECT event_type, count(*) AS n,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       round(avg(CAST(json_extract_string(props, '$.k') AS BIGINT)), 6) AS avg_k
FROM events GROUP BY event_type
""",
        "doc_token_stats": """
SELECT lang, count(*) AS n_docs,
       CAST(sum(length(text) - length(replace(text, ' ', '')) + 1) AS BIGINT) AS total_tokens,
       round(avg(length(text) - length(replace(text, ' ', '')) + 1), 6) AS avg_tokens
FROM documents GROUP BY lang
""",
        "doc_regex_token_stats": """
SELECT lang, count(*) AS n_docs,
       CAST(sum(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))) AS BIGINT) AS total_tokens,
       round(avg(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))), 6) AS avg_tokens
FROM documents GROUP BY lang
""",
        # exact duplicate substrings >= 32 bytes: all-pairs 24-gram equality
        # join, maximal runs reassembled per (doc_a, doc_b, diagonal) with
        # gaps-and-islands (run of c consecutive matching grams = span of
        # c + 23 bytes). ASCII corpus, so char == byte offsets.
        "doc_dup_spans": """
WITH g AS (
  SELECT doc_id, p - 1 AS pos, substr(text, p, 24) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text) - 22, 1))) AS p
        FROM documents)
),
m AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.pos AS pa, b.pos AS pb
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
),
r AS (
  SELECT doc_a, doc_b, pa, pb, pa - pb AS diag,
         pa - row_number() OVER (PARTITION BY doc_a, doc_b, pa - pb
                                 ORDER BY pa) AS grp
  FROM m
)
SELECT doc_a, doc_b, CAST(min(pa) AS BIGINT) AS a_start,
       CAST(min(pb) AS BIGINT) AS b_start,
       CAST(count(*) + 23 AS BIGINT) AS span_len
FROM r GROUP BY doc_a, doc_b, diag, grp
HAVING count(*) + 23 >= 32
""",
        # per-doc union of duplicate-span intervals (running-max islands
        # over both sides of the span oracle)
        "doc_dup_span_coverage": """
WITH g AS (
  SELECT doc_id, p - 1 AS pos, substr(text, p, 24) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text) - 22, 1))) AS p
        FROM documents)
),
m AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.pos AS pa, b.pos AS pb
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
),
r AS (
  SELECT doc_a, doc_b, pa, pb, pa - pb AS diag,
         pa - row_number() OVER (PARTITION BY doc_a, doc_b, pa - pb
                                 ORDER BY pa) AS grp
  FROM m
),
sp AS (
  SELECT doc_a, doc_b, min(pa) AS a_start, min(pb) AS b_start,
         count(*) + 23 AS span_len
  FROM r GROUP BY doc_a, doc_b, diag, grp
  HAVING count(*) + 23 >= 32
),
iv AS (
  SELECT doc_a AS doc_id, a_start AS s, a_start + span_len AS e FROM sp
  UNION ALL
  SELECT doc_b, b_start, b_start + span_len FROM sp
),
o AS (
  SELECT doc_id, s, e,
         max(e) OVER (PARTITION BY doc_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM iv
),
segs AS (
  SELECT doc_id, s, e,
         sum(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY s, e) AS seg
  FROM o
),
agg AS (
  SELECT doc_id, seg, max(e) - min(s) AS seg_len FROM segs
  GROUP BY doc_id, seg
)
SELECT doc_id, CAST(sum(seg_len) AS BIGINT) AS dup_bytes,
       CAST(count(*) AS BIGINT) AS n_spans
FROM agg GROUP BY doc_id
""",
        # exact-substring corpus dedup: doc_b-side cut intervals from the
        # span oracle, merged via islands, complement rebuilt by ordered
        # string_agg of the kept pieces
        "doc_span_dedup": """
WITH g AS (
  SELECT doc_id, p - 1 AS pos, substr(text, p, 24) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text) - 22, 1))) AS p
        FROM documents)
),
m AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.pos AS pa, b.pos AS pb
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
),
r AS (
  SELECT doc_a, doc_b, pa, pb, pa - pb AS diag,
         pa - row_number() OVER (PARTITION BY doc_a, doc_b, pa - pb
                                 ORDER BY pa) AS grp
  FROM m
),
sp AS (
  SELECT doc_a, doc_b, min(pa) AS a_start, min(pb) AS b_start,
         count(*) + 23 AS span_len
  FROM r GROUP BY doc_a, doc_b, diag, grp
  HAVING count(*) + 23 >= 32
),
iv AS (SELECT doc_b AS doc_id, b_start AS s, b_start + span_len AS e FROM sp),
o AS (
  SELECT doc_id, s, e,
         max(e) OVER (PARTITION BY doc_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM iv
),
segs0 AS (
  SELECT doc_id, s, e,
         sum(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
           OVER (PARTITION BY doc_id ORDER BY s, e) AS seg
  FROM o
),
segs AS (
  SELECT doc_id, seg, min(s) AS s, max(e) AS e FROM segs0
  GROUP BY doc_id, seg
),
pieces AS (
  SELECT doc_id, s, e,
         coalesce(lag(e) OVER (PARTITION BY doc_id ORDER BY s), 0) AS ps
  FROM segs
),
final AS (
  SELECT p.doc_id,
         string_agg(substr(d.text, CAST(p.ps + 1 AS BIGINT),
                           CAST(p.s - p.ps AS BIGINT)), '' ORDER BY p.s)
           AS head,
         max(p.e) AS last_e,
         CAST(sum(p.e - p.s) AS BIGINT) AS n_cut
  FROM pieces p JOIN documents d USING (doc_id)
  GROUP BY p.doc_id
)
SELECT d.doc_id,
       CASE WHEN f.doc_id IS NULL THEN d.text
            ELSE coalesce(f.head, '') ||
                 substr(d.text, CAST(f.last_e + 1 AS BIGINT)) END AS text,
       CAST(coalesce(f.n_cut, 0) AS BIGINT) AS n_cut_bytes
FROM documents d LEFT JOIN final f USING (doc_id)
""",
        # span decontamination: train-split grams joined to test-split
        # grams, maximal cross-split runs via gaps-and-islands
        "doc_decontaminate_spans": """
WITH g AS (
  SELECT doc_id, p - 1 AS pos, substr(text, p, 24) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text) - 22, 1))) AS p
        FROM documents)
),
m AS (
  SELECT a.doc_id AS doc_id, b.doc_id AS contaminant_id,
         a.pos AS pa, b.pos AS pb
  FROM g a JOIN g b ON a.gram = b.gram
  WHERE a.doc_id % 13 <> 0 AND b.doc_id % 13 = 0
),
r AS (
  SELECT doc_id, contaminant_id, pa, pb, pa - pb AS diag,
         pa - row_number() OVER (PARTITION BY doc_id, contaminant_id,
                                 pa - pb ORDER BY pa) AS grp
  FROM m
)
SELECT doc_id, contaminant_id, CAST(min(pa) AS BIGINT) AS a_start,
       CAST(min(pb) AS BIGINT) AS b_start,
       CAST(count(*) + 23 AS BIGINT) AS span_len
FROM r GROUP BY doc_id, contaminant_id, diag, grp
HAVING count(*) + 23 >= 32
""",
        # within-doc repeats: same-doc 12-gram self-join (pa < pb), maximal
        # runs per (doc, diagonal) via gaps-and-islands, >= 16 bytes
        "doc_self_repeat": """
WITH g AS (
  SELECT doc_id, p - 1 AS pos, substr(text, p, 12) AS gram
  FROM (SELECT doc_id, text,
               unnest(range(1, greatest(length(text) - 10, 1))) AS p
        FROM documents)
),
m AS (
  SELECT a.doc_id AS doc_id, a.pos AS pa, b.pos AS pb
  FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id = b.doc_id
                    AND a.pos < b.pos
),
r AS (
  SELECT doc_id, pa, pb, pb - pa AS diag,
         pa - row_number() OVER (PARTITION BY doc_id, pb - pa
                                 ORDER BY pa) AS grp
  FROM m
)
SELECT doc_id, CAST(min(pa) AS BIGINT) AS a_start,
       CAST(min(pb) AS BIGINT) AS b_start,
       CAST(count(*) + 11 AS BIGINT) AS span_len
FROM r GROUP BY doc_id, diag, grp
HAVING count(*) + 11 >= 16
""",
        # decontamination: per-train-doc count of distinct 3-gram shingles
        # shared with the held-out test split (doc_id % 13 == 0)
        "doc_decontaminate": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
sh AS (SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(ka) - 1, 1)),
        i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS s FROM d),
test AS (SELECT DISTINCT unnest(s) AS sg FROM sh WHERE doc_id % 13 = 0),
train AS (SELECT doc_id, unnest(s) AS sg FROM sh WHERE doc_id % 13 <> 0)
SELECT train.doc_id AS doc_id, count(*) AS hits
FROM train JOIN test USING (sg)
GROUP BY train.doc_id
""",
        "doc_chunk_dedup": """
WITH s AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
e AS (SELECT doc_id, toks, CAST(ceil(len(toks)/3.0) AS BIGINT) AS n_chunks,
             unnest(range(0, CAST(ceil(len(toks)/3.0) AS BIGINT))) AS chunk_idx
      FROM s),
c AS (SELECT doc_id, chunk_idx, n_chunks,
             array_to_string(list_slice(toks, chunk_idx*3+1, chunk_idx*3+3), ' ') AS chunk_text
      FROM e),
k AS (SELECT *, row_number() OVER (PARTITION BY chunk_text ORDER BY doc_id, chunk_idx) AS rn FROM c)
SELECT doc_id,
       string_agg(chunk_text, ' ' ORDER BY chunk_idx) AS text,
       CAST(any_value(n_chunks) AS BIGINT) AS n_chunks_total,
       count(*) AS n_chunks_kept
FROM k WHERE rn = 1
GROUP BY doc_id
""",
        "doc_ngram_dup": """
WITH d AS (SELECT doc_id, source, string_split(text, ' ') AS ka FROM documents),
g AS (SELECT doc_id, source, len(ka) - 2 AS n_grams,
        unnest(list_transform(range(1, len(ka) - 1),
               i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS gram
      FROM d WHERE len(ka) >= 3),
pg AS (SELECT doc_id, source, n_grams, gram, count(*) AS n_pos
       FROM g GROUP BY ALL),
dup AS (SELECT gram FROM pg GROUP BY gram HAVING count(*) >= 2)
SELECT pg.doc_id AS doc_id, max(pg.source) AS source,
       CAST(max(pg.n_grams) AS BIGINT) AS n_grams,
       CAST(coalesce(sum(CASE WHEN dup.gram IS NOT NULL THEN pg.n_pos END), 0)
            AS BIGINT) AS n_dup
FROM pg LEFT JOIN dup USING (gram)
GROUP BY pg.doc_id
""",
        # BM25 replayed over string tokens (equal tokens <=> equal hash, so
        # string-term joins replicate the engine's hashed term identity).
        "doc_bm25": f"""
WITH d AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
st AS (SELECT CAST(count(*) AS DOUBLE) AS n,
              CAST(sum(len(ka)) AS DOUBLE) AS sdl FROM d),
q AS (SELECT DISTINCT unnest(string_split('{BM25_QUERY}', ' ')) AS term),
tf AS (SELECT doc_id, term, len(ka) AS dl,
              len(list_filter(ka, x -> x = term)) AS tf
       FROM d CROSS JOIN q),
df AS (SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf WHERE tf > 0
       GROUP BY term)
SELECT tf.doc_id AS doc_id, CAST(max(tf.dl) AS BIGINT) AS n_tokens,
       sum(ln(1.0 + (n - df + 0.5) / (df + 0.5))
           * tf * (1.2 + 1.0)
           / (tf + 1.2 * (1.0 - 0.75 + 0.75 * tf.dl / (sdl / n)))) AS score
FROM tf JOIN df USING (term), st
WHERE tf > 0
GROUP BY tf.doc_id
""",
        "doc_perplexity": _PPL_SQL + """
SELECT doc_id, n_tokens, logprob, ppl FROM ppl
""",
        # ppl must be MATERIALIZED: DuckDB inlines CTEs, so the float sums in
        # `cuts` vs the outer scan would otherwise be re-summed in different
        # orders and the <=-cutoff boundary doc can flip buckets.
        "doc_ppl_buckets": _PPL_SQL.replace(
            "ppl AS (", "ppl AS MATERIALIZED ("
        ) + """,
cuts AS (SELECT lang, quantile_disc(ppl, 1.0/3.0) AS c1,
                quantile_disc(ppl, 2.0/3.0) AS c2
         FROM ppl GROUP BY lang)
SELECT ppl.lang AS lang,
       CASE WHEN ppl.ppl <= c1 THEN 'head'
            WHEN ppl.ppl <= c2 THEN 'middle' ELSE 'tail' END AS bucket,
       count(*) AS n_docs, CAST(sum(n_tokens) AS BIGINT) AS n_tokens
FROM ppl JOIN cuts USING (lang)
GROUP BY ALL
""",
        "doc_dsir_weights": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
g AS (SELECT doc_id, unnest(list_transform(range(1, len(ka)),
               i -> ka[i] || ' ' || ka[i+1])) AS gram
      FROM d WHERE len(ka) >= 2),
tc AS (SELECT gram, count(*) AS ct FROM g WHERE doc_id % 13 = 0 GROUP BY gram),
rc AS (SELECT gram, count(*) AS cr FROM g WHERE doc_id % 13 <> 0 GROUP BY gram),
v AS (SELECT coalesce(tc.gram, rc.gram) AS gram,
             coalesce(ct, 0) AS ct, coalesce(cr, 0) AS cr
      FROM tc FULL JOIN rc USING (gram)),
tot AS (SELECT CAST(sum(ct) AS DOUBLE) AS tt, CAST(sum(cr) AS DOUBLE) AS tr,
               CAST(count(*) AS DOUBLE) AS vs FROM v),
lr AS (SELECT gram, (ln(ct + 1.0) - ln(tt + vs)) - (ln(cr + 1.0) - ln(tr + vs)) AS lw
       FROM v, tot),
pg AS (SELECT doc_id, gram, count(*) AS n_pos
       FROM g WHERE doc_id % 13 <> 0 GROUP BY ALL)
SELECT pg.doc_id AS doc_id, CAST(sum(n_pos) AS BIGINT) AS n_grams,
       sum(n_pos * lw) AS log_w
FROM pg JOIN lr USING (gram)
GROUP BY pg.doc_id
""",
        "corpus_curation": """
WITH dd AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text),
d1 AS (SELECT d.doc_id, d.source, string_split(d.text, ' ') AS ka
       FROM documents d JOIN dd USING (doc_id)
       WHERE len(string_split(d.text, ' ')) >= 8),
g AS (SELECT doc_id, source, len(ka) AS n_tokens, len(ka) - 2 AS n_grams,
        unnest(list_transform(range(1, len(ka) - 1),
               i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS gram
      FROM d1),
pg AS (SELECT doc_id, source, n_tokens, n_grams, gram, count(*) AS n_pos
       FROM g GROUP BY ALL),
dup AS (SELECT gram FROM pg GROUP BY gram HAVING count(*) >= 2),
prof AS (SELECT pg.doc_id AS doc_id, max(pg.source) AS source,
                CAST(max(pg.n_tokens) AS BIGINT) AS n_tokens,
                CAST(max(pg.n_grams) AS BIGINT) AS n_grams,
                CAST(coalesce(sum(CASE WHEN dup.gram IS NOT NULL
                                       THEN pg.n_pos END), 0) AS BIGINT) AS n_dup
         FROM pg LEFT JOIN dup USING (gram)
         GROUP BY pg.doc_id)
SELECT * FROM prof WHERE n_dup <= 0.5 * n_grams
""",
        # Gopher repetition rules: duplicate n-gram fraction per doc
        "doc_repetition": """
WITH d AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
g AS (SELECT doc_id, ka,
  list_transform(range(1, greatest(len(ka), 1)),
                 i -> ka[i] || ' ' || ka[i+1]) AS g2,
  list_transform(range(1, greatest(len(ka) - 1, 1)),
                 i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2]) AS g3
  FROM d)
SELECT doc_id,
  round(1.0 - len(list_distinct(ka)) * 1.0 / greatest(len(ka), 1), 6)
    AS dup_1gram_frac,
  round(1.0 - len(list_distinct(g2)) * 1.0 / greatest(len(g2), 1), 6)
    AS dup_2gram_frac,
  round(1.0 - len(list_distinct(g3)) * 1.0 / greatest(len(g3), 1), 6)
    AS dup_3gram_frac
FROM g
""",
        "doc_prefix_dedup": """
SELECT doc_id, prefix_key
FROM (SELECT doc_id,
             array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS prefix_key,
             row_number() OVER (PARTITION BY array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ')
                                ORDER BY doc_id) AS rn
      FROM documents)
WHERE rn = 1
""",
        "er_pairs_blocking": """
WITH k AS (SELECT doc_id, text,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents)
SELECT a.doc_id AS id_a, b.doc_id AS id_b, a.block_key AS block_key,
       CASE WHEN (a.doc_id + b.doc_id) % 5 = 0 THEN NULL
            ELSE CAST(a.text = b.text AS BIGINT) END AS label
FROM k a JOIN k b ON a.block_key = b.block_key AND a.doc_id < b.doc_id
""",
        "er_pair_stats": """
WITH k AS (SELECT doc_id, text,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents),
p AS (SELECT CASE WHEN (a.doc_id + b.doc_id) % 5 = 0 THEN NULL
                  ELSE CAST(a.text = b.text AS BIGINT) END AS label
      FROM k a JOIN k b ON a.block_key = b.block_key AND a.doc_id < b.doc_id)
SELECT count(*) AS total_pairs,
       CAST(coalesce(sum(CASE WHEN label = 1 THEN 1 ELSE 0 END), 0) AS BIGINT) AS matches,
       CAST(coalesce(sum(CASE WHEN label = 0 THEN 1 ELSE 0 END), 0) AS BIGINT) AS non_matches,
       CAST(coalesce(sum(CASE WHEN label IS NULL THEN 1 ELSE 0 END), 0) AS BIGINT) AS unlabeled,
       round(coalesce(sum(CASE WHEN label = 1 THEN 1 ELSE 0 END), 0) / greatest(count(*), 1), 6) AS match_ratio,
       round(coalesce(sum(CASE WHEN label = 0 THEN 1 ELSE 0 END), 0) / greatest(count(*), 1), 6) AS non_match_ratio,
       round(coalesce(sum(CASE WHEN label IS NULL THEN 1 ELSE 0 END), 0) / greatest(count(*), 1), 6) AS unlabeled_ratio
FROM p
""",
        "er_cluster_stats": """
WITH k AS (SELECT doc_id,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents),
c AS (SELECT block_key, count(*) AS sz FROM k GROUP BY 1 HAVING count(*) >= 2)
SELECT count(*) AS total_clusters,
       CAST(coalesce(sum(sz), 0) AS BIGINT) AS total_entities,
       round(coalesce(avg(sz), 0), 6) AS avg_cluster_size,
       CAST(coalesce(min(sz), 0) AS BIGINT) AS min_cluster_size,
       CAST(coalesce(max(sz), 0) AS BIGINT) AS max_cluster_size
FROM c
""",
        "benchmark_split_stats": """
WITH k AS (SELECT doc_id, text,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents),
p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
             CASE WHEN (a.doc_id + b.doc_id) % 5 = 0 THEN NULL
                  ELSE CAST(a.text = b.text AS BIGINT) END AS label
      FROM k a JOIN k b ON a.block_key = b.block_key AND a.doc_id < b.doc_id),
s AS (SELECT label,
             CASE WHEN ((id_a + id_b) * 7) % 10 < 6 THEN 'train'
                  WHEN ((id_a + id_b) * 7) % 10 < 8 THEN 'validation'
                  ELSE 'test' END AS split
      FROM p)
SELECT split,
       count(*) AS pairs,
       CAST(coalesce(sum(CASE WHEN label = 1 THEN 1 ELSE 0 END), 0) AS BIGINT) AS matches,
       CAST(coalesce(sum(CASE WHEN label = 0 THEN 1 ELSE 0 END), 0) AS BIGINT) AS non_matches,
       CAST(coalesce(sum(CASE WHEN label IS NULL THEN 1 ELSE 0 END), 0) AS BIGINT) AS unlabeled,
       round(coalesce(sum(CASE WHEN label = 1 THEN 1 ELSE 0 END), 0) / greatest(count(*), 1), 6) AS match_ratio
FROM s GROUP BY split
""",
        "er_link_classes": """
WITH k AS (SELECT doc_id, text,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents),
e AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
             CAST((a.doc_id * 31 + b.doc_id * 17) % 100 AS DOUBLE) / 100 AS sim
      FROM k a JOIN k b ON a.block_key = b.block_key AND a.doc_id < b.doc_id),
v AS (SELECT doc_id, 'r' || CAST(doc_id % 3 AS VARCHAR) AS resource FROM documents),
d AS (SELECT e.id_a AS a, e.id_b AS b, e.sim, vb.resource AS res_b
      FROM e JOIN v vb ON e.id_b = vb.doc_id
      UNION ALL
      SELECT e.id_b, e.id_a, e.sim, va.resource
      FROM e JOIN v va ON e.id_a = va.doc_id),
m AS (SELECT a, b, sim, MAX(sim) OVER (PARTITION BY a, res_b) AS best FROM d),
f AS (SELECT LEAST(a, b) AS src, GREATEST(a, b) AS dst, MAX(sim) AS sim,
             SUM(CASE WHEN sim = best THEN 1 ELSE 0 END) AS n_max
      FROM m GROUP BY LEAST(a, b), GREATEST(a, b))
SELECT src, dst, sim,
       CASE WHEN n_max >= 2 THEN 'strong' WHEN n_max = 1 THEN 'normal'
            ELSE 'weak' END AS link_type
FROM f
""",
        "er_name_matches": """
WITH n AS (SELECT c_custkey AS id, 'cust-' || CAST(c_custkey AS VARCHAR) AS s
           FROM customer)
SELECT a.id AS a_id, b.id AS b_id,
       CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
FROM n a JOIN n b ON a.id < b.id
WHERE levenshtein(a.s, b.s) <= 1
""",
        "rawlog_page_revisions": """
SELECT doc_id AS page_id,
       'doc_' || CAST(doc_id AS VARCHAR) AS page_title,
       doc_id * 10 + 1 AS revision_id,
       '2024-01-01T00:00:00Z' AS revision_ts,
       'v1' AS text
FROM documents
UNION ALL
SELECT doc_id,
       'doc_' || CAST(doc_id AS VARCHAR),
       doc_id * 10 + 2,
       '2024-01-02T00:00:00Z',
       text
FROM documents
""",
        "embedding_cosine_pairs": """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
""",
        "embedding_near_dups": f"""
WITH ass AS (
  SELECT e.vec_id, p.table_id,
         sum(CASE WHEN list_dot_product(e.embedding::DOUBLE[], p.normal) > 0
                  THEN (1 << p.plane_id) ELSE 0 END) AS bucket_key
  FROM embeddings e CROSS JOIN read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lsh_planes.parquet")}') p
  GROUP BY e.vec_id, p.table_id
),
cand AS (
  SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
  FROM ass a JOIN ass b
    ON a.table_id = b.table_id AND a.bucket_key = b.bucket_key
   AND a.vec_id < b.vec_id
)
SELECT vec_a, vec_b FROM cand
JOIN embeddings x ON x.vec_id = vec_a
JOIN embeddings y ON y.vec_id = vec_b
WHERE list_cosine_similarity(x.embedding::DOUBLE[], y.embedding::DOUBLE[]) >= 0.4
""",
        "embedding_dup_clusters": """
WITH RECURSIVE p AS (
  SELECT a.vec_id AS va, b.vec_id AS vb
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
),
ed AS (SELECT va AS src, vb AS dst FROM p UNION SELECT vb, va FROM p),
n AS (SELECT DISTINCT src AS node FROM ed),
r(node, reach) AS (
  SELECT node, node FROM n
  UNION
  SELECT r.node, ed.dst FROM r JOIN ed ON ed.src = r.reach
)
SELECT node, min(reach) AS component FROM r GROUP BY node
""",
        "fusion_cluster_values": """
WITH k AS (SELECT doc_id, text, lang,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS cluster_id
  FROM documents)
SELECT cluster_id,
       count(*) AS n_entities,
       CAST(max(doc_id) AS DOUBLE) AS max_id,
       CAST(sum(length(text)) AS DOUBLE) / count(*) AS avg_chars,
       string_agg(lang, '|' ORDER BY doc_id) AS langs
FROM k GROUP BY cluster_id
""",
        "doc_lang_id": f"""
WITH b AS (
  SELECT doc_id,
         unnest(list_transform(range(1, octet_length(encode(text)) + 1),
                i -> substring(hex(encode(text)), CAST(2*i - 1 AS INT), 2))) AS hx
  FROM documents
),
cnt AS (SELECT doc_id, hx, count(*) AS n FROM b GROUP BY doc_id, hx),
sc AS (
  SELECT c.doc_id, p.lang, sum(c.n * p.weight) AS score
  FROM cnt c JOIN read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lang_profiles.parquet")}') p USING (hx)
  GROUP BY c.doc_id, p.lang
),
win AS (
  SELECT doc_id, lang FROM (
    SELECT doc_id, lang,
           row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang) AS r
    FROM sc) WHERE r = 1
)
-- LEFT JOIN from documents: a doc with empty/NULL text (or no byte pair in
-- any profile) has no sc rows, but the engine still classifies it — a zero
-- histogram scores 0 against every profile and argmax takes the FIRST
-- sorted language, which is what the coalesce fallback replays
SELECT d.doc_id,
       coalesce(w.lang,
                (SELECT min(lang) FROM read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_lang_profiles.parquet")}'))) AS pred_lang
FROM documents d LEFT JOIN win w USING (doc_id)
""",
        "dedup_simhash": f"""
WITH s AS (SELECT doc_id, sig
           FROM read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_simhash_sigs.parquet")}')),
ass AS (
  SELECT s.doc_id, m.table_id,
         sum(((s.sig >> m.bit_pos) & 1) << m.bit_i) AS bucket_key
  FROM s CROSS JOIN read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_simhash_masks.parquet")}') m
  GROUP BY s.doc_id, m.table_id
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM ass a JOIN ass b
    ON a.table_id = b.table_id AND a.bucket_key = b.bucket_key
   AND a.doc_id < b.doc_id
)
SELECT doc_a, doc_b, CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT) AS hamming
FROM cand JOIN s x ON x.doc_id = doc_a JOIN s y ON y.doc_id = doc_b
WHERE bit_count(xor(x.sig, y.sig)) <= 8
""",
        "dedup_simhash_verified": f"""
WITH s AS (SELECT doc_id, sig
           FROM read_parquet('{os.path.join(CACHE_ROOT, _sf_name(sf_dir) + "_simhash_sigs.parquet")}'))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sig, b.sig)) <= 7
""",
        "dedup_minhash": """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
sh AS (SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(ka) - 1, 1)),
        i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS s FROM t),
e AS (SELECT doc_id, unnest(s) AS sg, len(s) AS sz FROM sh),
i AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter,
             any_value(a.sz) AS sa, any_value(b.sz) AS sb
      FROM e a JOIN e b ON a.sg = b.sg AND a.doc_id < b.doc_id
      GROUP BY a.doc_id, b.doc_id)
SELECT doc_a, doc_b, round(1.0 * inter / (sa + sb - inter), 6) AS jaccard
FROM i WHERE 1.0 * inter / (sa + sb - inter) >= 0.4
""",
        "dedup_minhash_clusters": """
WITH RECURSIVE t AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
sh AS (SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(ka) - 1, 1)),
        i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS s FROM t),
ex AS (SELECT doc_id, unnest(s) AS sg, len(s) AS sz FROM sh),
i AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter,
             any_value(a.sz) AS sa, any_value(b.sz) AS sb
      FROM ex a JOIN ex b ON a.sg = b.sg AND a.doc_id < b.doc_id
      GROUP BY a.doc_id, b.doc_id),
p AS (SELECT doc_a, doc_b FROM i WHERE 1.0 * inter / (sa + sb - inter) >= 0.4),
ed AS (SELECT doc_a AS src, doc_b AS dst FROM p
       UNION SELECT doc_b, doc_a FROM p),
n AS (SELECT DISTINCT src AS node FROM ed),
r(node, reach) AS (
  SELECT node, node FROM n
  UNION
  SELECT r.node, ed.dst FROM r JOIN ed ON ed.src = r.reach
)
SELECT node, min(reach) AS component FROM r GROUP BY node
""",
        "dedup_survivors": """
WITH RECURSIVE t AS (SELECT doc_id, string_split(text, ' ') AS ka FROM documents),
sh AS (SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(ka) - 1, 1)),
        i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS s FROM t),
ex AS (SELECT doc_id, unnest(s) AS sg, len(s) AS sz FROM sh),
i AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter,
             any_value(a.sz) AS sa, any_value(b.sz) AS sb
      FROM ex a JOIN ex b ON a.sg = b.sg AND a.doc_id < b.doc_id
      GROUP BY a.doc_id, b.doc_id),
p AS (SELECT doc_a, doc_b FROM i WHERE 1.0 * inter / (sa + sb - inter) >= 0.4),
ed AS (SELECT doc_a AS src, doc_b AS dst FROM p
       UNION SELECT doc_b, doc_a FROM p),
n AS (SELECT DISTINCT src AS node FROM ed),
r(node, reach) AS (
  SELECT node, node FROM n
  UNION
  SELECT r.node, ed.dst FROM r JOIN ed ON ed.src = r.reach
),
comp AS (SELECT node, min(reach) AS component FROM r GROUP BY node)
SELECT d.doc_id, d.source FROM documents d
WHERE d.doc_id NOT IN (SELECT node FROM comp WHERE node <> component)
""",
        "dedup_jaccard_verified": """
WITH k AS (SELECT doc_id, text,
  array_to_string(array_slice(string_split(text, ' '), 1, 5), ' ') AS block_key
  FROM documents),
p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             string_split(a.text, ' ') AS ka, string_split(b.text, ' ') AS kb
      FROM k a JOIN k b ON a.block_key = b.block_key AND a.doc_id < b.doc_id),
sh AS (SELECT doc_a, doc_b,
  list_distinct(list_transform(range(1, greatest(len(ka) - 1, 1)),
      i -> ka[i] || ' ' || ka[i+1] || ' ' || ka[i+2])) AS sa,
  list_distinct(list_transform(range(1, greatest(len(kb) - 1, 1)),
      i -> kb[i] || ' ' || kb[i+1] || ' ' || kb[i+2])) AS sb
  FROM p),
j AS (SELECT doc_a, doc_b,
  CASE WHEN len(list_distinct(list_concat(sa, sb))) = 0 THEN 1.0
       ELSE 1.0 * len(list_intersect(sa, sb)) / len(list_distinct(list_concat(sa, sb)))
  END AS jac
  FROM sh)
SELECT doc_a, doc_b, round(jac, 6) AS jaccard FROM j WHERE jac >= 0.3
""",
        "rarity_sample_docs": """
WITH freq AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
dk AS (SELECT DISTINCT lang, doc_id FROM documents),
assigned AS (
  SELECT lang, doc_id FROM (
    SELECT dk.lang, dk.doc_id,
           row_number() OVER (PARTITION BY dk.doc_id ORDER BY f.n, dk.lang) AS rk
    FROM dk JOIN freq f ON dk.lang = f.lang)
  WHERE rk = 1)
SELECT lang, doc_id FROM (
  SELECT lang, doc_id, row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn
  FROM assigned)
WHERE rn <= 4
""",
        "doc_quality": """
SELECT doc_id,
       length(text) - length(replace(text, ' ', '')) + 1 AS tokens,
       round(CAST(n_chars AS DOUBLE) / (length(text) - length(replace(text, ' ', '')) + 1), 6) AS chars_per_token
FROM documents
""",
        # sliding 200-char windows, 50 overlap (stride 150), short tail kept;
        # the numbers table bounds chunk indices (4096 covers any doc the
        # generator emits — generate_series cannot take a subquery bound)
        "doc_chunks": """
WITH n AS (SELECT CAST(generate_series AS BIGINT) AS gs FROM generate_series(0, 4095)),
d2 AS (SELECT doc_id, text,
              CASE WHEN length(text) <= 200 THEN 1
                   ELSE CAST(ceil((length(text)-200)/150.0) AS BIGINT)+1 END AS nc
       FROM documents)
SELECT d2.doc_id, n.gs AS chunk_idx,
       substring(d2.text, CAST(n.gs*150+1 AS BIGINT), 200) AS chunk
FROM d2 JOIN n ON n.gs < d2.nc
""",
        "doc_normalized": """
SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS norm
FROM documents
""",
        "doc_mix_sample": """
SELECT doc_id, lang, source, n_chars FROM documents
WHERE (CAST(doc_id AS UBIGINT) * 2654435761) % 4294967296 % 100 <
      CASE WHEN lang = 'en' THEN 100 ELSE 25 END
""",
        "doc_redacted_stats": """
SELECT lang, count(*) AS n_docs,
       CAST(SUM(length(regexp_extract_all(text, '[0-9]+'))) AS BIGINT) AS n_red,
       CAST(SUM(length(regexp_replace(text, '[0-9]+', '#', 'g'))) AS BIGINT) AS sum_red_len
FROM documents GROUP BY lang
""",
        "embedding_label_centroids": """
SELECT CAST(label AS BIGINT) AS label, count(*) AS n,
       round(avg(CAST(embedding[1] AS DOUBLE)), 6) AS avg_c0
FROM embeddings GROUP BY label
""",
        "media_features": f"""
SELECT media_id, kind,
       CAST(CASE WHEN kind = 'image' THEN width * height * channels
                 WHEN kind = 'video' THEN octet_length(payload) - 24
                 ELSE (octet_length(payload) - 24) / 2 END AS BIGINT) AS n_samples
FROM read_parquet('{media_pq}')
""",
        "ann_ivf_topk": f"""
WITH c AS (SELECT list_id, centroid FROM read_parquet('{_ivf_pq(sf_dir)}')),
q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id % 128 = 0),
probe AS (
  SELECT query_id, list_id FROM (
    SELECT q.query_id, c.list_id,
           row_number() OVER (PARTITION BY q.query_id
             ORDER BY list_cosine_similarity(q.embedding, c.centroid) DESC, c.list_id) AS r
    FROM q CROSS JOIN c) WHERE r <= 6
),
assign AS (
  SELECT vec_id, list_id FROM (
    SELECT e.vec_id, c.list_id,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.embedding, c.centroid) DESC, c.list_id) AS r
    FROM embeddings e CROSS JOIN c) WHERE r <= 2
),
cand AS (
  SELECT DISTINCT p.query_id, a.vec_id
  FROM probe p JOIN assign a ON p.list_id = a.list_id
  WHERE a.vec_id <> p.query_id
)
SELECT query_id, vec_id, rank FROM (
  SELECT cand.query_id, cand.vec_id,
         row_number() OVER (PARTITION BY cand.query_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, cand.vec_id) - 1 AS rank
  FROM cand JOIN q USING (query_id) JOIN embeddings e ON cand.vec_id = e.vec_id
) WHERE rank < 10
""",
        # k-means assignment replayed from the centroid sidecar: nearest
        # centroid by cosine, ties to the lowest cluster id
        "embedding_kmeans": f"""
WITH c AS (SELECT list_id, centroid FROM read_parquet('{_kmeans_pq(sf_dir)}'))
SELECT vec_id, cluster, round(sim, 6) AS sim FROM (
  SELECT e.vec_id, c.list_id AS cluster,
         list_cosine_similarity(e.embedding, c.centroid) AS sim,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(e.embedding, c.centroid) DESC,
                    c.list_id) AS r
  FROM embeddings e CROSS JOIN c
) WHERE r = 1
""",
        # SemDeDup replay from the centroid sidecar: nearest-centroid
        # assignment, within-cluster cosine pairs >= 0.4, reachability
        # components, dropped = every node that is not its group minimum
        "embedding_semdedup": f"""
WITH RECURSIVE c AS (SELECT list_id, centroid FROM read_parquet('{_kmeans_pq(sf_dir)}')),
a AS (SELECT vec_id, cluster, embedding FROM (
  SELECT e.vec_id, c.list_id AS cluster, e.embedding,
         row_number() OVER (PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(e.embedding, c.centroid) DESC,
                    c.list_id) AS r
  FROM embeddings e CROSS JOIN c) WHERE r = 1),
p AS (SELECT x.vec_id AS va, y.vec_id AS vb FROM a x JOIN a y
      ON x.cluster = y.cluster AND x.vec_id < y.vec_id
      WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.4),
ed AS (SELECT va AS src, vb AS dst FROM p UNION SELECT vb, va FROM p),
n AS (SELECT DISTINCT src AS node FROM ed),
r(node, reach) AS (
  SELECT node, node FROM n
  UNION
  SELECT r.node, ed.dst FROM r JOIN ed ON ed.src = r.reach
)
SELECT node AS vec_id, min(reach) AS rep FROM r GROUP BY node
HAVING node <> min(reach)
""",
        "ann_cosine_topk": """
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id % 128 = 0)
SELECT query_id, vec_id, rank FROM (
  SELECT q.query_id, e.vec_id,
         row_number() OVER (PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id) - 1 AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id <> q.query_id
)
WHERE rank < 10
""",
    }


#: third-party oracle strings registered via :func:`odibel_ray.api.register_query`
EXTRA_ORACLES: dict[str, str] = {}


def ray_queries() -> dict[str, Callable]:
    return dict(QUERIES)


def ORACLES(sf_dir: str) -> dict[str, str]:  # callable: sf_dir -> {name: sql}
    return {**_oracles_for(sf_dir), **EXTRA_ORACLES}
