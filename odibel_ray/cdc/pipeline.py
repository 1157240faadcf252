"""Pipeline orchestration: refresh a DAG of incrementally-maintained tables
(derived copies, aggregate views, join views) in dependency order with one
call — the bronze→silver→gold medallion pattern as an engine primitive
instead of a hand-written sequence.

Each maintained table already records its upstream(s) in its meta file
(``_derived.json`` / ``_view.json`` / ``_joinview.json``), so the DAG needs
no separate registration: :func:`refresh_pipeline` reads the metas, wires
edges between the tables it was given (upstreams outside the list are
assumed current — e.g. the bronze table the caller just applied to), topo-
sorts, and calls the right refresh for each node. Feeds and strategies can
be overridden per table; everything else uses each module's snapshot-diff
default, so a plain ``refresh_pipeline([silver, gold, view])`` after an
``incremental_apply`` converges the whole tree.

``tail_log(downstream=[...])`` runs this after every applying micro-batch —
the long-running tailer keeps the entire medallion current, not just the
bronze table (the reference's analog is re-running every ``eval/*`` job
after each dump refresh).

This module also holds the one lifecycle the three kinds share, which
:mod:`~odibel_ray.cdc.derived`, :mod:`~odibel_ray.cdc.mview` and
:mod:`~odibel_ray.cdc.joinview` call: the meta reader (:func:`_load_meta`,
every upstream side resolved through its stored ``<side>_rel`` path), the
pin-and-publish of every ``create_*`` (:func:`_create`), the per-side
refresh decision (:func:`_decide`: no-op, full recompute or incremental),
the converge write (:func:`_converge`) and the full refresh
(:func:`_full_refresh`). Each kind keeps its spec, its whole-state compute
(what ``create_*`` publishes and a full refresh recomputes), its
incremental dirty-key and update derivation, and its read function.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

DERIVED = "derived"
MVIEW = "mview"
JOINVIEW = "joinview"

_META_FILES = {
    "_derived.json": DERIVED,
    "_view.json": MVIEW,
    "_joinview.json": JOINVIEW,
}

#: each kind's upstream sides, as its meta file names them: ``<side>`` (the
#: absolute path), ``<side>_rel`` (relative to the maintained table) and
#: ``<side>_version`` (the pinned snapshot version)
_SIDES = {DERIVED: ("base",), MVIEW: ("base",), JOINVIEW: ("left", "right")}


def _meta_path(table: str, kind: str) -> str:
    return os.path.join(table, next(f for f, k in _META_FILES.items() if k == kind))


def _load_meta(table: str, kind: str) -> dict:
    """The one meta reader: ``kind``'s meta file of ``table``, with every
    upstream side resolved through its stored relative path when that
    directory exists, so a relocated tree (copied fixture, renamed lake
    root) reads its own upstreams."""
    import json

    with open(_meta_path(table, kind)) as f:
        meta = json.load(f)
    for side in _SIDES[kind]:
        rel = meta.get(f"{side}_rel")
        if rel:
            cand = os.path.normpath(os.path.join(os.path.abspath(table), rel))
            if os.path.isdir(cand):
                meta[side] = cand
    return meta


def _maintained(table: str) -> tuple[str, dict] | None:
    """``(kind, meta)`` of a maintained table, by its meta file; None for
    any other table."""
    for fname, kind in _META_FILES.items():
        if os.path.exists(os.path.join(table, fname)):
            return kind, _load_meta(table, kind)
    return None


def _inspect(table: str) -> tuple[str, list[str], dict]:
    """(kind, upstream dirs, pinned versions per upstream realpath) for a
    maintained table, via its meta file."""
    found = _maintained(table)
    if found is None:
        raise ValueError(
            f"{table} is not a maintained table (no _derived/_view/_joinview meta); "
            "apply to base tables directly and list only their downstream here"
        )
    kind, meta = found
    sides = _SIDES[kind]
    return kind, [meta[s] for s in sides], {
        os.path.realpath(meta[s]): meta[f"{s}_version"] for s in sides
    }


def _key_cols(table: str) -> list[str]:
    from odibel_ray.cdc.sink import _table_layout

    return _table_layout(table)["key_cols"]


def _feed_dataset(feed) -> "ray.data.Dataset":
    """A change feed given as a directory path or a Dataset."""
    import ray.data as rd

    return rd.read_parquet(feed) if isinstance(feed, str) else feed


def _create(kind: str, out_dir: str, upstreams: Mapping[str, str], spec: dict, compute, *,
            key_cols: list[str], run_id: str, num_buckets: int | None, batch_size: int) -> dict:
    """The one create of a maintained table: pin each upstream side's
    latest snapshot version (enabling snapshot retention first, so a later
    feed-less refresh can diff against the pin), publish ``compute(meta,
    batch_size)`` (the kind's whole-state compute) keyed by ``key_cols``,
    then write the meta: each side's absolute and relative path, ``spec``
    and the pins. Returns the publish result with the pins."""
    from odibel_ray.cdc.sink import (
        _atomic_write_json,
        enable_snapshots,
        list_snapshots,
        publish_dataset,
        snapshot_policy,
    )

    meta: dict = {}
    for side, path in upstreams.items():
        meta[side] = os.path.abspath(path)
        meta[f"{side}_rel"] = os.path.relpath(os.path.abspath(path), os.path.abspath(out_dir))
        if snapshot_policy(path) is None:
            enable_snapshots(path)
    meta.update(spec)
    pins = {}
    for side, path in upstreams.items():
        snaps = list_snapshots(path)
        if not snaps:
            raise FileNotFoundError(f"{side} table {path} has no published state")
        pins[f"{side}_version"] = snaps[-1]["version"]
    res = publish_dataset(compute(meta, batch_size), out_dir, key_cols=key_cols,
                          num_buckets=num_buckets, run_id=run_id)
    _atomic_write_json(_meta_path(out_dir, kind), {**meta, **pins})
    return {**res, **pins}


def _decide(upstream: str, pinned: int) -> tuple[str, int | None]:
    """The one per-side refresh decision against a pinned version, with the
    side's latest snapshot version (None when it has none): ``"noop"`` when
    the side has not moved past the pin, ``"full"`` when the pin expired (no
    snapshot diff is possible, so the table is recomputed), else
    ``"incremental"``."""
    from odibel_ray.cdc.sink import list_snapshots

    snaps = list_snapshots(upstream)
    latest = snaps[-1]["version"] if snaps else None
    if latest is None or latest == pinned:
        return "noop", latest
    if pinned not in {s["version"] for s in snaps}:
        return "full", latest
    return "incremental", latest


def _converge(kind: str, out_dir: str, meta: dict, pins: dict, updates, deletes, *,
              strategy: str | None, run_id: str, batch_size: int, emit_feed: str | None,
              mode: str) -> dict:
    """The one write of every refresh: count the updates and deletes,
    upsert them unless both are empty (``mode``, with ``emit_feed`` as this
    refresh's own change feed), then advance the pins in the meta. Returns
    the refresh's result: ``refreshed``, ``strategy`` (when given), the
    pins, ``rows_*`` (``groups_*`` for an aggregate view) and
    ``buckets_rewritten``."""
    from odibel_ray.cdc.sink import _atomic_write_json, upsert_published

    n_up, n_del = updates.count(), deletes.count()
    rewritten = 0
    if n_up or n_del:
        rewritten = upsert_published(
            updates, out_dir, deletes=deletes if n_del else None, run_id=run_id,
            batch_size=batch_size, feed_dir=emit_feed, mode=mode,
        )["buckets_rewritten"]
    _atomic_write_json(_meta_path(out_dir, kind), {**meta, **pins})
    noun = "groups" if kind == MVIEW else "rows"
    return {
        "refreshed": True, **({"strategy": strategy} if strategy else {}), **pins,
        f"{noun}_upserted": int(n_up), f"{noun}_deleted": int(n_del),
        "buckets_rewritten": rewritten,
    }


def _full_refresh(kind: str, out_dir: str, meta: dict, pins: dict, compute, **write) -> dict:
    """The one full refresh (a pin expired, so no snapshot diff): the
    whole-state ``compute`` that create published, deletes for the table's
    keys it no longer yields, then :func:`_converge` in the refresh's
    ``mode``. ``write``: ``run_id``, ``batch_size``, ``emit_feed``,
    ``mode``."""
    from odibel_ray.cdc.sink import read_published
    from odibel_ray.ops.relational import broadcast_anti_join

    keys = _key_cols(out_dir)
    updates = compute(meta, write["batch_size"]).materialize()
    cur_keys = read_published(out_dir, system=True, columns=keys)
    deletes = broadcast_anti_join(cur_keys, updates, on=keys)
    return _converge(kind, out_dir, meta, pins, updates, deletes, strategy="full", **write)


_warmed = False


def _warm_imports() -> None:
    """Import EVERYTHING the level-parallel refreshes could lazily import,
    on the main thread, before any worker thread starts. A fresh
    ``from x import y`` racing a module's first initialization across
    threads can hit Python's import-deadlock avoidance and raise
    ``ImportError: cannot import name ... from partially initialized
    module``; exhaustively warming the graph (every odibel_ray submodule +
    the lazily-resolved third-party/stdlib bits) makes a first-import in a
    worker thread impossible. Once per process."""
    global _warmed
    if _warmed:
        return
    import base64  # noqa: F401
    import glob  # noqa: F401
    import importlib
    import json as _json  # noqa: F401
    import pkgutil

    import pandas  # noqa: F401
    import ray.data  # noqa: F401
    import ray.data.aggregate  # noqa: F401
    import ray.data.grouped_data  # noqa: F401

    try:
        import aiohttp  # noqa: F401
    except ImportError:
        # ray.data's path resolution probes `from fsspec.implementations
        # .http import HTTPFileSystem` on EVERY read and relies on
        # catching ModuleNotFoundError (aiohttp absent here, so the import
        # always fails). That failure is NOT cached: CPython removes the
        # failed module, and a thread importing concurrently can observe
        # the partially-initialized module instead — raising plain
        # ImportError, which ray does not catch. With aiohttp absent no
        # filesystem can be an HTTP filesystem, so pinning the probe to
        # False is exactly ray's own single-threaded behavior, made
        # deterministic (sole call site is in the same module).
        import ray.data.datasource.path_util as _pu

        if not getattr(_pu._is_http_filesystem, "_odibel_pinned", False):
            def _no_http_fs(fs):  # noqa: ANN001
                return False

            _no_http_fs._odibel_pinned = True
            _pu._is_http_filesystem = _no_http_fs

    import odibel_ray

    for m in pkgutil.walk_packages(odibel_ray.__path__, "odibel_ray."):
        try:
            importlib.import_module(m.name)
        except Exception:  # optional-dependency modules may refuse: fine,
            pass  # a worker thread would hit the same (cached) failure
    _warmed = True


def plan_pipeline(tables: Sequence[str]) -> list[dict]:
    """Topological refresh order over the given tables: one entry per table,
    ``{table, kind, upstreams}`` with ``upstreams`` restricted to tables in
    the list (outside deps are assumed current). Deterministic: among ready
    nodes, caller order wins. Raises on cycles (a relocated meta pointing
    back into the list) and on unmaintained tables."""
    tables = list(tables)
    real = {os.path.realpath(t): t for t in tables}
    info = {}
    for t in tables:
        kind, ups, pins = _inspect(t)
        in_list = [real[os.path.realpath(u)] for u in ups if os.path.realpath(u) in real]
        info[t] = {"table": t, "kind": kind, "upstreams": in_list,
                   "ups_all": ups,
                   "pins": {real[r]: v for r, v in pins.items() if r in real},
                   "left": ups[0]}
    order: list[dict] = []
    done: set[str] = set()
    pending = list(tables)
    while pending:
        ready = [t for t in pending if all(u in done for u in info[t]["upstreams"])]
        if not ready:
            raise ValueError(f"dependency cycle among {pending}")
        for t in ready:
            order.append(info[t])
            done.add(t)
        pending = [t for t in pending if t not in done]
    return order


def refresh_pipeline(
    tables: Sequence[str],
    *,
    run_id: str = "pipe-0",
    strategies: Mapping[str, str] | None = None,
    feeds: Mapping[str, object] | None = None,
    savepoint: str | None = None,
    batch_size: int = 65536,
    chain_feeds: bool = False,
    base_feeds: Mapping[str, str] | None = None,
    modes: Mapping[str, str] | None = None,
    max_parallel: int = 1,
) -> dict:
    """Refresh every listed maintained table in dependency order.

    ``strategies[table]`` overrides the per-kind default ('rescan' for
    derived/mview — feed-less snapshot diffs; join views have one strategy).
    ``feeds[table]`` passes a write-time change feed (path or Dataset) to
    that table's refresh: derived/mview consume it as ``feed=``, join views
    as ``left_feed=``. ``savepoint=path`` pins one consistent cut across ALL
    listed tables after the refresh (:mod:`odibel_ray.cdc.savepoint`), so a
    reader can hold the exact post-refresh state while the pipeline keeps
    moving. Returns ``{order, results, savepoint}``.

    ``chain_feeds=True`` turns the DAG into a feed CASCADE: every node with
    a listed downstream also emits its own upsert-time change feed
    (``upsert_published(feed_dir=…)``), and a downstream node consumes its
    upstream's feed instead of running a snapshot diff — but only when its
    pinned version equals the upstream's pre-refresh version (a stale node
    falls back to the diff; feeds never override correctness). Join views
    chain on their LEFT side only (the dimension side always diffs).
    Consumed feed directories are removed at the end of a clean run.

    ``base_feeds`` maps a BASE table path (one outside the list — the bronze
    table the caller just applied to) to its accumulated change feed: every
    node whose upstream is that base consumes it instead of diffing the
    base. Contract: the feed must cover every change since each consumer's
    pinned version (``tail_log`` guarantees this by converging downstream
    once before switching to per-round feeds).

    ``modes[table]='mor'`` runs that node's refresh as a merge-on-read
    upsert (delta append, no bucket rewrite — the high-frequency setting);
    a MOR node cannot emit a chained feed, so its downstream falls back to
    snapshot diffs.

    ``max_parallel > 1`` refreshes INDEPENDENT nodes of one topological
    level concurrently (driver threads; each refresh is its own distributed
    Ray job, table locks are per node, chained feeds come from earlier
    levels only) — a wide DAG whose single refreshes underutilize the
    cluster converges in depth×refresh time instead of node-count×."""
    import shutil

    from odibel_ray.cdc.derived import refresh_derived
    from odibel_ray.cdc.joinview import refresh_join_view
    from odibel_ray.cdc.mview import refresh_view
    from odibel_ray.cdc.sink import list_snapshots

    strategies = dict(strategies or {})
    feeds = dict(feeds or {})
    modes = dict(modes or {})
    order = plan_pipeline(tables)
    has_downstream = {
        u for node in order for u in node["upstreams"]
    }
    results = {}
    emitted: dict[str, tuple[str, object]] = {}  # table -> (feed_dir, pre_version)

    def _run_node(i: int, node: dict) -> tuple[str, dict]:
        t, kind = node["table"], node["kind"]
        rid = f"{run_id}-{i}"
        feed = feeds.get(t)
        if feed is None and base_feeds:
            for u_full in node["ups_all"]:
                bf = next(
                    (f for b, f in base_feeds.items()
                     if os.path.realpath(b) == os.path.realpath(u_full)),
                    None,
                )
                if bf is None:
                    continue
                if kind == JOINVIEW and os.path.realpath(u_full) != os.path.realpath(node["left"]):
                    continue  # only the left side consumes a feed
                if isinstance(bf, str) and not (
                    os.path.isdir(bf)
                    and any(f for _, _, fs in os.walk(bf) for f in fs)
                ):
                    continue  # empty feed: snapshot diff no-ops instead
                feed = bf
                break
        if feed is None and chain_feeds:
            for u in node["upstreams"]:
                if u not in emitted:
                    continue
                if kind == JOINVIEW and os.path.realpath(u) != os.path.realpath(node["left"]):
                    continue  # only the left side consumes a feed
                fdir, pre_v = emitted[u]
                fresh = node["pins"].get(u) == pre_v
                has_rows = os.path.isdir(fdir) and any(
                    f for _, _, fs in os.walk(fdir) for f in fs
                )
                if fresh and has_rows:
                    feed = fdir
                break  # at most one feed-bearing upstream (left/base)
        node_mode = modes.get(t, "cow")
        emit = None
        if chain_feeds and t in has_downstream and node_mode == "cow":
            emit = os.path.join(t, "_feeds", run_id)
            shutil.rmtree(emit, ignore_errors=True)
            snaps = list_snapshots(t)
            emitted[t] = (emit, snaps[-1]["version"] if snaps else None)
        if kind == DERIVED:
            kw = {"strategy": strategies[t]} if t in strategies else {}
            return t, refresh_derived(
                t, run_id=rid, feed=feed, batch_size=batch_size,
                emit_feed=emit, mode=node_mode, **kw
            )
        if kind == MVIEW:
            kw = {"strategy": strategies[t]} if t in strategies else {}
            return t, refresh_view(
                t, run_id=rid, feed=feed, batch_size=batch_size,
                emit_feed=emit, mode=node_mode, **kw
            )
        return t, refresh_join_view(
            t, run_id=rid, left_feed=feed, batch_size=batch_size,
            emit_feed=emit, mode=node_mode,
        )

    # topological LEVELS: nodes whose (listed) upstreams all sit in earlier
    # levels are independent — with max_parallel > 1 a level's refreshes run
    # concurrently from driver threads (each is its own distributed job;
    # locks are per table, chained feeds come from earlier levels only)
    level_of: dict[str, int] = {}
    for node in order:
        ups = node["upstreams"]
        level_of[node["table"]] = 1 + max((level_of[u] for u in ups), default=-1)
    n_levels = max(level_of.values(), default=-1) + 1
    idx_of = {node["table"]: i for i, node in enumerate(order)}
    for lvl in range(n_levels):
        level_nodes = [n for n in order if level_of[n["table"]] == lvl]
        if max_parallel > 1 and len(level_nodes) > 1:
            from concurrent.futures import ThreadPoolExecutor

            _warm_imports()
            with ThreadPoolExecutor(max_workers=max_parallel) as ex:
                for t, res in ex.map(
                    lambda n: _run_node(idx_of[n["table"]], n), level_nodes
                ):
                    results[t] = res
        else:
            for n in level_nodes:
                t, res = _run_node(idx_of[n["table"]], n)
                results[t] = res
    for fdir, _ in emitted.values():  # consumed synchronously above
        shutil.rmtree(fdir, ignore_errors=True)
    sp = None
    if savepoint:
        from collections import Counter

        from odibel_ray.cdc.savepoint import create_savepoint

        # label by basename, but fall back to the full path for tables whose
        # basenames collide (e.g. .../orders/stats and .../users/stats) —
        # a dict comprehension would silently pin only the last one
        base = {t: os.path.basename(os.path.normpath(t)) for t in tables}
        dup = {b for b, n in Counter(base.values()).items() if n > 1}
        sp = create_savepoint(
            savepoint,
            {(os.path.normpath(t) if base[t] in dup else base[t]): t
             for t in tables},
        )
    return {"order": [n["table"] for n in order], "results": results, "savepoint": sp}
