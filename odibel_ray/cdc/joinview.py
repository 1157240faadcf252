"""Incrementally-maintained JOIN views — the third IVM class next to
:mod:`odibel_ray.cdc.mview` (aggregate GROUP BY views) and
:mod:`odibel_ray.cdc.derived` (row-level filter/project copies): a fact
table joined to a dimension table, kept current from either side's changes
without re-running the join over the whole fact table.

The reference recomputes every enriched dataset by re-joining from scratch
(each ``eval/*.scala`` job re-reads and re-joins the full TKG — e.g. the
typing joins of ``eval/SchemaGraphEval.scala`` and the pair-profile joins of
``pyodibel``'s entity pipelines); at 10^10 fact rows an enrichment join
cannot be rebuilt because one dimension row changed. This module maintains

``view = left ⟕/⨝ right ON left[on] = right[key]``

as a generic published table KEYED BY THE LEFT TABLE'S KEYS (the right side
is a keyed published table, hence unique per join key, so the join is
at-most-1:1 per left row and the left key remains a key of the view).

Maintenance is dirty-key recompute against CURRENT state (the ``rescan``
discipline of :mod:`derived` — correct for any feed shape):

- **left-driven** dirty keys come from the left table's write-time change
  feed (``incremental_apply(feed_dir=…)``) or, feed-less, a snapshot diff
  (:func:`odibel_ray.cdc.sink.table_changes`) — cost O(changed left rows);
- **right-driven** dirty keys come from a right snapshot diff → the set of
  changed join-key values → one column-pruned scan of the left table
  restricted to those values (``keys + on`` only; zone-map pruned when the
  left table is clustered by the join column) — the unavoidable reverse
  lookup, O(left keys + on column scan), never O(left payload);
- the union of dirty left keys is re-read from the left table (guarded
  broadcast semi-join), joined to the right side RESTRICTED to exactly the
  join-key values those rows carry (bounded by the dirty set, so the build
  side stays broadcast-small even when the dimension is huge), and written
  through :func:`odibel_ray.cdc.sink.upsert_published` — only buckets
  containing touched keys are rewritten. Dirty keys that come back with no
  join row (left row deleted, or ``how='inner'`` and the match vanished)
  become deletes.

Everything the sink gives any table applies to the view: write-audit-publish,
snapshots/time travel, ``lookup_key``, zone maps, its own change feed.

The lifecycle around the join (the meta reader, the pin of both sides at
create, the per-side refresh decision, the converge write and the full
refresh) is the one :mod:`odibel_ray.cdc.pipeline` holds for every
maintained table. This module keeps the join spec, the whole-state compute
a create publishes and a full refresh reruns (:func:`_compute`), the left-
and right-driven dirty keys, and :func:`read_join_view`. A left pin that
expired forces the full refresh even when a ``left_feed`` is given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import pyarrow as pa

from odibel_ray.cdc.pipeline import (
    JOINVIEW,
    _converge,
    _create,
    _decide,
    _feed_dataset,
    _full_refresh,
    _key_cols,
    _load_meta,
)

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _norm_right_columns(right_columns, right_schema: pa.Schema, right_keys) -> dict:
    """Normalize to an ordered {src: dst} mapping of right VALUE columns."""
    if right_columns is None:
        return {n: n for n in right_schema.names if n not in right_keys}
    if isinstance(right_columns, Mapping):
        return dict(right_columns)
    return {c: c for c in right_columns}


def _join_once(left_ds, right_ds, meta: dict, batch_size: int):
    """left ⟕/⨝ right with the right side renamed into the view's namespace
    (``meta``: the view's join spec and its resolved right side). The probe
    side streams; the build side goes through the guarded broadcast
    (bucketed-shuffle fallback past the byte budget). The right table's read
    schema keeps the join well-typed when the build side restricts to ZERO
    rows (e.g. a refresh whose dirty keys all lost their match)."""
    from odibel_ray.cdc.sink import _read_plan
    from odibel_ray.ops.relational import broadcast_hash_join

    left_keys, right_keys = list(meta["left_keys"]), list(meta["right_keys"])
    on, right_columns = list(meta["on"]), dict(meta["right_columns"])

    def shape_right(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        cols = {o: t[rk] for o, rk in zip(on, right_keys)}
        for src, dst in right_columns.items():
            cols[dst] = t[src]
        return pa.table(cols)

    right_schema = _read_plan(meta["right"]).empty().schema
    build_schema = pa.schema(
        [pa.field(o, right_schema.field(rk).type)
         for o, rk in zip(on, right_keys)]
        + [pa.field(dst, right_schema.field(src).type)
           for src, dst in right_columns.items()]
    )
    build = right_ds.map_batches(shape_right, batch_format="pyarrow", batch_size=batch_size)
    joined = broadcast_hash_join(
        left_ds, build, on, how=meta["how"], batch_size=batch_size,
        small_schema=build_schema,
    )
    out_cols = [*left_keys, *meta["left_columns"], *right_columns.values()]

    def project(t: pa.Table) -> pa.Table:
        return t.select(out_cols)

    return joined.map_batches(project, batch_format="pyarrow", batch_size=batch_size)


def create_join_view(
    left_out: str,
    right_out: str,
    out_dir: str,
    *,
    on: str | Sequence[str],
    how: str = "left",
    left_columns: Sequence[str] | None = None,
    right_columns: Sequence[str] | Mapping[str, str] | None = None,
    run_id: str = "joinview-0",
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> dict:
    """Materialize the join view from both tables' CURRENT state and pin the
    snapshot versions it reflects (snapshot retention is enabled on both so a
    later feed-less refresh can diff either side against its pin).

    ``on`` — left column(s) equal to the right table's key column(s), in key
    order. ``how`` ∈ {'left', 'inner'}. ``left_columns`` — left value columns
    carried into the view (default: all; the ``on`` columns are always
    carried, they are what makes a right-driven refresh possible).
    ``right_columns`` — right value columns, a list or a {src: renamed}
    mapping; names must not collide with the left side's."""
    from odibel_ray.cdc.sink import _read_plan

    if how not in ("left", "inner"):
        raise ValueError("how must be 'left' or 'inner'")
    on = [on] if isinstance(on, str) else list(on)
    left_keys = _key_cols(left_out)
    right_keys = _key_cols(right_out)
    if len(on) != len(right_keys):
        raise ValueError(
            f"on={on} must match the right table's key columns {right_keys} 1:1"
        )
    left_schema = _read_plan(left_out).empty().schema
    right_schema = _read_plan(right_out).empty().schema
    rcols = _norm_right_columns(right_columns, right_schema, right_keys)
    if left_columns is None:
        left_columns = [n for n in left_schema.names if n not in left_keys]
    else:
        left_columns = list(left_columns)
    # the join columns ride along as ordinary view columns — a right-driven
    # refresh needs them to exist in left reads, and dropping them from the
    # view would make the join key invisible downstream. Left KEY columns are
    # excluded: they are always selected as keys, and listing them here too
    # would duplicate the column in the view schema (e.g. joining ON a key)
    left_columns = [
        c for c in dict.fromkeys([*left_columns, *on]) if c not in left_keys
    ]
    taken = set(left_keys) | set(left_columns)
    clash = [dst for dst in rcols.values() if dst in taken]
    if clash:
        raise ValueError(
            f"right columns {clash} collide with left columns; rename them via "
            "right_columns={src: dst}"
        )

    spec = {"left_keys": left_keys, "right_keys": right_keys, "on": on, "how": how,
            "left_columns": left_columns, "right_columns": rcols}
    return _create(JOINVIEW, out_dir, {"left": left_out, "right": right_out}, spec, _compute,
                   key_cols=left_keys, run_id=run_id, num_buckets=num_buckets,
                   batch_size=batch_size)


def _compute(meta: dict, batch_size: int) -> "ray.data.Dataset":
    """The whole join, from both sides' current state: what
    :func:`create_join_view` publishes and a full refresh recomputes."""
    from odibel_ray.cdc.sink import read_published

    need_left = list(dict.fromkeys([*meta["left_keys"], *meta["left_columns"]]))
    need_right = list(dict.fromkeys([*meta["right_keys"], *meta["right_columns"]]))
    return _join_once(read_published(meta["left"], columns=need_left),
                      read_published(meta["right"], columns=need_right), meta, batch_size)


def refresh_join_view(
    out_dir: str,
    *,
    run_id: str = "refresh-0",
    left_feed=None,
    batch_size: int = 65536,
    emit_feed: str | None = None,
    mode: str = "cow",
) -> dict:
    """Converge the view to both bases' latest versions, recomputing only
    dirty left keys (module docstring has the cost model).

    ``left_feed`` — the left table's write-time change feed (directory path
    or Dataset); it only needs to carry the left KEY columns (dirty-key
    extraction — after-images are not consumed). Feed-less refreshes diff the
    left side's retained snapshots instead; the right side is always diffed
    via snapshots (dimension writes go through ``upsert_published``, which
    records one). A refresh with nothing changed returns ``refreshed=False``
    without writing. If either side's pinned snapshot expired, falls back to
    a full recompute through the same upsert path."""
    from functools import partial as _p

    from odibel_ray.cdc.derived import _dirty_keys_batch
    from odibel_ray.cdc.sink import read_published, table_changes
    from odibel_ray.ops.relational import (
        broadcast_anti_join,
        broadcast_semi_join,
        exact_dedup,
    )

    meta = _load_meta(out_dir, JOINVIEW)
    left, right = meta["left"], meta["right"]
    left_keys, right_keys = list(meta["left_keys"]), list(meta["right_keys"])
    on, left_columns = list(meta["on"]), list(meta["left_columns"])
    rcols = dict(meta["right_columns"])

    v0l, v0r = meta["left_version"], meta["right_version"]
    lstep, v1l = _decide(left, v0l)
    rstep, v1r = _decide(right, v0r)
    pins = {"left_version": v0l if v1l is None else v1l,
            "right_version": v0r if v1r is None else v1r}
    write = dict(run_id=run_id, batch_size=batch_size, emit_feed=emit_feed, mode=mode)

    if left_feed is None and lstep == rstep == "noop":
        return {"refreshed": False, "left_version": v0l, "right_version": v0r}
    # the left pin's expiry is checked even when a left feed is given
    if "full" in (lstep, rstep):
        return _full_refresh(JOINVIEW, out_dir, meta, pins, _compute, **write)

    # ---- dirty left keys --------------------------------------------------
    dirty_parts = []
    if left_feed is not None:
        dirty_parts.append(_feed_dataset(left_feed))
    elif lstep == "incremental":
        # snapshot diff flags inserts/deletes and updates to any view-carried
        # left column (updates to columns the view ignores stay clean)
        dirty_parts.append(table_changes(left, v0l, v1l, keys=left_keys, values=left_columns))
    if rstep == "incremental":
        # changed join-key values → the left rows that reference them (the
        # reverse lookup: keys+on columns only, zone-map pruned when the left
        # table is clustered by the join column)
        rdiff = table_changes(right, v0r, v1r, keys=right_keys, values=list(rcols))

        def diff_fks(t: pa.Table) -> pa.Table:
            t = t.combine_chunks()
            renamed = pa.table({o: t[rk] for o, rk in zip(on, right_keys)})
            return renamed.group_by(on).aggregate([])

        fks = rdiff.map_batches(diff_fks, batch_format="pyarrow", batch_size=batch_size)
        dirty_parts.append(broadcast_semi_join(
            read_published(left, columns=list(dict.fromkeys([*left_keys, *on]))),
            fks, on=on, batch_size=batch_size,
        ))
    dirty_parts = [
        d.map_batches(_p(_dirty_keys_batch, keys=left_keys),
                      batch_format="pyarrow", batch_size=batch_size)
        for d in dirty_parts
    ]
    dirty = dirty_parts[0] if len(dirty_parts) == 1 else dirty_parts[0].union(*dirty_parts[1:])
    dirty = exact_dedup(dirty.materialize(), left_keys).materialize()

    # ---- recompute the join for exactly those keys ------------------------
    need_left = list(dict.fromkeys([*left_keys, *left_columns]))
    scoped_left = broadcast_semi_join(
        read_published(left, columns=need_left), dirty, on=left_keys,
        batch_size=batch_size,
    ).materialize()  # bounded by the dirty set

    def live_fks(t: pa.Table) -> pa.Table:
        return t.combine_chunks().select(on).group_by(on).aggregate([])

    fk_vals = scoped_left.map_batches(live_fks, batch_format="pyarrow", batch_size=batch_size)
    need_right = list(dict.fromkeys([*right_keys, *rcols]))
    right_restricted = broadcast_semi_join(
        read_published(right, columns=need_right),
        fk_vals.map_batches(
            lambda t: pa.table({rk: t[o] for rk, o in zip(right_keys, on)}),
            batch_format="pyarrow", batch_size=batch_size,
        ),
        on=right_keys, batch_size=batch_size,
    )  # bounded by the dirty rows' distinct join-key values
    updates = _join_once(scoped_left, right_restricted, meta, batch_size).materialize()
    # dirty keys with no recomputed row: left row deleted, or how='inner'
    # and the match vanished (dirty is already globally distinct, so the
    # anti-join output needs no further dedup exchange)
    deletes = broadcast_anti_join(dirty, updates, on=left_keys)
    return _converge(JOINVIEW, out_dir, meta, pins, updates, deletes, strategy=None, **write)


def read_join_view(out_dir: str, *, version: int | None = None) -> "ray.data.Dataset":
    """The view's rows (left keys + left columns + renamed right columns)."""
    from odibel_ray.cdc.sink import read_published

    return read_published(out_dir, system=True, version=version)
