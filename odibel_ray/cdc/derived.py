"""Incrementally-maintained row-level derived tables — the bronze→silver hop
of a medallion pipeline: a filtered / projected / column-derived copy of a
published table kept current from its change feed, never by re-scanning the
base.

The reference derives every downstream dataset by re-running a full extraction
over the source (each ``eval/*.scala`` job and ``pyodibel`` pipeline re-reads
the whole TKG); at 10^10 rows a curated subset ("assistant turns with a
score", "English docs over 200 chars") cannot be rebuilt per run. This module
is the row-level complement of :mod:`odibel_ray.cdc.mview` (aggregate IVM):

- the derived table is a generic published table keyed by the BASE key
  (the transform is key-preserving: filter + projection + scalar-derived
  columns), with everything the sink gives any table (write-audit-publish,
  snapshots, ``lookup_key``, its own change feed);
- :func:`create_derived` materializes it once from the base's current state
  and pins the base snapshot version it reflects;
- :func:`refresh_derived` converges it to the base's latest version touching
  only keys the change feed says are dirty, writing through
  :func:`odibel_ray.cdc.sink.upsert_published` (only buckets containing
  touched keys are rewritten). Two strategies:

  - ``strategy='rescan'`` (default): collect the dirty KEY SET from the feed
    (or a snapshot diff), re-read only those base rows (guarded broadcast
    semi-join), re-apply the transform — dirty keys whose row vanished or no
    longer passes the filter become deletes. Cost O(dirty keys), never
    O(base); correct for any feed (telescoped state files included) because
    it reads the base's CURRENT rows.
  - ``strategy='feed'``: transform the feed's after-images directly — NO base
    read at all, cost O(feed). Requires the feed to carry every transform
    input column (``incremental_apply(feed_values=[...])``) and, when feeds
    from several applies are consumed together, the ``_lsn`` ordering column
    (``feed_lsn=True``) to resolve the latest transition per key; without
    ``_lsn`` a key seen twice is an error rather than a silent wrong answer.

Transform spec (pure data — persisted in ``_derived.json`` so refreshes are
self-describing; mirrors the reference's filter+project pipeline surface,
``eval/SnapshotEval.scala:61-74`` / ``pyodibel`` ``rdf run`` chains):

``{"where": [[col, op, value], ...],        # AND of clauses; ops: ==, !=,
                                            #   <, <=, >, >=, in, not_in,
                                            #   is_null, not_null
   "columns": ["role", "score", ...],       # passthrough (keys always kept);
                                            #   None = all base value columns
   "derive": {"text_len": ["len", "text"],  # fns: len | lower | upper | abs
              ...}}``

NULL semantics match SQL: a comparison against NULL fails the WHERE (the row
is filtered out), and derived fns propagate NULL.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odibel_ray.cdc.lww import _same_next_key_mask

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

DERIVED_META = "_derived.json"

_OPS = {"==", "!=", "<", "<=", ">", ">=", "in", "not_in", "is_null", "not_null"}
_FNS = {"len", "lower", "upper", "abs"}


def _check_spec(spec: Mapping, keys: Sequence[str]) -> dict:
    """Validate + normalize the transform spec into its stored form."""
    out: dict = {"where": [], "columns": spec.get("columns"), "derive": {}}
    for clause in spec.get("where", ()):  # [col, op, value?]
        col, op = clause[0], clause[1]
        val = clause[2] if len(clause) > 2 else None
        if op not in _OPS:
            raise ValueError(f"unsupported where op {op!r} (have {sorted(_OPS)})")
        if op in ("is_null", "not_null") and len(clause) > 2:
            raise ValueError(f"{op} takes no value (clause {clause!r})")
        out["where"].append([col, op, val])
    for name, (fn, src) in dict(spec.get("derive", {})).items():
        if fn not in _FNS:
            raise ValueError(f"unsupported derive fn {fn!r} (have {sorted(_FNS)})")
        if name in keys or name.startswith("_"):
            raise ValueError(f"bad derived column name {name!r}")
        out["derive"][name] = [fn, src]
    if out["columns"] is not None:
        out["columns"] = [c for c in out["columns"] if c not in keys]
    return out


def _input_cols(spec: Mapping, keys: Sequence[str]) -> list[str]:
    """Base value columns the transform reads (where + passthrough + derive
    sources), keys excluded — what the feed must carry / the scoped read scans."""
    need = [c for c, _, _ in spec["where"]]
    need += list(spec["columns"] or ())
    need += [src for _, src in spec["derive"].values()]
    return sorted({c for c in need if c not in keys})


def _where_mask(t: pa.Table, where: Sequence[Sequence]) -> pa.ChunkedArray | pa.Array:
    mask = pa.array(np.ones(len(t), dtype=bool))
    for col, op, val in where:
        c = t[col]
        if op == "==":
            m = pc.equal(c, val)
        elif op == "!=":
            m = pc.not_equal(c, val)
        elif op == "<":
            m = pc.less(c, val)
        elif op == "<=":
            m = pc.less_equal(c, val)
        elif op == ">":
            m = pc.greater(c, val)
        elif op == ">=":
            m = pc.greater_equal(c, val)
        elif op == "in":
            m = pc.is_in(c, value_set=pa.array(val))
        elif op == "not_in":
            # SQL: NULL NOT IN (...) is NULL → fails; is_in maps NULL to
            # false, which would invert to true
            m = pc.and_(pc.is_valid(c), pc.invert(pc.is_in(c, value_set=pa.array(val))))
        elif op == "is_null":
            m = pc.is_null(c)
        else:  # not_null
            m = pc.is_valid(c)
        mask = pc.and_(mask, pc.fill_null(m, False))  # SQL WHERE: NULL fails
    return mask


def _derive_col(t: pa.Table, fn: str, src: str):
    c = t[src]
    if fn == "len":
        # int64 to match SQL LENGTH()'s BIGINT
        return pc.cast(pc.utf8_length(c), pa.int64())
    if fn == "lower":
        return pc.utf8_lower(c)
    if fn == "upper":
        return pc.utf8_upper(c)
    return pc.abs(c)


def _apply_transform(t: pa.Table, spec: Mapping, keys: Sequence[str]) -> pa.Table:
    """WHERE-filter then lay out the derived row: keys + passthrough +
    derived columns. Vectorized end-to-end (one mask, one take)."""
    t = t.combine_chunks()
    t = t.filter(_where_mask(t, spec["where"]))
    cols: dict[str, object] = {k: t[k] for k in keys}
    for c in spec["columns"] or ():
        cols[c] = t[c]
    for name, (fn, src) in spec["derive"].items():
        cols[name] = _derive_col(t, fn, src)
    return pa.table(cols)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def _meta_path(out_dir: str) -> str:
    return os.path.join(out_dir, DERIVED_META)


def _load_meta(out_dir: str) -> dict:
    with open(_meta_path(out_dir)) as f:
        meta = json.load(f)
    rel = meta.get("base_rel")
    if rel:
        cand = os.path.normpath(os.path.join(os.path.abspath(out_dir), rel))
        if os.path.isdir(cand):
            meta["base"] = cand
    return meta


def create_derived(
    base_out: str,
    out_dir: str,
    *,
    transform: Mapping,
    run_id: str = "derived-0",
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> dict:
    """Materialize the derived table from the base's CURRENT state and pin
    the base snapshot version it reflects (snapshot retention is enabled on
    the base so a later feed-less refresh can diff against the pin)."""
    from functools import partial as _p

    from odibel_ray.cdc.mview import _base_keys
    from odibel_ray.cdc.sink import (
        _atomic_write_json,
        _read_plan,
        enable_snapshots,
        list_snapshots,
        publish_dataset,
        read_published,
        snapshot_policy,
    )

    keys = _base_keys(base_out)
    spec = _check_spec(transform, keys)
    if spec["columns"] is None:
        probe = _read_plan(base_out).empty().schema
        spec["columns"] = [n for n in probe.names if n not in keys]
    if snapshot_policy(base_out) is None:
        enable_snapshots(base_out)
    snaps = list_snapshots(base_out)
    if not snaps:
        raise FileNotFoundError(f"base table {base_out} has no published state")
    v0 = snaps[-1]["version"]
    need = list(dict.fromkeys([*keys, *_input_cols(spec, keys), *spec["columns"]]))
    rows = read_published(base_out, columns=need).map_batches(
        _p(_apply_transform, spec=spec, keys=keys),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    res = publish_dataset(rows, out_dir, key_cols=keys, num_buckets=num_buckets, run_id=run_id)
    _atomic_write_json(
        _meta_path(out_dir),
        {
            "base": os.path.abspath(base_out),
            "base_rel": os.path.relpath(os.path.abspath(base_out), os.path.abspath(out_dir)),
            "keys": keys,
            "transform": spec,
            "base_version": v0,
        },
    )
    return {**res, "base_version": v0}


def _feed_dataset(feed) -> "ray.data.Dataset":
    import ray.data as rd

    if isinstance(feed, str):
        return rd.read_parquet(feed)
    return feed


def _dirty_keys_batch(t: pa.Table, keys: list[str]) -> pa.Table:
    """Per-batch distinct keys touched by these feed rows (keys appear
    plainly on feed rows — a derived transform is key-preserving)."""
    return t.combine_chunks().select(keys).group_by(keys).aggregate([])


def _latest_transition(t: pa.Table, keys: list[str]) -> pa.Table:
    """Group-local latest transition per key: max-``_lsn`` row when the feed
    carries ``_lsn``; otherwise every key must appear once — telescoped
    feeds without the ordering column are an error, not a wrong answer."""
    t = t.combine_chunks().drop_columns(["_b"])
    n = len(t)
    if n <= 1:
        return t
    has_lsn = "_lsn" in t.column_names
    sort_keys = [(k, "ascending") for k in keys]
    if has_lsn:
        sort_keys.append(("_lsn", "ascending"))
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
    same_next = _same_next_key_mask(t, keys)
    if same_next.any() and not has_lsn:
        raise ValueError(
            "feed contains several transitions for one key but no _lsn "
            "ordering column; write the feed with feed_lsn=True or use "
            "strategy='rescan'"
        )
    keep = np.ones(n, dtype=bool)
    keep[:-1] = ~same_next  # last row of each key run = max _lsn
    return t.filter(pa.array(keep))


def refresh_derived(
    out_dir: str,
    *,
    run_id: str = "refresh-0",
    strategy: str = "rescan",
    feed=None,
    feed_covers_version: int | None = None,
    batch_size: int = 65536,
    emit_feed: str | None = None,
    mode: str = "cow",
) -> dict:
    """Converge the derived table to the base's latest version, touching only
    dirty keys. See the module docstring for the strategy trade.

    Returns ``{refreshed, strategy, base_version, rows_upserted,
    rows_deleted, buckets_rewritten}``. A no-op (base unchanged, no feed)
    returns ``refreshed=False`` without writing.

    A caller-supplied ``feed`` MUST cover every base change since the pinned
    ``base_version`` (the :func:`~odibel_ray.cdc.pipeline.refresh_pipeline`
    contract — accumulated feed dirs satisfy it by construction); the pin
    then advances to the base's latest version. When the feed covers only a
    PREFIX of the base's new versions, pass ``feed_covers_version=<v>`` so
    the pin advances exactly that far and a later refresh picks up the
    remainder via snapshot diff instead of silently skipping it.

    ``emit_feed``: write THIS refresh's own change feed (upsert-time CDF,
    :func:`odibel_ray.cdc.sink.upsert_published`) so a table maintained over
    this one can refresh from it instead of a snapshot diff — the cascade
    hop :func:`odibel_ray.cdc.pipeline.refresh_pipeline` chains."""
    from functools import partial as _p

    from odibel_ray.cdc.sink import (
        _atomic_write_json,
        list_snapshots,
        read_published,
        table_changes,
        upsert_published,
    )
    from odibel_ray.ops.relational import broadcast_anti_join, broadcast_semi_join, exact_dedup
    from odibel_ray.tuning import default_num_buckets

    if strategy not in ("rescan", "feed"):
        raise ValueError("strategy must be 'rescan' or 'feed'")
    meta = _load_meta(out_dir)
    base, keys, spec = meta["base"], list(meta["keys"]), meta["transform"]
    inputs = _input_cols(spec, keys)
    snaps = list_snapshots(base)
    v1 = snaps[-1]["version"] if snaps else None
    v0 = meta["base_version"]

    if feed is None:
        if v1 is None or v1 == v0:
            return {"refreshed": False, "base_version": v0}
        if v0 not in {s["version"] for s in snaps}:
            # pinned version expired — snapshot diff impossible; full recompute
            # through the same upsert (still rewrites only changed buckets)
            return _full_refresh(out_dir, meta, run_id=run_id, batch_size=batch_size, emit_feed=emit_feed)
        # a snapshot diff is already latest-per-key (no _lsn and needs none),
        # so it feeds either strategy directly
        feed_ds = table_changes(base, v0, v1, keys=keys, values=inputs)
    else:
        feed_ds = _feed_dataset(feed)
        if feed_covers_version is not None:
            if v1 is not None and feed_covers_version > v1:
                raise ValueError(
                    f"feed_covers_version={feed_covers_version} is beyond the "
                    f"base's latest snapshot {v1}"
                )
            v1 = feed_covers_version
        elif v1 is None:
            v1 = v0

    if strategy == "feed":
        feed_cols = set(feed_ds.schema().names)
        missing = [c for c in inputs if f"{c}_after" not in feed_cols]
        # passthrough columns beyond the transform's inputs must ride the
        # feed too — the after-image IS the upsert row
        missing += [
            c for c in spec["columns"] if c not in inputs and f"{c}_after" not in feed_cols
        ]
        if missing:
            raise ValueError(
                f"strategy='feed' needs after-images of {sorted(set(missing))}; "
                "re-run incremental_apply with feed_values covering them "
                "(or use strategy='rescan')"
            )
        nb = default_num_buckets(None)
        carry = sorted({*inputs, *spec["columns"]})

        def to_after(t: pa.Table) -> pa.Table:
            from odibel_ray.cdc.lww import bucket_of_keys

            t = t.combine_chunks()
            cols = {k: t[k] for k in keys}
            cols["change"] = t["change"]
            for c in carry:
                cols[c] = t[f"{c}_after"]
            if "_lsn" in t.column_names:
                cols["_lsn"] = t["_lsn"]
            out = pa.table(cols)
            b = bucket_of_keys(out, keys, nb)
            return out.append_column("_b", pa.array(b, pa.int64()))

        latest = (
            feed_ds.map_batches(to_after, batch_format="pyarrow", batch_size=batch_size)
            .groupby("_b")
            .map_groups(_p(_latest_transition, keys=keys), batch_format="pyarrow")
            .materialize()  # bounded by feed keys, not the base
        )
        live = latest.filter(expr="change != 'delete'")
        drop = ["change"] + (["_lsn"] if "_lsn" in latest.schema().names else [])
        updates = live.drop_columns(drop).map_batches(
            _p(_apply_transform, spec=spec, keys=keys),
            batch_format="pyarrow",
            batch_size=batch_size,
        ).materialize()
        # dirty keys not in updates: base row deleted OR fell out of the WHERE
        dirty = latest.select_columns(keys)
        deletes = exact_dedup(broadcast_anti_join(dirty, updates, on=keys), keys)
    else:
        dirty = (
            feed_ds.map_batches(
                _p(_dirty_keys_batch, keys=keys),
                batch_format="pyarrow",
                batch_size=batch_size,
            )
            .materialize()
        )
        dirty = exact_dedup(dirty, keys).materialize()  # distinct across batches
        need = list(dict.fromkeys([*keys, *inputs, *spec["columns"]]))
        scoped = broadcast_semi_join(read_published(base, columns=need), dirty, on=keys)
        updates = scoped.map_batches(
            _p(_apply_transform, spec=spec, keys=keys),
            batch_format="pyarrow",
            batch_size=batch_size,
        ).materialize()
        deletes = exact_dedup(broadcast_anti_join(dirty, updates, on=keys), keys)

    n_up = updates.count()
    n_del = deletes.count()
    if n_up == 0 and n_del == 0:
        _atomic_write_json(_meta_path(out_dir), {**meta, "base_version": v1})
        return {
            "refreshed": True, "strategy": strategy, "base_version": v1,
            "rows_upserted": 0, "rows_deleted": 0, "buckets_rewritten": 0,
        }
    res = upsert_published(
        updates, out_dir, deletes=deletes if n_del else None, run_id=run_id,
        batch_size=batch_size, feed_dir=emit_feed, mode=mode,
    )
    _atomic_write_json(_meta_path(out_dir), {**meta, "base_version": v1})
    return {
        "refreshed": True,
        "strategy": strategy,
        "base_version": v1,
        "rows_upserted": int(n_up),
        "rows_deleted": int(n_del),
        "buckets_rewritten": res["buckets_rewritten"],
    }


def _full_refresh(out_dir: str, meta: dict, *, run_id: str, batch_size: int, emit_feed: str | None = None) -> dict:
    """Recompute every derived row (the snapshot-expired fallback): transform
    the whole base, delete derived keys that no longer qualify, upsert the
    rest."""
    from functools import partial as _p

    from odibel_ray.cdc.sink import (
        _atomic_write_json,
        list_snapshots,
        read_published,
        upsert_published,
    )
    from odibel_ray.ops.relational import broadcast_anti_join

    base, keys, spec = meta["base"], list(meta["keys"]), meta["transform"]
    need = list(dict.fromkeys([*keys, *_input_cols(spec, keys), *spec["columns"]]))
    updates = read_published(base, columns=need).map_batches(
        _p(_apply_transform, spec=spec, keys=keys),
        batch_format="pyarrow",
        batch_size=batch_size,
    ).materialize()
    cur_keys = read_published(out_dir, system=True, columns=keys)
    deletes = broadcast_anti_join(cur_keys, updates, on=keys)
    n_del = deletes.count()
    res = upsert_published(
        updates, out_dir, deletes=deletes if n_del else None, run_id=run_id,
        batch_size=batch_size, feed_dir=emit_feed,
    )
    v1 = list_snapshots(base)[-1]["version"]
    _atomic_write_json(_meta_path(out_dir), {**meta, "base_version": v1})
    return {
        "refreshed": True,
        "strategy": "full",
        "base_version": v1,
        "rows_upserted": int(updates.count()),
        "rows_deleted": int(n_del),
        "buckets_rewritten": res["buckets_rewritten"],
    }


def read_derived(out_dir: str, *, version: int | None = None) -> "ray.data.Dataset":
    """The derived table's rows (keys + passthrough + derived columns)."""
    from odibel_ray.cdc.sink import read_published

    return read_published(out_dir, system=True, version=version)
