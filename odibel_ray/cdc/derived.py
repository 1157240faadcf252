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
    longer passes the filter become deletes of the ones the derived table
    holds (a key-routed read of its keys, O(dirty keys) when the first key
    column is selective). Cost O(dirty keys), never O(base); correct for any feed (telescoped state files included) because
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

The lifecycle around the transform (the meta reader, the pin at create, the
per-side refresh decision, the converge write and the full refresh) is the
one :mod:`odibel_ray.cdc.pipeline` holds for every maintained table. This
module keeps the spec, the whole-state compute a create publishes and a full
refresh reruns (:func:`_compute`), the ``rescan``/``feed`` derivation of
dirty keys and updates, and :func:`read_derived`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odibel_ray.cdc.lww import _same_next_key_mask
from odibel_ray.cdc.pipeline import (
    DERIVED,
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
# lifecycle (the shared steps live in odibel_ray.cdc.pipeline)
# ---------------------------------------------------------------------------


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
    from odibel_ray.cdc.sink import _read_plan

    keys = _key_cols(base_out)
    spec = _check_spec(transform, keys)
    if spec["columns"] is None:
        probe = _read_plan(base_out).empty().schema
        spec["columns"] = [n for n in probe.names if n not in keys]
    return _create(DERIVED, out_dir, {"base": base_out}, {"keys": keys, "transform": spec},
                   _compute, key_cols=keys, run_id=run_id, num_buckets=num_buckets,
                   batch_size=batch_size)


def _compute(meta: dict, batch_size: int) -> "ray.data.Dataset":
    """Every derived row, from the base's current state: what
    :func:`create_derived` publishes and a full refresh recomputes."""
    from functools import partial as _p

    from odibel_ray.cdc.sink import read_published

    keys, spec = list(meta["keys"]), meta["transform"]
    need = list(dict.fromkeys([*keys, *_input_cols(spec, keys), *spec["columns"]]))
    return read_published(meta["base"], columns=need).map_batches(
        _p(_apply_transform, spec=spec, keys=keys),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


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


def _held(out_dir: str, deletes, keys: list[str]):
    """The rows of ``deletes`` (a dataset of dirty keys that no longer pass)
    whose key the derived table holds now: a refresh deletes only those, so
    a key the table never held neither counts as a delete nor rewrites a
    bucket. The candidates are collected under the broadcast limit and the
    table's keys read routed on the first key column (an ``in`` of the
    candidates' values: only the buckets and deltas whose key filter admits
    one are opened), so the read is O(dirty keys) when that column is
    selective. Every candidate is kept when they pass the broadcast limit
    or one has a null key column (a key join never matches a null): a
    delete of a key the table does not hold changes no row."""
    from odibel_ray.cdc.sink import read_published
    from odibel_ray.ops.relational import (
        DEFAULT_BROADCAST_LIMIT,
        _collect_small,
        broadcast_semi_join,
    )

    deletes = deletes.materialize()
    cand, _ = _collect_small(deletes, DEFAULT_BROADCAST_LIMIT)
    if cand is None or not len(cand) or any(cand[k].null_count for k in keys):
        return deletes
    where = [(keys[0], "in", pc.unique(cand[keys[0]]).to_pylist())]
    held = read_published(out_dir, system=True, columns=keys, where=where)
    return broadcast_semi_join(deletes, held, on=keys)


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

    from odibel_ray.cdc.sink import read_published, table_changes
    from odibel_ray.ops.relational import broadcast_anti_join, broadcast_semi_join, exact_dedup
    from odibel_ray.tuning import default_num_buckets

    if strategy not in ("rescan", "feed"):
        raise ValueError("strategy must be 'rescan' or 'feed'")
    meta = _load_meta(out_dir, DERIVED)
    base, keys, spec = meta["base"], list(meta["keys"]), meta["transform"]
    inputs = _input_cols(spec, keys)
    v0 = meta["base_version"]
    step, v1 = _decide(base, v0)
    write = dict(run_id=run_id, batch_size=batch_size, emit_feed=emit_feed, mode=mode)

    if feed is None:
        if step == "noop":
            return {"refreshed": False, "base_version": v0}
        if step == "full":
            # pinned version expired — snapshot diff impossible; full recompute
            return _full_refresh(DERIVED, out_dir, meta, {"base_version": v1}, _compute, **write)
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
        dirty = latest.select_columns(keys)
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
    # dirty keys not in updates: base row deleted OR fell out of the WHERE
    deletes = _held(out_dir, exact_dedup(broadcast_anti_join(dirty, updates, on=keys), keys), keys)
    return _converge(DERIVED, out_dir, meta, {"base_version": v1}, updates, deletes,
                     strategy=strategy, **write)


def read_derived(out_dir: str, *, version: int | None = None) -> "ray.data.Dataset":
    """The derived table's rows (keys + passthrough + derived columns)."""
    from odibel_ray.cdc.sink import read_published

    return read_published(out_dir, system=True, version=version)
