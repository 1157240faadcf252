"""Metadata-only schema DDL for GENERIC published tables.

The transcript pipeline evolves its schema through the change log itself
(in-band ``op='S'`` events, ``cdc/schema.py`` — the reference's analog is
re-running the whole extraction when the dump schema moves). Generic
published tables — materialized views, derived/clustered serving copies,
arbitrary ``publish_dataset`` output — had no evolution story. This module
is the Delta Lake column-mapping idea over this sink's manifests:

``alter_published(out_dir, add= / rename= / drop=)`` appends operations to
an ordered log in ``<table>/_schema.json``. NO data file is touched:

- **add**    — the column exists logically, reads as NULL everywhere until
  a full rewrite materializes it. Upserts that carry a non-null value for
  an unmaterialized column fail loudly (the value would be silently lost).
- **rename** — pure read-time mapping: data files keep the original
  physical name forever (new upserts translate logical→physical on write,
  so every file in the table keeps ONE physical schema — no per-file
  column-ID resolution needed at scan time).
- **drop**   — logical removal; bytes stay until a rewrite, readers never
  see the column (and may not reference it).
- **widen**  — value-preserving type promotion (int up the signed/unsigned
  chain, ``float32→float64``, exactly-representable ints → ``float64``):
  files keep the narrow physical type, reads cast the column batch-side
  (Arrow compares across widths correctly, so zone-map pruning and scan
  pushdown still run against the narrow column untranslated), and upserts
  safe-cast logical→physical — a value that no longer fits the physical
  type fails loudly until a rewrite materializes the wider type.

``read_published`` resolves the operation log against the physical schema
once per read (driver-side, one footer), then runs its normal zone-map /
pushdown machinery entirely in PHYSICAL column space — predicates on
renamed columns still prune files and row groups — and re-labels each
bucket it reads to the logical schema (``SchemaMap.adapt``, zero-copy).
Simplification vs Delta: the mapping is not versioned — a time-travel read
applies the CURRENT mapping to the old files.

Key columns are pinned by the layout (``_layout.json``) and cannot be
renamed or dropped.

Downstream contract: a maintained table (derived/mview/joinview) pins its
base's column names AT CREATE TIME in its own meta. Renaming or dropping a
column those specs reference makes the next refresh fail LOUDLY
(``no such column``) — never a silent wrong answer; recreate the
downstream table against the new names.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

SCHEMA_OPS = "_schema.json"

# value-preserving promotions (Delta-style type widening); float64 accepts
# only integer types it represents exactly
_INT_BITS = {"int8": 8, "int16": 16, "int32": 32, "int64": 64}
_UINT_BITS = {"uint8": 8, "uint16": 16, "uint32": 32, "uint64": 64}


def _can_widen(src: pa.DataType, dst: pa.DataType) -> bool:
    s, d = str(src), str(dst)
    if s in _INT_BITS and d in _INT_BITS:
        return _INT_BITS[d] > _INT_BITS[s]
    if s in _UINT_BITS and d in _UINT_BITS:
        return _UINT_BITS[d] > _UINT_BITS[s]
    if s in _UINT_BITS and d in _INT_BITS:  # uint8→int16 … uint32→int64
        return _INT_BITS[d] > _UINT_BITS[s]
    if s == "float" and d == "double":
        return True
    if d == "double":  # ints float64 represents exactly (≤ 2^53)
        return _INT_BITS.get(s, 64) <= 32 or _UINT_BITS.get(s, 64) <= 32
    if d == "float" and (_INT_BITS.get(s, 32) <= 16 or _UINT_BITS.get(s, 32) <= 16):
        return True
    return False


def _ops_path(out_dir: str) -> str:
    return os.path.join(out_dir, SCHEMA_OPS)


def load_schema_meta(out_dir: str) -> dict:
    """The raw op-log file: ``{"ops": [...]}`` plus, while a rewrite is in
    flight, ``"materialized_run"`` (see :func:`materialize_ddl`)."""
    p = _ops_path(out_dir)
    if not os.path.exists(p):
        return {"ops": []}
    with open(p) as f:
        return json.load(f)


def load_schema_ops(out_dir: str) -> list[dict]:
    return load_schema_meta(out_dir)["ops"]


class SchemaMap:
    """The operation log folded over a physical file schema.

    ``fields``: ordered logical fields (renames keep position, drops remove,
    adds append). ``to_physical``: logical → physical name for file-backed
    columns. ``added``: logical → type for metadata-only columns (read as
    NULL until a rewrite materializes them).
    """

    def __init__(self, physical: pa.Schema, ops: list[dict]):
        # (logical_name, physical_name | None, type)
        cols: list[list] = [[f.name, f.name, f.type] for f in physical]

        def idx(name: str) -> int:
            for i, c in enumerate(cols):
                if c[0] == name:
                    return i
            raise KeyError(f"no such column {name!r} (have {[c[0] for c in cols]})")

        for op in ops:
            if op["kind"] == "add":
                if any(c[0] == op["name"] for c in cols):
                    raise ValueError(f"add: column {op['name']!r} already exists")
                cols.append([op["name"], None, pa.type_for_alias(op["type"])])
            elif op["kind"] == "rename":
                if any(c[0] == op["to"] for c in cols):
                    raise ValueError(f"rename: column {op['to']!r} already exists")
                cols[idx(op["from"])][0] = op["to"]
            elif op["kind"] == "drop":
                cols.pop(idx(op["name"]))
            elif op["kind"] == "widen":
                c = cols[idx(op["name"])]
                new = pa.type_for_alias(op["type"])
                if not _can_widen(c[2], new):
                    raise ValueError(
                        f"widen: {op['name']!r} {c[2]} → {new} is not a "
                        "value-preserving promotion"
                    )
                c[2] = new
            else:  # pragma: no cover - guarded at alter time
                raise ValueError(f"unknown schema op kind {op['kind']!r}")
        self.fields = [pa.field(n, t) for n, _, t in cols]
        self.to_physical = {n: p for n, p, _ in cols if p is not None}
        self.added = {n: t for n, p, t in cols if p is None}

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def logical_schema(self, columns: list[str] | None = None) -> pa.Schema:
        by = {f.name: f for f in self.fields}
        names = self.names if columns is None else columns
        return pa.schema([by[n] for n in names])

    def check_columns(self, columns: list[str]) -> None:
        missing = [c for c in columns if c not in self.to_physical and c not in self.added]
        if missing:
            raise KeyError(f"no such column(s) {missing} (have {self.names})")

    def physical_columns(self, columns: list[str] | None = None) -> list[str]:
        names = self.names if columns is None else columns
        return [self.to_physical[c] for c in names if c in self.to_physical]

    def translate_where(self, where: list) -> tuple[list, bool]:
        """Predicate in physical column space. Conjuncts on unmaterialized
        (added) columns evaluate against their all-NULL reality: ``is_null``
        is vacuously true (conjunct removed), every other op cannot match —
        returns ``(_, False)`` meaning the whole read is provably empty."""
        out = []
        for col, op, val in where:
            self.check_columns([col])
            if col in self.added:
                if op == "is_null":
                    continue
                return [], False
            out.append((self.to_physical[col], op, val))
        return out, True

    def adapt(self, t: pa.Table, columns: list[str] | None = None) -> pa.Table:
        """Physical-named batch → logical schema (zero-copy: renames are
        relabels, added columns are null arrays)."""
        names = self.names if columns is None else columns
        logical = {f.name: f.type for f in self.fields}
        cols = {}
        for n in names:
            if n in self.to_physical:
                c = t[self.to_physical[n]]
                if c.type != logical[n]:  # widened: cast narrow file → logical
                    c = c.cast(logical[n])
                cols[n] = c
            else:
                cols[n] = pa.nulls(len(t), self.added[n])
        return pa.table(cols)


def alter_published(
    out_dir: str,
    *,
    add: dict[str, str] | None = None,
    rename: dict[str, str] | None = None,
    drop: list[str] | None = None,
    widen: dict[str, str] | None = None,
) -> dict:
    """Append schema operations (applied in add → rename → drop → widen order
    within one call; call repeatedly for other orders). Metadata-only and
    validated against the CURRENT logical schema before anything is
    written."""
    from odibel_ray.cdc.sink import TABLE_MANIFEST, _read_plan, table_lock

    if not os.path.exists(os.path.join(out_dir, TABLE_MANIFEST)):
        raise FileNotFoundError(f"no published table under {out_dir}")
    plan = _read_plan(out_dir)
    layout = plan.layout
    if layout["system"]:
        raise ValueError(
            "alter_published targets GENERIC published tables; transcript "
            "tables evolve through in-log schema-change events"
        )
    key_cols = set(layout["key_cols"])
    cluster_cols = set(layout["cluster_by"] or [])

    if not plan.checked:
        raise FileNotFoundError(f"no published buckets under {out_dir}")
    # the op log is a read-modify-write: without the writer lease a
    # concurrent alter (or an in-flight materialize_ddl stamping
    # materialized_run between our load and our write) would be clobbered
    with table_lock(out_dir, owner="alter_published"):
        return _alter_locked(out_dir, add=add, rename=rename, drop=drop,
                             widen=widen, key_cols=key_cols,
                             cluster_cols=cluster_cols)


def _alter_locked(out_dir, *, add, rename, drop, widen, key_cols, cluster_cols):
    from odibel_ray.cdc.sink import _atomic_write_json, _read_plan

    meta = load_schema_meta(out_dir)
    if meta.get("materialized_run"):
        raise ValueError(
            "a materialize_ddl rewrite is in flight on this table; re-run "
            f"materialize_ddl(run_id={meta['materialized_run']!r}) to finish "
            "it before altering further"
        )
    physical = _read_plan(out_dir).schema
    ops = meta["ops"]
    new_ops = []
    for name, typ in (add or {}).items():
        pa.type_for_alias(typ)  # validate early
        new_ops.append({"kind": "add", "name": name, "type": typ})
    for src, dst in (rename or {}).items():
        if src in key_cols:
            raise ValueError(f"cannot rename key column {src!r} (layout-pinned)")
        new_ops.append({"kind": "rename", "from": src, "to": dst})
    for name in drop or ():
        if name in key_cols:
            raise ValueError(f"cannot drop key column {name!r} (layout-pinned)")
        if name in cluster_cols:
            raise ValueError(
                f"cannot drop clustering column {name!r} (the layout's range/"
                "z-order bounds are derived from it); re-publish with a new "
                "cluster_by instead"
            )
        new_ops.append({"kind": "drop", "name": name})
    for name, typ in (widen or {}).items():
        pa.type_for_alias(typ)  # validate early; promotion checked in the fold
        if name in key_cols:
            raise ValueError(f"cannot widen key column {name!r} (layout-pinned)")
        new_ops.append({"kind": "widen", "name": name, "type": typ})
    if not new_ops:
        raise ValueError("nothing to alter (pass add=/rename=/drop=/widen=)")
    combined = ops + new_ops
    m = SchemaMap(physical, combined)  # validates the whole log folds cleanly
    _atomic_write_json(_ops_path(out_dir), {"ops": combined})
    return {"ops_applied": len(new_ops), "logical_columns": m.names}


def materialize_ddl(out_dir: str, *, run_id: str = "ddl-rw-0") -> dict:
    """Rewrite the table so the accumulated schema ops become PHYSICAL —
    renamed columns get their logical names, added columns exist in the
    files (NULL, upsertable with real values afterwards), dropped bytes
    leave disk, widened columns take their wide type — then clear the op
    log. The one data-rewriting DDL op; everything in ``alter_published``
    stays metadata-only until a caller decides the rewrite is worth it.

    Crash-safe bucket-at-a-time: the op log is first stamped with
    ``materialized_run``; each bucket rewrite publishes atomically under
    that run id, and readers treat stamped-run buckets as already-logical
    while the rest still fold the op log — a reader mid-rewrite (or after a
    crash) sees the correct logical table either way. Re-running resumes:
    already-flipped buckets are skipped, and the op log is removed only
    after every bucket carries the stamp. ``alter_published`` and upserts
    are refused while the stamp is in flight (single-writer discipline).

    The rewrite follows the sink's executor cutover: the driver rewrites
    one bucket after another when the pending buckets' base files total at
    most ``sink.DRIVER_MAX_BYTES``, otherwise one Ray Data task per bucket
    does; the result's ``executor`` says which ran (None when nothing was
    rewritten)."""
    import pyarrow.parquet as pq

    from odibel_ray.cdc.apply import map_items
    from odibel_ray.cdc.sink import (
        LAYOUT_FILE,
        STAGING_DIR,
        TABLE_MANIFEST,
        _atomic_write_json,
        _commit_table,
        _executor_for,
        _filter_cols,
        _publish_stream,
        _read_plan,
        _stage_bucket,
        table_lock,
    )

    meta = load_schema_meta(out_dir)
    ops = meta["ops"]
    if not ops:
        return {"materialized": 0, "skipped": 0, "executor": None, "out_dir": out_dir}
    with table_lock(out_dir, owner=f"materialize_ddl:{run_id}"):
        plan = _read_plan(out_dir)
        manifests = plan.checked
        # refuse BEFORE stamping: a stamp followed by this raise would wedge
        # the table (upserts/alter refuse while the stamp is in flight, and
        # re-running would just re-raise)
        if any(m.get("deltas") for m in manifests.values()):  # pragma: no cover
            raise ValueError("compact merge-on-read deltas before materialize_ddl")
        with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
            gen = int(json.load(f).get("ddl_generation", 0))
        # Scope the rewrite id to a per-cycle GENERATION: a bare reused
        # run_id (the CLI always passes the default) would make a SECOND
        # alter+materialize cycle see every bucket as already-flipped
        # (manifest run_id == rid), rewrite nothing, and still clear the op
        # log — silently discarding the new schema ops.
        rid = meta.get("materialized_run") or f"{run_id}-g{gen}"
        if not meta.get("materialized_run"):
            _atomic_write_json(_ops_path(out_dir), {**meta, "materialized_run": rid})
        pending = {b: m for b, m in sorted(manifests.items()) if m.get("run_id") != rid}
        n_done, executor = 0, None
        if pending:
            # a pending bucket's physical schema: on a resume the plan
            # prefers the buckets the stamped run has not rewritten
            smap = SchemaMap(plan.schema, ops)
            staging = os.path.join(out_dir, STAGING_DIR, rid)
            os.makedirs(staging, exist_ok=True)
            key_cols = plan.layout["key_cols"]
            layout = plan.layout["pinned"]
            bloom_cols: list[str] = []
            if layout is not None:
                # Translate layout column references through the rename/drop
                # ops BEFORE the first rewrite: files come out carrying
                # logical names, so a bloom/cluster column pinned under its
                # old physical name would stop matching — dropping its
                # filters and crashing every later upsert/DML filter build.
                # Idempotent (resume-safe): already-logical names map to
                # themselves; names dropped by the ops are removed.
                p2l = {p: n for n, p in smap.to_physical.items()}

                def _xlate(names):
                    out = []
                    for c in names or []:
                        if c in p2l:
                            out.append(p2l[c])
                        elif c in smap.names:  # already logical (resume)
                            out.append(c)
                        # else: dropped column — reference removed
                    return out

                changed = False
                if layout.get("bloom_cols"):
                    nb = _xlate(layout["bloom_cols"])
                    changed |= nb != layout["bloom_cols"]
                    layout["bloom_cols"] = nb or None
                if layout.get("cluster_by"):
                    nc = _xlate(layout["cluster_by"])
                    changed |= nc != layout["cluster_by"]
                    layout["cluster_by"] = nc
                if changed:
                    _atomic_write_json(os.path.join(out_dir, LAYOUT_FILE), layout)
                bloom_cols = list(layout.get("bloom_cols") or [])

            def _rewrite(m: dict) -> pa.Table:
                out = smap.adapt(pq.read_table(os.path.join(out_dir, m["file"])))
                # a bloom-indexed table keeps its equality pruning through
                # the rewrite: like every bucket write, it stores the new
                # file's filters, here on logical names, in its manifest
                return _stage_bucket(
                    out,
                    bucket=int(m["bucket"]),
                    filter_cols=_filter_cols(
                        key_cols, [c for c in bloom_cols if c in out.column_names]),
                    staging=staging,
                    run_id=rid,
                    n_events=int(m.get("n_events", m["rows_out"])),
                    watermarks=json.dumps(m.get("watermarks", {})),
                )

            executor = _executor_for([os.path.join(out_dir, m["file"]) for m in pending.values()])
            out = map_items(_rewrite, list(pending.values()), executor)
            n_done = len(_publish_stream(out, out_dir))
        os.remove(_ops_path(out_dir))
        with open(os.path.join(out_dir, TABLE_MANIFEST)) as f:
            tman = json.load(f)
        # bump the DDL generation so the NEXT alter+materialize cycle derives
        # a fresh rewrite id even with the same caller run_id
        tman["ddl_generation"] = gen + 1
        _, snap = _commit_table(out_dir, tman, "materialize_ddl", rid)
    return {
        "materialized": n_done,
        "skipped": len(manifests) - n_done,
        "ops_cleared": len(ops),
        "snapshot": snap,
        "executor": executor,
        "out_dir": out_dir,
    }
