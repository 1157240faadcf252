"""Predicate DML over generic published tables: DELETE FROM / UPDATE.

The reference has no in-place mutation at all — every curated output is
recomputed from scratch by re-running a full extraction job (each
``eval/*.scala`` re-reads the whole TKG; corrections re-run
``transform/TKGModelMgr.scala``). A lakehouse engine needs the Delta/Iceberg
row-level DML surface instead: ``DELETE FROM t WHERE p`` and
``UPDATE t SET c = e WHERE p`` that touch only the data the predicate
selects.

Both operations are two bounded stages, never O(table):

1. **Find** — :func:`~odibel_ray.cdc.sink.read_published` with the same
   conjunctive ``where`` spec the reader pushes down: zone-map file pruning,
   row-group pruning and a scan-level row filter, so only candidate files are
   opened and only matching rows leave storage. DELETE scans just the key
   columns.
2. **Write** — the matching rows feed
   :func:`~odibel_ray.cdc.sink.upsert_published`, which rewrites only the
   buckets containing touched keys (copy-on-write) or stages per-bucket
   deltas (``mode="mor"``), under the same write-audit-publish atomicity,
   idempotent-resume, expectations, snapshot and change-feed machinery as
   every other write.

SQL semantics: the predicate uses SQL ``WHERE`` NULL rules — a NULL clause
fails, so ``DELETE ... WHERE score < 0.3`` keeps NULL-score rows, exactly
like the SQL statement. ``UPDATE`` assignments are literals or single-column
scalar derivations (the :mod:`~odibel_ray.cdc.derived` function set); key
columns cannot be assigned (SQL engines reject primary-key UPDATE the same
way — model it as delete + insert).
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from odibel_ray.cdc.derived import _FNS, _derive_col

_BATCH = 65536


def _dml_run_id(run_id: str | None, stmt: str) -> str:
    """Default run ids are UNIQUE per statement: a fixed default would make
    two different DML statements stage the same bucket filename, turning
    copy-on-write into an in-place overwrite of the live file (with a
    crash window in which the bucket's manifest audit fails and the bucket
    silently disappears from reads). Pass an explicit ``run_id`` to make a
    statement crash-resumable / idempotently re-runnable — and reuse it
    only for re-runs of the SAME statement."""
    if run_id is not None:
        return run_id
    import uuid

    return f"{stmt}-{uuid.uuid4().hex[:8]}"


def _generic_layout(out_dir: str) -> dict:
    from odibel_ray.cdc.sink import _table_layout

    layout = _table_layout(out_dir)
    if layout["system"]:
        raise FileNotFoundError(
            f"{out_dir} is not a generic published table (no _layout.json); "
            "DML targets publish_dataset tables — transcript tables mutate "
            "through their change log (incremental_apply with D events)"
        )
    return layout


def delete_published(
    out_dir: str,
    where: Sequence[Sequence],
    *,
    run_id: str | None = None,
    mode: str = "cow",
    feed_dir: str | None = None,
    feed_values: list[str] | None = None,
    metrics: str | None = None,
    batch_size: int = _BATCH,
) -> dict:
    """``DELETE FROM <out_dir> WHERE <where>``.

    ``where`` is the reader's conjunctive predicate spec
    (``[(col, op, value), ...]``; ops ``== != < <= > >= in not_in is_null
    not_null``) with SQL NULL semantics — rows where the predicate is NULL
    survive, as in SQL. The key-only matching scan is zone-map pruned, so
    on a clustered/z-ordered-correlated predicate whole files are skipped.

    Returns the :func:`upsert_published` result dict plus ``rows_deleted``.
    Idempotent: re-running deletes nothing new and publishes no new version
    state beyond the no-op write.
    """
    from odibel_ray.cdc.sink import read_published, upsert_published

    if not where:
        raise ValueError(
            "refusing DELETE with an empty predicate (would truncate the "
            "table); pass an explicit always-true clause if you mean it"
        )
    run_id = _dml_run_id(run_id, "delete")
    keys = _generic_layout(out_dir)["key_cols"]
    matching = read_published(out_dir, where=list(where), columns=keys)
    n = matching.count()
    if n == 0:
        return {"rows_deleted": 0, "buckets_rewritten": 0, "run_id": run_id}
    res = upsert_published(
        None,
        out_dir,
        deletes=matching,
        run_id=run_id,
        mode=mode,
        feed_dir=feed_dir,
        feed_values=feed_values,
        metrics=metrics,
        batch_size=batch_size,
    )
    res["rows_deleted"] = n
    return res


def _check_assignments(
    assign: Mapping, keys: Sequence[str], columns: Sequence[str],
    types: Mapping | None = None,
) -> dict:
    if not assign:
        raise ValueError("UPDATE needs at least one SET assignment")
    out = {}
    for col, expr in assign.items():
        if col in keys:
            raise ValueError(
                f"cannot UPDATE key column {col!r}; model a key change as "
                "delete + insert"
            )
        if col not in columns:
            raise ValueError(f"unknown column {col!r} (have {list(columns)})")
        if isinstance(expr, tuple):
            fn, src = expr
            if fn not in _FNS:
                raise ValueError(f"unsupported SET function {fn!r} (have {sorted(_FNS)})")
            if src not in columns:
                raise ValueError(f"SET source column {src!r} not in table")
            out[col] = ("fn", fn, src)
        else:
            if types is not None:
                # fail-fast on a lossy/invalid literal BEFORE the predicate
                # scan runs and anything stages (the documented contract)
                try:
                    pa.scalar(expr).cast(types[col])
                except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError) as e:
                    raise ValueError(
                        f"SET {col!r}: literal {expr!r} does not cast to the "
                        f"column type {types[col]}: {e}"
                    ) from None
            out[col] = ("lit", expr)
    return out


def update_published(
    out_dir: str,
    assign: Mapping,
    where: Sequence[Sequence],
    *,
    run_id: str | None = None,
    mode: str = "cow",
    feed_dir: str | None = None,
    feed_values: list[str] | None = None,
    metrics: str | None = None,
    batch_size: int = _BATCH,
) -> dict:
    """``UPDATE <out_dir> SET <assign> WHERE <where>``.

    ``assign`` maps column → new value: a literal scalar, or a
    ``(fn, src_col)`` tuple applying one of the derived-table scalar
    functions (``len | lower | upper | abs``) to a source column of the
    same row. Assigned values cast to the column's existing type — a
    lossy/invalid literal fails the whole statement before anything stages.
    ``where`` as in :func:`delete_published`; an empty predicate is allowed
    here (SQL ``UPDATE`` without ``WHERE`` is well-defined) but still pays
    only O(table scan) + O(touched buckets).

    Returns the :func:`upsert_published` result dict plus ``rows_updated``.
    """
    from odibel_ray.cdc.sink import read_published, upsert_published

    run_id = _dml_run_id(run_id, "update")
    keys = _generic_layout(out_dir)["key_cols"]
    matching = read_published(out_dir, where=list(where) or None)
    schema = matching.schema()
    columns = list(schema.names)
    types = {n: t for n, t in zip(schema.names, schema.types)}
    assigns = _check_assignments(assign, keys, columns, types)

    def apply_set(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        cols = {}
        for name in t.column_names:
            if name not in assigns:
                cols[name] = t[name]
                continue
            spec = assigns[name]
            if spec[0] == "lit":
                val = pa.scalar(spec[1]).cast(types[name])
                cols[name] = pa.repeat(val, len(t))
            else:
                cols[name] = pc.cast(_derive_col(t, spec[1], spec[2]), types[name])
        return pa.table(cols)

    updates = matching.map_batches(
        apply_set, batch_format="pyarrow", batch_size=batch_size
    )
    # row count from a keys-only scan (same pruning, narrowest projection)
    # rather than re-executing the full transform
    n = read_published(out_dir, where=list(where) or None, columns=keys).count()
    if n == 0:
        return {"rows_updated": 0, "buckets_rewritten": 0, "run_id": run_id}
    res = upsert_published(
        updates,
        out_dir,
        run_id=run_id,
        mode=mode,
        feed_dir=feed_dir,
        feed_values=feed_values,
        metrics=metrics,
        batch_size=batch_size,
    )
    res["rows_updated"] = n
    return res


# ---------------------------------------------------------------------------
# MERGE INTO
# ---------------------------------------------------------------------------

_MERGE_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
}
#: internal prefix for target-side condition columns inside the classify join
_T_PREFIX = "__t_"


def _is_col_ref(o) -> bool:
    return isinstance(o, tuple) and len(o) == 2 and o[0] in ("s", "t")


def _merge_cond_cols(clauses: Sequence | None, side: str) -> list[str]:
    """Columns of ``side`` (``'s'``/``'t'``) referenced by the clause list."""
    cols = []
    for cl in clauses or ():
        for o in (cl[0], cl[2] if len(cl) == 3 else None):
            if _is_col_ref(o) and o[0] == side and o[1] not in cols:
                cols.append(o[1])
    return cols


def _check_merge_cond(clauses: Sequence | None, what: str) -> None:
    for cl in clauses or ():
        if len(cl) == 2:
            l, op = cl
            if op not in ("is_null", "not_null"):
                raise ValueError(f"{what}: 2-clause op must be is_null/not_null, got {op!r}")
            if not _is_col_ref(l):
                raise ValueError(f"{what}: {op} needs a ('s'|'t', col) column ref")
        elif len(cl) == 3:
            l, op, r = cl
            if op not in _MERGE_OPS:
                raise ValueError(f"{what}: unsupported op {op!r} (have {sorted(_MERGE_OPS)})")
            if not (_is_col_ref(l) or _is_col_ref(r)):
                raise ValueError(f"{what}: at least one operand must be a column ref")
        else:
            raise ValueError(f"{what}: clause must be (ref, op) or (l, op, r), got {cl!r}")


def _merge_operand(tbl: pa.Table, o, keys: Sequence[str] = ()):
    if _is_col_ref(o):
        # target KEY columns keep their plain names through the classify
        # join (they ARE the join key, equal to the source's for matched
        # rows); only non-key target columns carry the _T_PREFIX rename
        name = o[1] if (o[0] == "s" or o[1] in keys) else _T_PREFIX + o[1]
        return tbl[name]
    return pa.scalar(o)


def _eval_merge_cond(
    tbl: pa.Table, clauses: Sequence | None, keys: Sequence[str] = ()
) -> pa.ChunkedArray:
    """Conjunctive clause evaluation with SQL WHERE NULL semantics (a NULL
    clause fails, so the row does NOT take the action — exactly the SQL
    MERGE ``AND <condition>`` behavior)."""
    import numpy as np

    mask = None
    for cl in clauses or ():
        if len(cl) == 2:
            arr = _merge_operand(tbl, cl[0], keys)
            res = pc.is_null(arr) if cl[1] == "is_null" else pc.is_valid(arr)
        else:
            res = _MERGE_OPS[cl[1]](_merge_operand(tbl, cl[0], keys),
                                    _merge_operand(tbl, cl[2], keys))
        res = pc.fill_null(res, False)
        mask = res if mask is None else pc.and_(mask, res)
    if mask is None:
        return pa.chunked_array([pa.array(np.ones(len(tbl), bool))])
    return mask if isinstance(mask, pa.ChunkedArray) else pa.chunked_array([mask])


def merge_published(
    source,
    out_dir: str,
    *,
    when_matched: str | None = "update",
    matched_condition: Sequence | None = None,
    when_not_matched: str | None = "insert",
    not_matched_condition: Sequence | None = None,
    when_not_matched_by_source: str | None = None,
    not_matched_by_source_condition: Sequence | None = None,
    run_id: str | None = None,
    mode: str = "cow",
    feed_dir: str | None = None,
    feed_values: list[str] | None = None,
    metrics: str | None = None,
    batch_size: int = _BATCH,
) -> dict:
    """``MERGE INTO <out_dir> USING <source> ON <layout keys>`` — the Delta
    Lake / SQL:2003 conditional-merge surface over a generic published table
    (the reference has no mutation surface at all; every correction re-runs a
    full extraction, ``transform/TKGModelMgr.scala``):

    - ``when_matched="update"`` — a source row whose key exists in the table
      REPLACES the stored row (full-row update), optionally gated by
      ``matched_condition`` (e.g. only when the incoming row is fresher).
    - ``when_matched="delete"`` — a matched source row deletes the stored row.
    - ``when_not_matched="insert"`` — unmatched source rows insert, optionally
      gated by ``not_matched_condition``.
    - ``when_not_matched_by_source="delete"`` — stored rows whose key is
      absent from the source delete, gated by
      ``not_matched_by_source_condition`` (the SQL ``WHEN NOT MATCHED BY
      SOURCE`` clause; activating it scans every bucket's keys — O(table)
      keys read, like the SQL statement).

    Conditions are conjunctive clause lists ``[(l, op, r), ...]`` with ops
    ``== != < <= > >=`` plus ``(ref, "is_null"|"not_null")``; an operand is a
    column ref ``("s", col)`` (source) / ``("t", col)`` (target) or a literal,
    so the CDC staple "apply only if newer" is
    ``matched_condition=[(("t","ts"), "<", ("s","ts"))]``. NULL comparisons
    fail the clause (SQL semantics): a matched row whose condition is NULL is
    left unchanged.

    Execution is Ray-Data-native and bounded: ONE shuffle of the source
    (hash-grouped to the table's bucket layout), one map task per touched
    bucket that reads ONLY that bucket's keys + referenced target condition
    columns (merge-on-read deltas LWW-merged) and classifies rows vectorized,
    then the classified actions write through
    :func:`~odibel_ray.cdc.sink.upsert_published` — O(touched buckets)
    copy-on-write or O(actions) merge-on-read, with the same atomicity,
    expectations, snapshot, change-feed and idempotent-resume behavior as
    every other write. Like SQL MERGE, multiple source rows for one key are
    an error (raised during classification).
    """
    import shutil

    import numpy as np
    import ray.data as rd

    from odibel_ray.cdc.lww import _same_next_key_mask, bucket_of_keys
    from odibel_ray.cdc.sink import _read_bucket, _read_plan, upsert_published

    run_id = _dml_run_id(run_id, "merge")
    if when_matched not in ("update", "delete", None):
        raise ValueError("when_matched must be 'update', 'delete' or None")
    if when_not_matched not in ("insert", None):
        raise ValueError("when_not_matched must be 'insert' or None")
    if when_not_matched_by_source not in ("delete", None):
        raise ValueError("when_not_matched_by_source must be 'delete' or None")
    if not (when_matched or when_not_matched or when_not_matched_by_source):
        raise ValueError("MERGE with no WHEN clause does nothing; pass at least one action")
    for cond, what in (
        (matched_condition, "matched_condition"),
        (not_matched_condition, "not_matched_condition"),
        (not_matched_by_source_condition, "not_matched_by_source_condition"),
    ):
        _check_merge_cond(cond, what)
    if _merge_cond_cols(not_matched_condition, "t"):
        raise ValueError("not_matched_condition cannot reference ('t', ...) columns "
                         "(there is no matched target row)")
    if _merge_cond_cols(not_matched_by_source_condition, "s"):
        raise ValueError("not_matched_by_source_condition cannot reference ('s', ...) "
                         "columns (there is no matching source row)")

    layout = _generic_layout(out_dir)
    if layout["cluster_by"]:
        raise ValueError("MERGE cannot target a range-clustered table (a key's bucket "
                         "is not derivable from the key); maintain the hash-bucketed primary")
    keys = layout["key_cols"]
    num_buckets = layout["num_buckets"]
    plan = _read_plan(out_dir)
    if plan.ops:
        raise ValueError(
            "MERGE over a table with pending metadata-only schema ops is not "
            "supported (the classification reads physical files directly); "
            "materialize_ddl first"
        )

    src_schema = source.schema().base_schema
    src_names = list(src_schema.names)
    for k in keys:
        if k not in src_names:
            raise ValueError(f"source is missing layout key column {k!r}")
    bad = [c for c in src_names if c.startswith(_T_PREFIX) or c in ("_mb", "_action", "__matched")]
    if bad:
        raise ValueError(f"source column names collide with MERGE internals: {bad}")
    for c in _merge_cond_cols(matched_condition, "s") + _merge_cond_cols(not_matched_condition, "s"):
        if c not in src_names:
            raise ValueError(f"condition references source column {c!r} not in source")

    manifests = plan.checked
    bucket_file = {b: os.path.join(out_dir, m["file"]) for b, m in manifests.items()}
    t_cond_cols = sorted(
        set(_merge_cond_cols(matched_condition, "t"))
        | set(_merge_cond_cols(not_matched_by_source_condition, "t"))
    )
    if bucket_file:
        canon = plan.schema
    else:
        canon = src_schema  # merge into an empty table: inserts define the schema
    for c in t_cond_cols:
        if c not in canon.names:
            raise ValueError(f"condition references target column {c!r} not in table")
    if bucket_file and (when_matched == "update" or when_not_matched):
        # fail BEFORE the classification shuffle: update/insert actions write
        # through upsert_published, which requires the source to carry every
        # table column — catching it here avoids burning a full classify pass
        # and leaving a stale resume marker behind
        need = [c for c in canon.names if not c.startswith("_")]
        missing = [c for c in need if c not in src_names]
        if missing:
            raise ValueError(
                f"MERGE source is missing table column(s) {missing} required "
                "by the update/insert actions"
            )
    tcols_read = keys + [c for c in t_cond_cols if c not in keys]
    tgt_read_schema = pa.schema([canon.field(c) for c in tcols_read])
    out_schema = src_schema.append(pa.field("_action", pa.string()))

    def _tag(t: pa.Table) -> pa.Table:
        for k in keys:
            if t[k].null_count:
                raise ValueError(f"source key column {k!r} contains NULLs")
        return t.append_column("_mb", pa.array(bucket_of_keys(t, keys, num_buckets)))

    tagged = source.map_batches(_tag, batch_format="pyarrow", batch_size=batch_size)
    if when_not_matched_by_source:
        # NOT MATCHED BY SOURCE must visit every existing bucket, including
        # ones no source row hashes to: inject one null-key marker row per
        # published bucket so the groupby produces a task for each.
        mcols = {c: pa.nulls(len(bucket_file), src_schema.field(c).type) for c in src_names}
        mcols["_mb"] = pa.array(sorted(bucket_file), pa.int64())
        if bucket_file:
            tagged = tagged.union(rd.from_arrow(pa.table(mcols)))

    def _classify(group: pa.Table) -> pa.Table:
        from odibel_ray.cdc.apply import limit_arrow_threads

        limit_arrow_threads()
        if len(group) == 0:
            return out_schema.empty_table()
        b = int(group["_mb"][0].as_py())
        src = group.drop_columns(["_mb"]).combine_chunks()
        # drop NOT-MATCHED-BY-SOURCE marker rows (real rows never have null keys)
        src = src.filter(pc.is_valid(src[keys[0]]))
        if len(src) > 1:
            srt = src.take(pc.sort_indices(src, sort_keys=[(k, "ascending") for k in keys]))
            same = _same_next_key_mask(srt, keys)
            if same.any():
                i = int(np.flatnonzero(same)[0])
                dup = {k: srt[k][i].as_py() for k in keys}
                raise ValueError(f"MERGE source has multiple rows for key {dup} "
                                 "(SQL MERGE cardinality violation)")
        if b in manifests:
            tgt = _read_bucket(out_dir, manifests[b], layout, columns=tcols_read)
        else:
            tgt = tgt_read_schema.empty_table()
        tgt = tgt.rename_columns(keys + [_T_PREFIX + c for c in tcols_read[len(keys):]])
        pieces = []

        def _emit(rows: pa.Table, action: str) -> None:
            if len(rows) == 0:
                return
            cols = {}
            for c in src_names:
                cols[c] = (rows[c] if c in rows.column_names
                           else pa.nulls(len(rows), src_schema.field(c).type))
            cols["_action"] = pa.array(np.full(len(rows), action), pa.string())
            pieces.append(pa.table(cols).cast(out_schema))

        if len(src):
            marked = tgt.append_column(
                "__matched", pa.array(np.ones(len(tgt), np.int8))
            )
            joined = src.join(marked, keys=keys, join_type="left outer").combine_chunks()
            matched = pc.is_valid(joined["__matched"])
            if when_matched:
                m = pc.and_(matched, _eval_merge_cond(joined, matched_condition, keys))
                hit = joined.filter(m)
                _emit(hit.select(src_names) if when_matched == "update"
                      else hit.select(keys), when_matched)
            if when_not_matched:
                m = pc.and_(pc.invert(matched),
                            _eval_merge_cond(joined, not_matched_condition, keys))
                _emit(joined.filter(m).select(src_names), "insert")
        if when_not_matched_by_source and len(tgt):
            only_t = tgt.join(src.select(keys), keys=keys, join_type="left anti")
            m = _eval_merge_cond(only_t, not_matched_by_source_condition, keys)
            _emit(only_t.filter(m).select(keys), "delete")
        if not pieces:
            return out_schema.empty_table()
        return pa.concat_tables(pieces)

    classified = tagged.groupby("_mb").map_groups(_classify, batch_format="pyarrow")
    # the classification scratch lives under the TABLE's staging dir, not
    # local /tmp: on a multi-node cluster the write tasks and the re-reading
    # driver only share the table's storage. Deterministic name (run_id, no
    # pid); "-merge" suffix keeps it clear of upsert_published's own
    # staging/<run_id>
    from odibel_ray.cdc.sink import STAGING_DIR

    tmp = os.path.join(out_dir, STAGING_DIR, f"{run_id}-merge")
    data_dir = os.path.join(tmp, "data")
    marker = os.path.join(tmp, "_classified.json")
    stmt_fp = json.dumps({
        "when_matched": when_matched,
        "when_not_matched": when_not_matched,
        "when_not_matched_by_source": when_not_matched_by_source,
        "matched_condition": repr(matched_condition),
        "not_matched_condition": repr(not_matched_condition),
        "not_matched_by_source_condition": repr(not_matched_by_source_condition),
        "keys": keys, "src_names": src_names, "mode": mode,
    }, sort_keys=True)
    if os.path.exists(marker):
        # crash-resume: REUSE the first run's completed classification.
        # Reclassifying against the half-published table would diverge —
        # e.g. with when_matched='delete' + when_not_matched='insert', a key
        # whose bucket already published its delete would re-classify as
        # not-matched and be resurrected as an insert.
        with open(marker) as f:
            mk = json.load(f)
        if mk.get("stmt") != stmt_fp:
            # same run_id, DIFFERENT statement: publishing the abandoned
            # statement's staged actions would be silent wrong data. (Source
            # ROW content is not fingerprinted — reuse a run_id only to
            # resume the identical statement.)
            raise ValueError(
                f"staging for run_id {run_id!r} holds a DIFFERENT merge "
                f"statement's classification; remove {tmp!r} to abandon it "
                "or re-run the original statement to finish it"
            )
        counts = mk["counts"]
    else:
        shutil.rmtree(tmp, ignore_errors=True)
        classified.write_parquet(data_dir)
        counts = {"update": 0, "delete": 0, "insert": 0}
        # an all-empty classification writes no files (and may not create the dir)
        if os.path.isdir(data_dir) and any(
            f.endswith(".parquet") for f in os.listdir(data_dir)
        ):
            from odibel_ray.ops.aggregates import group_count

            for row in group_count(
                rd.read_parquet(data_dir, columns=["_action"]), ["_action"]
            ).take_all():
                counts[row["_action"]] = int(row["n"])
        os.makedirs(tmp, exist_ok=True)
        with open(marker + ".tmp", "w") as f:
            json.dump({"counts": counts, "stmt": stmt_fp}, f)
        os.replace(marker + ".tmp", marker)
    n_upsert = counts["update"] + counts["insert"]
    n_delete = counts["delete"]
    if n_upsert == 0 and n_delete == 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return {"rows_updated": 0, "rows_inserted": 0, "rows_deleted": 0,
                "buckets_rewritten": 0, "run_id": run_id}

    def _actions(want: tuple, cols: list[str]):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t["_action"], pa.array(want))).select(cols)
        # scan-level projection: the delete stream decodes only keys+_action
        return rd.read_parquet(data_dir, columns=[*cols, "_action"]).map_batches(
            f, batch_format="pyarrow", batch_size=batch_size)

    # scratch is removed only AFTER a successful publish: a crash mid-upsert
    # leaves it (plus the marker) for the resume path above
    res = upsert_published(
        _actions(("update", "insert"), src_names) if n_upsert else None,
        out_dir,
        deletes=_actions(("delete",), keys) if n_delete else None,
        run_id=run_id,
        mode=mode,
        feed_dir=feed_dir,
        feed_values=feed_values,
        metrics=metrics,
        batch_size=batch_size,
    )
    shutil.rmtree(tmp, ignore_errors=True)
    res.update(rows_updated=counts["update"], rows_inserted=counts["insert"],
               rows_deleted=counts["delete"])
    return res
