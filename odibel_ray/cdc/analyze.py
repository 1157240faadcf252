"""ANALYZE TABLE — per-column statistics for published tables.

The reference computes its per-property statistics as a one-off Spark job it
re-runs from scratch every time (``eval/PropertyEval.scala:40-60``); a
lakehouse engine instead ANALYZEs a table once and persists the column
statistics with it (`Delta ANALYZE` / engine catalogs), where cost-based
choices — broadcast-vs-bucketed join sides, salt factors, bloom sizing —
can read them without a scan.

One distributed pass computes, per column: row/null counts, typed min/max,
and the number of distinct values. NDV has two methods:

- ``method="hll"`` (default) — mergeable HyperLogLog registers
  (`ops/sketches.py`), O(2^p) bytes per column regardless of cardinality;
  the only sane choice at 10^10 rows.
- ``method="exact"`` — per-batch distinct 64-bit value hashes, merged on
  the driver. Memory is O(NDV) and the count is exact up to 64-bit hash
  collisions (≪ 1e-9 at any testable scale); used by the oracle-pinned
  query so the engine's statistics are checkable against SQL
  ``COUNT(DISTINCT ...)``.

Statistics persist to ``<table>/_colstats.json`` (with the table version
they reflect) and surface through ``describe``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

COLSTATS_FILE = "_colstats.json"


def _batch_partial(t: pa.Table, cols: list[str], method: str) -> pa.Table:
    """One row of typed per-column partials for this batch."""
    import pandas as pd

    from odibel_ray.ops.sketches import _hll_registers

    out: dict = {"_rows": pa.array([len(t)], pa.int64())}
    for c in cols:
        arr = t[c].combine_chunks()
        out[f"{c}__nulls"] = pa.array([arr.null_count], pa.int64())
        valid = arr.drop_null()
        if len(valid):
            out[f"{c}__min"] = pa.array([pc.min(valid).as_py()], arr.type)
            out[f"{c}__max"] = pa.array([pc.max(valid).as_py()], arr.type)
        else:
            out[f"{c}__min"] = pa.nulls(1, arr.type)
            out[f"{c}__max"] = pa.nulls(1, arr.type)
        uniq = valid.unique()
        h = pd.util.hash_array(
            uniq.to_numpy(zero_copy_only=False), categorize=False
        )
        if method == "exact":
            out[f"{c}__ndv"] = pa.array([np.unique(h).tobytes()], pa.large_binary())
        else:
            out[f"{c}__ndv"] = pa.array(
                [_hll_registers(h, 14).tobytes()], pa.large_binary()
            )
    return pa.table(out)


def analyze_published(
    out_dir: str,
    columns: list[str] | None = None,
    *,
    method: str = "hll",
    batch_size: int = 65536,
    persist: bool = True,
) -> dict:
    """Compute (and by default persist) per-column statistics of a published
    table: rows, nulls, typed min/max, NDV. Returns
    ``{column: {"nulls": n, "ndv": n, "min": v, "max": v}, ...}`` plus a
    ``"_table"`` entry with row count, method and the snapshot version the
    statistics reflect (when snapshots are enabled)."""
    from odibel_ray.cdc.sink import _read_plan, list_snapshots, read_published
    from odibel_ray.ops.sketches import _hll_estimate

    if method not in ("hll", "exact"):
        raise ValueError("method must be 'hll' or 'exact'")
    ds = read_published(out_dir, columns=columns)
    cols = list(columns) if columns is not None else _read_plan(out_dir).empty().column_names

    partials_ds = ds.map_batches(
        lambda t: _batch_partial(t, cols, method),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    import ray

    parts = [ray.get(r) for r in partials_ds.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows]
    merged = pa.concat_tables(parts, promote_options="default") if parts else None

    stats: dict = {}
    rows_total = int(pc.sum(merged["_rows"]).as_py() or 0) if merged is not None else 0
    for c in cols:
        if merged is None:
            stats[c] = {"nulls": 0, "ndv": 0, "min": None, "max": None}
            continue
        nulls = int(pc.sum(merged[f"{c}__nulls"]).as_py() or 0)
        mn = pc.min(merged[f"{c}__min"]).as_py()
        mx = pc.max(merged[f"{c}__max"]).as_py()
        blobs = [b.as_py() for b in merged[f"{c}__ndv"] if b.is_valid]
        if method == "exact":
            hs = (
                np.unique(np.concatenate([np.frombuffer(b, np.uint64) for b in blobs]))
                if blobs
                else np.array([], np.uint64)
            )
            ndv = int(len(hs))
            stats[c] = {"nulls": nulls, "ndv": ndv, "min": mn, "max": mx}
        else:
            import base64

            regs = np.zeros(1 << 14, dtype=np.uint8)
            for b in blobs:
                regs = np.maximum(regs, np.frombuffer(b, np.uint8))
            ndv = int(round(_hll_estimate(regs)))
            # registers persist so refresh_column_stats can MERGE new
            # values in without rescanning (mergeable-sketch property)
            stats[c] = {"nulls": nulls, "ndv": ndv, "min": mn, "max": mx,
                        "hll": base64.b64encode(regs.tobytes()).decode()}
    snaps = list_snapshots(out_dir)
    stats["_table"] = {
        "rows": rows_total,
        "method": method,
        "version": snaps[-1]["version"] if snaps else None,
        "run": _last_run_id(out_dir),
    }
    if persist:
        tmp = os.path.join(out_dir, COLSTATS_FILE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(stats, f, default=str)
        os.replace(tmp, os.path.join(out_dir, COLSTATS_FILE))
    return stats


def _last_run_id(out_dir: str):
    from odibel_ray.cdc.sink import TABLE_MANIFEST

    path = os.path.join(out_dir, TABLE_MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get("last_run_id")


def stats_fresh(out_dir: str, stats: dict) -> bool:
    """True iff the persisted ANALYZE pin matches the live table state.

    Compares the snapshot-version pin AND the table manifest's
    ``last_run_id`` — the run pin keeps freshness verifiable on tables
    WITHOUT snapshot retention, where versions are ``None`` on both sides
    and a version-only compare would report stale statistics as fresh after
    any write."""
    from odibel_ray.cdc.sink import list_snapshots

    snaps = list_snapshots(out_dir)
    live_v = snaps[-1]["version"] if snaps else None
    t = stats.get("_table", {})
    if t.get("version") != live_v:
        return False
    if "run" not in t:  # stats persisted before the run pin existed
        return live_v is not None
    return t.get("run") == _last_run_id(out_dir)


def load_column_stats(out_dir: str) -> dict | None:
    """Previously persisted ANALYZE output, or None. Callers should check
    :func:`stats_fresh` (version + run pins) before trusting it."""
    path = os.path.join(out_dir, COLSTATS_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def refresh_column_stats(out_dir: str, feed, *, persist: bool = True) -> dict:
    """Fold a row-level change feed into the persisted column statistics —
    statistics stay fresh across applies WITHOUT rescanning the table (the
    CDC completion of ANALYZE; the reference would re-run its statistics
    job from scratch, ``eval/PropertyEval.scala``).

    ``feed``: a feed directory (``bucket=*/*.parquet``, as written by
    ``incremental_apply(feed_dir=...)`` / ``upsert_published(feed_dir=...)``)
    or a ``table_changes`` Dataset — rows of ``*keys, change,
    {v}_before/{v}_after``.

    Exactness per statistic: **rows** and per-column **nulls** are exact
    (inserts/deletes/updates carry both images); **min/max** widen only (a
    delete cannot shrink them — the standard engine-stats bound);
    **NDV** merges the after-values into the stored HyperLogLog registers,
    a monotone upper bound under deletes. Requires ``method='hll'``
    statistics (exact-NDV stats carry no mergeable state: re-ANALYZE
    instead, or analyze with hll). Columns whose before/after images are
    missing from the feed keep their old values and are listed in the
    returned ``_table["stale_columns"]``."""
    import ray
    import ray.data as rd

    from odibel_ray.cdc.sink import list_snapshots
    from odibel_ray.ops.sketches import _hll_estimate

    stats = load_column_stats(out_dir)
    if stats is None:
        raise FileNotFoundError(f"no {COLSTATS_FILE} under {out_dir}; ANALYZE first")
    if stats["_table"]["method"] != "hll":
        raise ValueError(
            "feed-refresh needs method='hll' statistics (mergeable NDV "
            "registers); exact statistics must be re-ANALYZEd"
        )
    ds = feed
    if isinstance(feed, str):
        import glob as _glob

        files = sorted(_glob.glob(os.path.join(feed, "bucket=*", "*.parquet")))
        if not files:
            raise FileNotFoundError(f"no feed files under {feed}")
        ds = rd.read_parquet(files)
    feed_names = set(ds.schema().names)
    cols = [c for c in stats if not c.startswith("_")]
    live = [c for c in cols
            if {f"{c}_before", f"{c}_after"} <= feed_names]

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        from odibel_ray.ops.sketches import _hll_registers

        t = t.combine_chunks()
        ch = t["change"]
        ins = pc.equal(ch, "insert")
        del_ = pc.equal(ch, "delete")
        out: dict = {
            "_ins": pa.array([int(pc.sum(pc.cast(ins, pa.int64())).as_py() or 0)], pa.int64()),
            "_del": pa.array([int(pc.sum(pc.cast(del_, pa.int64())).as_py() or 0)], pa.int64()),
        }
        not_del = pc.invert(del_)
        not_ins = pc.invert(ins)
        for c in live:
            before, after = t[f"{c}_before"], t[f"{c}_after"]
            null_gain = pc.and_(not_del, pc.is_null(after))
            null_loss = pc.and_(not_ins, pc.is_null(before))
            d = (pc.sum(pc.cast(null_gain, pa.int64())).as_py() or 0) - (
                pc.sum(pc.cast(null_loss, pa.int64())).as_py() or 0
            )
            out[f"{c}__dnulls"] = pa.array([int(d)], pa.int64())
            valid = after.filter(pc.and_(not_del, pc.is_valid(after)))
            if len(valid):
                out[f"{c}__min"] = pa.array([pc.min(valid).as_py()], after.type)
                out[f"{c}__max"] = pa.array([pc.max(valid).as_py()], after.type)
            else:
                out[f"{c}__min"] = pa.nulls(1, after.type)
                out[f"{c}__max"] = pa.nulls(1, after.type)
            uniq = valid.unique()
            h = pd.util.hash_array(
                uniq.to_numpy(zero_copy_only=False), categorize=False
            )
            out[f"{c}__regs"] = pa.array([_hll_registers(h, 14).tobytes()], pa.large_binary())
        return pa.table(out)

    parts = [
        ray.get(r)
        for r in ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ]
    parts = [p for p in parts if p.num_rows]
    merged = pa.concat_tables(parts, promote_options="default") if parts else None

    import base64

    if merged is not None:
        stats["_table"]["rows"] = int(stats["_table"]["rows"]) + int(
            pc.sum(merged["_ins"]).as_py() or 0
        ) - int(pc.sum(merged["_del"]).as_py() or 0)
        for c in live:
            s = stats[c]
            s["nulls"] = int(s["nulls"]) + int(pc.sum(merged[f"{c}__dnulls"]).as_py() or 0)
            mn = pc.min(merged[f"{c}__min"]).as_py()
            mx = pc.max(merged[f"{c}__max"]).as_py()
            # stored values may have been JSON-stringified; widen typed-safe
            if mn is not None and (s["min"] is None or _lt(mn, s["min"])):
                s["min"] = mn
            if mx is not None and (s["max"] is None or _lt(s["max"], mx)):
                s["max"] = mx
            regs = np.frombuffer(base64.b64decode(s["hll"]), dtype=np.uint8)
            for b in (x.as_py() for x in merged[f"{c}__regs"] if x.is_valid):
                regs = np.maximum(regs, np.frombuffer(b, np.uint8))
            s["hll"] = base64.b64encode(regs.tobytes()).decode()
            s["ndv"] = int(round(_hll_estimate(regs)))
    snaps = list_snapshots(out_dir)
    stats["_table"]["version"] = snaps[-1]["version"] if snaps else None
    stats["_table"]["run"] = _last_run_id(out_dir)
    stats["_table"]["stale_columns"] = sorted(set(cols) - set(live))
    if persist:
        tmp = os.path.join(out_dir, COLSTATS_FILE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(stats, f, default=str)
        os.replace(tmp, os.path.join(out_dir, COLSTATS_FILE))
    return stats


def _lt(a, b) -> bool:
    """Typed-tolerant less-than for widen-only min/max merging (persisted
    values may come back JSON-stringified)."""
    try:
        return a < b
    except TypeError:
        return str(a) < str(b)
