"""One-call table maintenance: compaction, retention, vacuum, stats health.

Every lakehouse deployment ends up with a cron that runs OPTIMIZE +
VACUUM + retention in the right order per table; this module is that loop
as a library call so operators (and `tail_log` deployments) don't
re-derive the ordering. The reference has no maintenance story at all —
its outputs are one-shot job results.

Order matters and is fixed here: **compact first** (folding merge-on-read
deltas creates superseded files), then **snapshot retention** (decides
which superseded files stay pinned), then **vacuum** (sweeps what nothing
references anymore). Statistics are refreshed from a feed when one is
given, else reported stale when the table moved past their pinned
version — never silently wrong.
"""

from __future__ import annotations

import os

from odibel_ray.cdc.analyze import (
    load_column_stats,
    refresh_column_stats,
    stats_fresh,
)


def maintain_table(
    out_dir: str,
    *,
    compact_min_deltas: int = 8,
    keep_snapshots: int | None = None,
    vacuum_after: bool = True,
    stats_feed=None,
    run_id: str = "maintain-0",
) -> dict:
    """Run the maintenance loop once for one published table; returns a
    report of what each step did.

    - ``compact_min_deltas``: fold merge-on-read deltas on buckets carrying
      at least this many (0 disables compaction).
    - ``keep_snapshots``: tighten snapshot retention to the newest k
      (None leaves retention as configured).
    - ``vacuum_after``: sweep staging leftovers, orphan files and the Bloom
      sidecars older versions wrote, after the above.
    - ``stats_feed``: change feed (dir or ``table_changes`` Dataset) to fold
      into persisted column statistics. Without it, statistics that no
      longer reflect the live version are reported under ``stats_stale``.
    """
    from odibel_ray.cdc.sink import (
        compact_published,
        list_snapshots,
        load_manifests,
        vacuum,
    )

    report: dict = {"out_dir": out_dir}
    if compact_min_deltas:
        manifests = load_manifests(out_dir)
        worst = max(
            (len(m.get("deltas", [])) for m in manifests.values()), default=0
        )
        if worst >= compact_min_deltas:
            res = compact_published(
                out_dir, run_id=run_id, min_deltas=compact_min_deltas
            )
            report["compacted_buckets"] = res["compacted"]
        else:
            report["compacted_buckets"] = 0
        report["max_bucket_deltas"] = worst

    if stats_feed is not None:
        stats = refresh_column_stats(out_dir, stats_feed)
        report["stats_refreshed"] = sorted(
            c for c in stats if not c.startswith("_")
        )
        report["stats_stale"] = stats["_table"].get("stale_columns", [])
    else:
        stats = load_column_stats(out_dir)
        if stats is not None:
            report["stats_stale"] = (
                [] if stats_fresh(out_dir, stats)
                else sorted(c for c in stats if not c.startswith("_"))
            )

    # retention + vacuum LAST: compaction may have superseded files, and
    # vacuum(keep_snapshots=...) folds the expiry in before its orphan scan
    if vacuum_after:
        removed = vacuum(
            out_dir,
            keep_snapshots=keep_snapshots,
            # a consumed feed directory gets its old per-bucket states
            # trimmed in the same sweep
            feed_dir=stats_feed if isinstance(stats_feed, str) else None,
        )
        report["vacuum"] = removed
    elif keep_snapshots is not None:
        # tighten retention WITHOUT the staging/orphan sweep: vacuum's
        # contract requires no publish in flight, and the caller explicitly
        # disabled it — expire_snapshots only drops retired snapshot files
        from odibel_ray.cdc.sink import expire_snapshots

        report["snapshots_expired"] = expire_snapshots(
            out_dir, keep_last=keep_snapshots
        )
    return report


def catalog(root: str) -> list[dict]:
    """Discover every published table under ``root`` (recursively: any
    directory carrying a table manifest) and report its catalog row: kind
    (transcript / generic; derived / mview / joinview when maintained),
    rows, buckets, merge-on-read delta backlog, retained snapshots,
    statistics freshness, and upstream tables. Metadata-only — no Ray
    session, no data file opened."""
    import json as _json

    from odibel_ray.cdc.pipeline import _SIDES, _maintained
    from odibel_ray.cdc.sink import TABLE_MANIFEST, _table_layout, list_snapshots

    rows = []
    for dirpath, dirnames, filenames in os.walk(root):
        if TABLE_MANIFEST not in filenames:
            continue
        dirnames[:] = [d for d in dirnames if not d.startswith("_")]
        with open(os.path.join(dirpath, TABLE_MANIFEST)) as f:
            tman = _json.load(f)
        kind = "transcript" if _table_layout(dirpath)["system"] else "generic"
        upstreams: list[str] = []
        found = _maintained(dirpath)
        if found:
            kind, meta = found
            upstreams = [meta[s] for s in _SIDES[kind]]
        # a shallow clone records its origin (lineage, not an upstream — the
        # clone is independent and no refresh flows from the source)
        cloned = tman.get("cloned_from")
        if cloned and not upstreams:
            kind = f"{kind}-clone"
        snaps = list_snapshots(dirpath)
        stats = load_column_stats(dirpath)
        stats_state = "none"
        if stats is not None:
            stats_state = "fresh" if stats_fresh(dirpath, stats) else "stale"
        rows.append({
            "table": dirpath,
            "kind": kind,
            "rows": tman.get("rows_total"),
            "buckets": len(tman.get("buckets", [])),
            "mor_deltas": tman.get("mor_deltas", 0),
            "snapshots": len(snaps),
            "stats": stats_state,
            "upstreams": upstreams,
            **({"cloned_from": cloned} if cloned else {}),
        })
    return sorted(rows, key=lambda r: r["table"])


def clone_table(
    src_dir: str,
    dst_dir: str,
    *,
    version: int | None = None,
    run_id: str = "clone-0",
) -> dict:
    """Shallow CLONE of a published table (the Delta ``CREATE TABLE ... CLONE``
    analog): a new, fully independent table whose bucket data files are
    HARDLINKS to the source's — metadata-speed creation, zero data copied.
    Independence holds because published data files are immutable by the
    copy-on-write contract (every writer creates new run-versioned files and
    only ever *unlinks* old ones), so a rewrite/DML/vacuum on either side can
    never change what the other reads. The one exception is merge-on-read
    DELTA files, whose crash-resume path rewrites the same filename in place
    — those are byte-copied (they are O(new events) small by construction).

    ``version=V`` clones a retained snapshot (``CLONE ... VERSION AS OF``)
    instead of the live state. Cloned alongside the data: the bucket/table
    manifests, ``_layout.json``, the schema-op log, expectations and column
    stats. NOT cloned: snapshot history (a clone starts its own), savepoints,
    feeds, staging, and the writer lock. Cross-filesystem targets fall back
    to byte copies automatically.
    """
    import json
    import shutil

    from odibel_ray.cdc.ddl import SCHEMA_OPS, load_schema_meta
    from odibel_ray.cdc.sink import (
        MANIFEST_DIR,
        TABLE_MANIFEST,
        _atomic_write_json,
        _commit_table,
        load_manifests,
        snapshot_manifests,
        table_lock,
    )

    if not os.path.exists(os.path.join(src_dir, TABLE_MANIFEST)):
        raise FileNotFoundError(f"{src_dir} is not a published table")
    if os.path.exists(os.path.join(dst_dir, TABLE_MANIFEST)):
        raise FileExistsError(f"{dst_dir} is already a published table")
    if load_schema_meta(src_dir).get("materialized_run"):
        raise ValueError(
            "source has a materialize_ddl rewrite in flight (mixed physical "
            "schemas); finish it before cloning"
        )

    def _link(rel: str, always_copy: bool = False) -> str:
        s, d = os.path.join(src_dir, rel), os.path.join(dst_dir, rel)
        os.makedirs(os.path.dirname(d), exist_ok=True)
        if os.path.exists(d):
            # resume after a mid-clone crash (dst manifest not yet written):
            # an existing hardlink of the source is already correct; anything
            # else is a partial copy — replace it
            if os.path.samefile(s, d):
                return "linked"
            os.remove(d)
        if not always_copy:
            try:
                os.link(s, d)
                return "linked"
            except OSError:
                pass  # cross-device / unsupported: fall through to copy
        shutil.copy2(s, d)
        return "copied"

    n_linked = n_copied = 0
    with table_lock(src_dir, owner=f"clone:{run_id}"):
        manifests = (
            snapshot_manifests(src_dir, version) if version is not None
            else load_manifests(src_dir)
        )
        for m in manifests.values():
            for f in [m["file"], *(d["file"] for d in m.get("deltas", []))]:
                if not os.path.exists(os.path.join(src_dir, f)):
                    raise FileNotFoundError(
                        f"data file {f} missing from source — "
                        f"{'snapshot retention was broken' if version is not None else 'table is corrupt (fsck_table)'}"
                    )
        os.makedirs(os.path.join(dst_dir, MANIFEST_DIR), exist_ok=True)
        for b, m in sorted(manifests.items()):
            if _link(m["file"]) == "linked":
                n_linked += 1
            else:
                n_copied += 1
            for d in m.get("deltas", []):
                # MOR deltas can be rewritten in place on crash-resume: copy
                _link(d["file"], always_copy=True)
                n_copied += 1
            _atomic_write_json(
                os.path.join(dst_dir, MANIFEST_DIR, f"bucket-{b:06d}.json"), m
            )
        for meta in ("_layout.json", "_replay_layout.json", SCHEMA_OPS,
                     "_expectations.json", "_colstats.json"):
            if os.path.exists(os.path.join(src_dir, meta)):
                _link(meta, always_copy=True)
        with open(os.path.join(src_dir, TABLE_MANIFEST)) as f:
            tman = json.load(f)
    tman["cloned_from"] = {"table": os.path.abspath(src_dir), "version": version}
    _commit_table(dst_dir, tman, "clone_table", run_id)
    return {
        "src": src_dir,
        "dst": dst_dir,
        "version": version,
        "buckets": len(manifests),
        "rows_total": tman["rows_total"],
        "files_linked": n_linked,
        "files_copied": n_copied,
    }


def system_kg(root: str) -> "pyarrow.Table":  # noqa: F821
    """The engine's operations/catalog as a knowledge graph — the shipped
    form of the reference's ``management/systemkg.py`` intent (itself a
    stub over an external ``kgcore`` package): every published table under
    ``root`` becomes a typed entity with its state and lineage as triples,
    in the rDF2 fixed schema ``(s, p, o, isLiteral)`` — so the engine's own
    RDF operator surface (type filters, subgraphs, schema graph, N-Triples
    serialization) queries the engine itself.

    Metadata-only (walks manifests via :func:`catalog`; no Ray session, no
    data file opened); returns a pyarrow Table — wrap with
    ``ray.data.from_arrow`` to feed the distributed RDF operators."""
    import pyarrow as pa

    rows = catalog(root)
    s: list[str] = []
    p: list[str] = []
    o: list[str] = []
    lit: list[bool] = []

    def add(subj: str, pred: str, obj: str, is_lit: bool) -> None:
        s.append(subj)
        p.append(pred)
        o.append(f'"{obj}"' if is_lit else obj)
        lit.append(is_lit)

    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    for r in rows:
        subj = f"<urn:odibel:table:{os.path.relpath(r['table'], root)}>"
        add(subj, rdf_type, f"<urn:odibel:kind:{r['kind']}>", False)
        for key in ("rows", "buckets", "mor_deltas", "snapshots", "stats"):
            if r.get(key) is not None:
                add(subj, f"<urn:odibel:p:{key}>", str(r[key]), True)
        for up in r.get("upstreams", []):
            add(
                subj,
                "<urn:odibel:p:upstream>",
                f"<urn:odibel:table:{os.path.relpath(up, root)}>",
                False,
            )
        cloned = r.get("cloned_from")
        if cloned:
            add(
                subj,
                "<urn:odibel:p:clonedFrom>",
                f"<urn:odibel:table:{os.path.relpath(cloned['table'], root)}>",
                False,
            )
    return pa.table(
        {
            "s": pa.array(s, pa.string()),
            "p": pa.array(p, pa.string()),
            "o": pa.array(o, pa.string()),
            "isLiteral": pa.array(lit, pa.bool_()),
        }
    )
