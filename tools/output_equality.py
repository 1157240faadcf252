"""Digest every file one fixed sequence of table writes leaves, to compare
two checkouts' outputs file by file.

Runs the sequence with the ``odibel_ray`` of the checkout this file belongs
to, once under each forced executor (``sink.DRIVER_MAX_BYTES`` set
in-process to 2^62, every op in the driver, or to -1, every op on Ray
Data), in ``<work>/driver`` and ``<work>/ray_data``:

- a partitioned and an 8-bucket hashed replay with snapshots, each
  followed by a merge-on-read apply, a compaction and a copy-on-write apply
  with ``feed_dir`` and ``feed_lsn=True``;
- a hashed replay killed at its third bucket publish, then resumed;
- ``rebucket_published`` of the hashed table to 4 buckets;
- ``publish_dataset`` of a generic table with a nested column: plain, with
  ``cluster_by`` and with a z-order;
- on the plain one, a copy-on-write upsert with deletes and ``feed_dir``, a
  merge-on-read upsert with deletes and a compaction;
- ``alter_published`` (rename and add), then ``materialize_ddl``;
- maintained tables over a 4-bucket transcript fact table and a tool
  dimension (:func:`_maintained_sequence`): ``create_derived``,
  ``create_view`` and ``create_join_view``, and a view over the derived
  table; refreshes from an apply's feed (the derived ``feed`` strategy with
  ``emit_feed``, the view's ``delta`` strategy, the join view's
  ``left_feed``) and from snapshot diffs (left- and right-driven);
  ``refresh_pipeline(chain_feeds=True)``; merge-on-read refreshes and a
  compaction of the view; then a retention of one snapshot on the fact
  table, so every pin expires, and a full refresh of each kind, the
  derived one merge-on-read. Every op's result dict is written to
  ``maintained-results.json``.

It prints one JSON object, relative file path → digest, for every file
under the tables and feed directories (staging directories aside: what a
killed Ray Data run staged depends on timing):

- Parquet: ``sha256`` of the bytes, ``schema`` (sha256 of the Arrow schema)
  and ``rows`` (sha256 of the decoded rows, each as its repr, sorted);
- JSON: ``json``, the document with every ``unix_ts`` removed and the work
  directory's path replaced by ``<work>``.

``--compare A B`` lists the differences between two such digests: files on
one side only, then, per file, the fields that differ. Exit status 1 when
there is any.

    python3 tools/output_equality.py [--work DIR] [--out FILE]
    python3 tools/output_equality.py --compare A.json B.json

Runs on a 1-CPU local Ray session; the sequence takes about two minutes.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: forced size cutovers of the sink's driver/Ray Data choice
EXECUTORS = {"driver": 1 << 62, "ray_data": -1}


class _Killed(Exception):
    """The injected kill of a replay's publish."""


def _sequence(work: str) -> None:
    """The fixed sequence of writes, under ``work``."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray import datagen
    from odibel_ray.cdc import alter_published, materialize_ddl, sink

    info = datagen.generate_change_log(os.path.join(work, "log"), n_convs=120, max_turns=16,
                                       num_parts=4, seed=7)
    s0, s1, s2 = datagen.slice_log(info["log_dir"], os.path.join(work, "slices"),
                                   [0.5, 0.75, 1.0])
    for name, kw in (("partitioned", {"partitioned": True}), ("hashed", {"num_buckets": 8})):
        t = os.path.join(work, name)
        sink.replay_publish(s0, t, run_id="r0", snapshots=2, **kw)
        sink.incremental_apply(s1, t, run_id="mor", mode="mor")
        sink.compact_published(t, run_id="cmp")
        sink.incremental_apply(s2, t, run_id="cow", feed_dir=os.path.join(work, f"{name}-feed"),
                               feed_lsn=True)

    killed = os.path.join(work, "killed")
    publish, calls = sink._publish_base_row, []

    def dies_at_third(*a, **k):
        calls.append(1)
        if len(calls) == 3:
            raise _Killed
        return publish(*a, **k)

    sink._publish_base_row = dies_at_third
    try:
        sink.replay_publish(info["log_dir"], killed, num_buckets=8, run_id="k0")
    except _Killed:
        pass
    finally:
        sink._publish_base_row = publish
    sink.replay_publish(info["log_dir"], killed, num_buckets=8, run_id="k1")
    sink.rebucket_published(os.path.join(work, "hashed"), os.path.join(work, "rebucketed"),
                            num_buckets=4, run_id="rb")

    n = 40
    items = pa.array([[{"a": i, "b": f"x{i % 3}"}] * (i % 3) for i in range(n)],
                     pa.list_(pa.struct([("a", pa.int64()), ("b", pa.string())])))
    generic = pa.table({"k": [f"k{i:03d}" for i in range(n)],
                        "v": np.arange(n, dtype=np.float64) * 1.5,
                        "m": np.arange(n, dtype=np.int64) % 7,
                        "tag": [f"t{i % 4}" for i in range(n)],
                        "items": items})
    plain = os.path.join(work, "generic")
    sink.publish_dataset(rd.from_arrow(generic), plain, key_cols=["k"], num_buckets=4,
                         run_id="p0")
    sink.publish_dataset(rd.from_arrow(generic), os.path.join(work, "clustered"),
                         key_cols=["k"], num_buckets=4, run_id="p0", cluster_by="v")
    sink.publish_dataset(rd.from_arrow(generic), os.path.join(work, "zorder"),
                         key_cols=["k"], num_buckets=4, run_id="p0", cluster_by=["v", "m"])
    updates = generic.slice(0, 6).set_column(1, "v", pa.array(np.full(6, 99.0)))
    updates = pa.concat_tables([updates, pa.table({
        "k": ["new0", "new1"], "v": [1.0, 2.0], "m": pa.array([1, 2], pa.int64()),
        "tag": ["n", "n"], "items": pa.array([[], None], items.type)})])
    sink.upsert_published(rd.from_arrow(updates), plain,
                          deletes=rd.from_arrow(pa.table({"k": ["k010", "k011", "absent"]})),
                          run_id="u-cow", feed_dir=os.path.join(work, "generic-feed"))
    sink.upsert_published(rd.from_arrow(updates.slice(2, 4)), plain,
                          deletes=rd.from_arrow(pa.table({"k": ["k012", "new0"]})),
                          run_id="u-mor", mode="mor")
    sink.compact_published(plain, run_id="g-cmp")
    alter_published(plain, rename={"tag": "label"}, add={"note": "string"})
    materialize_ddl(plain, run_id="ddl")
    _maintained_sequence(work, info["log_dir"])


def _maintained_sequence(work: str, log_dir: str) -> None:
    """The maintained-table part of the sequence, under ``work``."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray import datagen
    from odibel_ray.cdc import (
        create_derived,
        create_join_view,
        create_view,
        refresh_derived,
        refresh_join_view,
        refresh_pipeline,
        refresh_view,
        sink,
    )
    from odibel_ray.oracle import replay_oracle

    slices = datagen.slice_log(log_dir, os.path.join(work, "slices", "maintained"),
                               [0.4, 0.55, 0.7, 0.85, 1.0])
    fact, dim = os.path.join(work, "fact"), os.path.join(work, "dim")
    derived, view, join, chained = (os.path.join(work, n)
                                    for n in ("derived", "view", "joinview", "chained"))
    sink.replay_publish(slices[0], fact, num_buckets=4, run_id="f0")
    tools = sorted({t for t in replay_oracle(log_dir).column("tool_name").to_pylist() if t})
    sink.publish_dataset(rd.from_arrow(pa.table({
        "tool_name": tools, "tool_kind": [t.upper() for t in tools],
        "weight": pa.array([len(t) for t in tools], pa.int64())})),
        dim, key_cols=["tool_name"], num_buckets=2, run_id="d0")
    results: dict = {}

    def run(name, fn, *a, **kw):
        results[name] = fn(*a, **kw)

    run("create_derived", create_derived, fact, derived, run_id="c0", num_buckets=4,
        transform={"where": [["score", ">=", 0.5]], "columns": ["role", "score", "tool_name"],
                   "derive": {"text_len": ["len", "text"]}})
    run("create_view", create_view, fact, view, group_keys=["role"], run_id="c0",
        aggs={"n": ["count"], "s": ["sum", "score"], "m": ["mean", "score"]}, num_buckets=2)
    run("create_join_view", create_join_view, fact, dim, join, on="tool_name",
        left_columns=["role", "score"], num_buckets=4, run_id="c0")
    run("create_chained", create_view, derived, chained, group_keys=["role"],
        aggs={"n": ["count"], "mx": ["max", "text_len"]}, num_buckets=2, run_id="c0")

    feed = os.path.join(work, "fact-feed")
    sink.incremental_apply(slices[1], fact, run_id="a1", feed_dir=feed, feed_lsn=True,
                           feed_values=["role", "score", "text", "tool_name"])
    run("derived_feed", refresh_derived, derived, run_id="r1", strategy="feed", feed=feed,
        emit_feed=os.path.join(work, "derived-feed"))
    run("view_delta", refresh_view, view, run_id="r1", strategy="delta", feed=feed)
    run("join_left_feed", refresh_join_view, join, run_id="r1", left_feed=feed)
    run("chained_diff", refresh_view, chained, run_id="r1")
    sink.upsert_published(rd.from_arrow(pa.table({
        "tool_name": [tools[0]], "tool_kind": ["CHANGED"], "weight": pa.array([100], pa.int64())})),
        dim, deletes=rd.from_arrow(pa.table({"tool_name": [tools[1]]})), run_id="u1")
    run("join_right_diff", refresh_join_view, join, run_id="r2")
    sink.incremental_apply(slices[2], fact, run_id="a2")
    run("pipeline", refresh_pipeline, [derived, view, join, chained], run_id="p",
        chain_feeds=True)
    sink.incremental_apply(slices[3], fact, run_id="a3")
    run("derived_mor", refresh_derived, derived, run_id="r3", mode="mor")
    run("view_mor", refresh_view, view, run_id="r3", mode="mor")
    run("view_compact", sink.compact_published, view, run_id="r3-cmp")
    sink.enable_snapshots(fact, keep_last=1)
    sink.incremental_apply(slices[4], fact, run_id="a4")
    try:
        run("derived_full_mor", refresh_derived, derived, run_id="r4", mode="mor")
    except ValueError as e:  # recorded, so a refused refresh shows in the digest
        results["derived_full_mor"] = {"error": f"{type(e).__name__}: {e}"}
    run("view_full", refresh_view, view, run_id="r4")
    run("join_full", refresh_join_view, join, run_id="r4")
    with open(os.path.join(work, "maintained-results.json"), "w") as f:
        json.dump(results, f, indent=1, sort_keys=True, default=str)


def _digest_file(path: str, work: str) -> dict:
    import pyarrow.parquet as pq

    if path.endswith(".parquet"):
        with open(path, "rb") as f:
            raw = f.read()
        t = pq.read_table(path)
        rows = sorted(repr(r) for r in t.to_pylist())
        return {"sha256": hashlib.sha256(raw).hexdigest(),
                "schema": hashlib.sha256(t.schema.serialize().to_pybytes()).hexdigest(),
                "rows": hashlib.sha256("\n".join(rows).encode()).hexdigest()}
    with open(path) as f:
        doc = json.loads(f.read().replace(work, "<work>"))

    def drop_ts(x):
        if isinstance(x, dict):
            return {k: drop_ts(v) for k, v in x.items() if k != "unix_ts"}
        if isinstance(x, list):
            return [drop_ts(v) for v in x]
        return x

    return {"json": drop_ts(doc)}


def digest(work: str) -> dict:
    """Relative path → digest of every Parquet and JSON file under
    ``work``, the input log and staging directories aside."""
    out = {}
    for path in sorted(glob.glob(os.path.join(work, "**", "*"), recursive=True)):
        rel = os.path.relpath(path, work)
        parts = rel.split(os.sep)
        if (os.path.isdir(path) or parts[1:2] in (["log"], ["slices"]) or "_staging" in parts
                or not path.endswith((".parquet", ".json"))):
            continue
        out[rel] = _digest_file(path, work)
    return out


def compare(a: dict, b: dict) -> list[str]:
    """The differences between digests ``a`` and ``b``, one line each."""
    lines = [f"only in A: {f}" for f in sorted(set(a) - set(b))]
    lines += [f"only in B: {f}" for f in sorted(set(b) - set(a))]
    for f in sorted(set(a) & set(b)):
        fields = sorted(k for k in set(a[f]) | set(b[f]) if a[f].get(k) != b[f].get(k))
        if fields:
            lines.append(f"differs: {f}: {', '.join(fields)}")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", default=None, help="scratch directory (default: a temp dir)")
    ap.add_argument("--out", default=None, help="write the digest here (default: stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = ap.parse_args()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            lines = compare(json.load(fa), json.load(fb))
        print("\n".join(lines) if lines else "equal")
        sys.exit(1 if lines else 0)

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             object_store_memory=512 * 1024 * 1024)
    DataContext.get_current().enable_progress_bars = False
    from odibel_ray.cdc import sink

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="output-equality-"))
    default = sink.DRIVER_MAX_BYTES
    for name, cutover in EXECUTORS.items():
        d = os.path.join(work, name)
        shutil.rmtree(d, ignore_errors=True)
        sink.DRIVER_MAX_BYTES = cutover
        try:
            _sequence(d)
        finally:
            sink.DRIVER_MAX_BYTES = default
    result = json.dumps(digest(work), indent=1, sort_keys=True)
    ray.shutdown()
    if args.out:
        with open(args.out, "w") as f:
            f.write(result + "\n")
    else:
        print(result)
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
