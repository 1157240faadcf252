"""Key routing by per-file key filters.

Every base and delta file carries a Bloom filter over its table's first key
column in its bucket manifest entry. A lookup or a key-set read opens only
the buckets, and within them only the deltas, whose filter admits the probe.
The routing tests run on two tables, each a base plus two merge-on-read
deltas with tombstones and re-inserts, under both sink executors:

- a partitioned transcript table, where a key's bucket (its WAL part) is
  not derivable from the key;
- a hash-bucketed generic table with an int64 key.
"""

import base64
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from odibel_ray.cdc import alter_published, materialize_ddl
from odibel_ray.cdc.sink import (
    MANIFEST_DIR,
    _bucket_manifest_files,
    compact_published,
    count_published,
    fsck_table,
    incremental_apply,
    load_manifests,
    lookup_key,
    publish_dataset,
    read_published,
    rebucket_published,
    replay_publish,
    restore_snapshot,
    upsert_published,
)
from odibel_ray.cdc.skipping import bloom_admits
from odibel_ray.datagen import generate_change_log, split_log
from odibel_ray.oracle import replay_oracle

#: log fractions of the base and of the first delta; the second runs to the end
CUTS = (0.5, 0.75)


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """The base log, the first-delta log and the full log (cumulative)."""
    d = tmp_path_factory.mktemp("routing")
    full = generate_change_log(str(d), n_convs=40, max_turns=12, num_parts=4,
                               seed=7)["log_dir"]
    out = []
    for frac in CUTS:
        split_log(full, str(d / f"prefix-{frac}"), frac=frac)
        out.append(str(d / f"prefix-{frac}" / "change_log"))
    return [*out, full]


def _generic_rows(oracle: pa.Table) -> pa.Table:
    """Transcript rows keyed by one int64: conversation number * 1000 + turn."""
    conv = np.array([int(c.split("_")[1]) for c in oracle["conv_id"].to_pylist()])
    k = conv * 1000 + oracle["turn_idx"].to_numpy(zero_copy_only=False)
    return pa.table({"k": pa.array(k, pa.int64()), "conv_id": oracle["conv_id"],
                     "text": oracle["text"]})


class Table:
    """A built table, its probe column and the oracle of its final state."""

    def __init__(self, kind: str, out: str, logs: list[str]):
        self.kind, self.out = kind, out
        final = replay_oracle(logs[-1])
        if kind == "transcript":
            self.key = "conv_id"
            self.oracle = final
            self.keys = sorted({c for log in logs for c in
                                replay_oracle(log)["conv_id"].to_pylist()})
            self.absent = ["conv_00000003x", "conv_zzzzzzzz"]
        else:
            self.key = "k"
            self.oracle = _generic_rows(final)
            self.keys = sorted({k for log in logs for k in
                                _generic_rows(replay_oracle(log))["k"].to_pylist()})
            self.absent = [3500, 10 ** 9]

    def expected(self, keys) -> list[dict]:
        mask = pa.compute.is_in(self.oracle[self.key], pa.array(keys))
        return _rows(self.oracle.filter(mask), self.oracle.column_names)


def _rows(t: pa.Table, cols: list[str]) -> list[dict]:
    sort = [(c, "ascending") for c in cols if c in ("conv_id", "turn_idx", "k")]
    return t.select(cols).sort_by(sort).to_pylist()


def _build(kind: str, logs: list[str], out: str) -> Table:
    if kind == "transcript":
        replay_publish(logs[0], out, partitioned=True, run_id="base")
        for i, log in enumerate(logs[1:]):
            incremental_apply(log, out, run_id=f"d{i}", mode="mor")
    else:
        states = [_generic_rows(replay_oracle(log)) for log in logs]
        publish_dataset(rd.from_arrow(states[0]), out, key_cols=["k"], num_buckets=4,
                        run_id="base")
        for i, (old, new) in enumerate(zip(states, states[1:])):
            before = dict(zip(old["k"].to_pylist(), old["text"].to_pylist()))
            after = set(new["k"].to_pylist())
            changed = [k not in before or before[k] != t
                       for k, t in zip(new["k"].to_pylist(), new["text"].to_pylist())]
            gone = pa.table({"k": pa.array(sorted(set(before) - after), pa.int64())})
            upsert_published(rd.from_arrow(new.filter(pa.array(changed))), out,
                             deletes=rd.from_arrow(gone), run_id=f"d{i}", mode="mor")
    return Table(kind, out, logs)


@pytest.fixture(params=["transcript", "generic"])
def table(request, ray_session, logs, tmp_path, sink_executor):
    t = _build(request.param, logs, str(tmp_path / request.param))
    # the tables carry what the routing has to get right: two deltas per
    # bucket, tombstones, and keys deleted and then inserted again
    mans = load_manifests(t.out)
    assert all(len(m.get("deltas", [])) == 2 for m in mans.values())
    row_key = ["conv_id", "turn_idx"] if t.kind == "transcript" else ["k"]
    ops = pa.concat_tables([pq.read_table(os.path.join(t.out, d["file"]),
                                          columns=[*row_key, "_op"])
                            for m in mans.values() for d in m["deltas"]])
    dead = ops.filter(pa.compute.equal(ops["_op"], "D")).select(row_key).to_pylist()
    live = t.oracle.select(row_key).to_pylist()
    assert dead and any(r in live for r in dead)
    return t


def _lookup(t: Table, key) -> list[dict]:
    return _rows(lookup_key(t.out, key), t.oracle.column_names)


def _read(t: Table, out: str, keys: list) -> list[dict]:
    ds = read_published(out, where=[(t.key, "in", keys)])
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    return _rows(pa.concat_tables([t.oracle.slice(0, 0), *blocks], promote_options="default"),
                 t.oracle.column_names)


def _answers(t: Table, out: str) -> dict:
    """Every lookup, and key-set reads and counts over chunks of the keys."""
    probes = t.keys + t.absent
    chunks = [probes[i:i + 8] for i in range(0, len(probes), 8)]
    return {
        "lookups": {k: _rows(lookup_key(out, k), t.oracle.column_names) for k in probes},
        "reads": [_read(t, out, c) for c in chunks],
        "counts": [count_published(out, where=[(t.key, "in", c)]) for c in chunks],
        "chunks": chunks,
    }


def test_answers_match_oracle_with_and_without_filters(table, tmp_path):
    """Every lookup, key-set read and count equals the oracle; with every
    ``key_filter`` stripped from the manifests (a table written before the
    filters existed) the answers are identical."""
    got = _answers(table, table.out)
    for k, rows in got["lookups"].items():
        assert rows == table.expected([k]), k
    for chunk, rows, n in zip(got["chunks"], got["reads"], got["counts"]):
        assert rows == table.expected(chunk)
        assert n == len(rows)
    bare = str(tmp_path / "bare")
    shutil.copytree(table.out, bare)
    for m in _bucket_manifest_files(bare):
        assert m.pop("key_filter")
        for d in m["deltas"]:
            assert d.pop("key_filter")
        with open(os.path.join(bare, MANIFEST_DIR, f"bucket-{m['bucket']:06d}.json"), "w") as f:
            json.dump(m, f)
    assert _answers(table, bare) == got


@pytest.fixture()
def opened(monkeypatch):
    """The Parquet files opened, by kind: ``data`` (``pq.read_table``) and
    ``footer`` (``pq.read_metadata``/``pq.read_schema``)."""
    seen = {"data": set(), "footer": set()}
    for name, kind in (("read_table", "data"), ("read_metadata", "footer"),
                       ("read_schema", "footer")):
        real = getattr(pq, name)

        def spy(path, *a, _real=real, _kind=kind, **k):
            seen[_kind].add(os.path.basename(path))
            return _real(path, *a, **k)

        monkeypatch.setattr(pq, name, spy)
    return seen


def _files(m: dict) -> list[tuple[str, dict | None]]:
    return [(m["file"], m.get("key_filter"))] + [
        (d["file"], d.get("key_filter")) for d in m.get("deltas", [])]


def _one_bucket(files: set[str], mans: dict) -> bool:
    return any(files <= {f for f, _ in _files(m)} for m in mans.values())


def test_lookup_opens_only_files_that_admit_the_key(table, opened):
    """An absent key reads no data file. A present key opens its bucket's
    base plus only the deltas whose filter admits it — every file that
    holds the key among them — and no file of any other bucket. An empty
    result also reads the footers of one bucket, for its schema."""
    mans = load_manifests(table.out)
    holders = {f: set(pq.read_table(os.path.join(table.out, f), columns=[table.key])[table.key]
                      .to_pylist())
               for m in mans.values() for f, _ in _files(m)}
    for key in table.absent:
        opened["data"].clear(), opened["footer"].clear()
        assert _lookup(table, key) == []
        assert not opened["data"]
        assert _one_bucket(opened["footer"], mans)
    routed = skipped = 0
    for key in table.keys:
        where = [(table.key, "==", key)]
        admitting = {b: [f for f, kf in _files(m) if bloom_admits(kf, where)]
                     for b, m in mans.items()}
        admitting = {b: fs for b, fs in admitting.items() if fs}
        if len(admitting) > 1:  # a filter false positive in another bucket
            continue
        (b, _), = admitting.items()
        base, *deltas = [f for f, _ in _files(mans[b])]
        expect = {base} | {f for f in deltas if f in admitting[b]}
        opened["data"].clear(), opened["footer"].clear()
        rows = _lookup(table, key)
        assert rows == table.expected([key])
        assert opened["data"] == expect, key
        assert {f for f in deltas if key in holders[f]} <= expect
        # a deleted key's empty result is typed from one bucket's footer
        extra = opened["footer"] - expect
        assert not extra if rows else _one_bucket(extra, mans)
        routed += 1
        skipped += len(deltas) + 1 - len(expect)
    # a filter has about 1% false positives, and a key is probed against
    # every file of the other buckets
    assert routed >= 0.8 * len(table.keys) and skipped > 0


def test_missing_delta_drops_only_its_bucket(table):
    """A bucket with a deleted delta file is dropped whole, as the whole-
    table read drops it: its keys read as absent, and lookups routed to the
    other buckets still answer."""
    mans = load_manifests(table.out)
    b, m = max(mans.items(), key=lambda bm: bm[1]["deltas"][0]["rows_out"])
    damaged = set()
    for f, _ in _files(m):
        damaged |= set(pq.read_table(os.path.join(table.out, f), columns=[table.key])[table.key]
                       .to_pylist())
    os.remove(os.path.join(table.out, m["deltas"][0]["file"]))
    assert b not in load_manifests(table.out)
    for key in table.keys:
        want = [] if key in damaged else table.expected([key])
        assert _lookup(table, key) == want, key
    damaged_keys = sorted(damaged)
    assert count_published(table.out, where=[(table.key, "in", damaged_keys[:8])]) == 0
    rest = pa.compute.invert(pa.compute.is_in(table.oracle[table.key], pa.array(damaged_keys)))
    assert read_published(table.out).count() == table.oracle.filter(rest).num_rows


def _flip(entry: dict) -> None:
    bits = np.frombuffer(base64.b64decode(entry["bits"]), dtype=np.uint8)
    entry["bits"] = base64.b64encode((~bits).tobytes()).decode()


def test_fsck_reports_a_filter_that_rejects_its_keys(ray_session, logs, tmp_path):
    t = _build("transcript", logs, str(tmp_path / "t"))
    assert fsck_table(t.out)["ok"]
    m = next(iter(load_manifests(t.out).values()))
    delta = m["deltas"][1]
    _flip(delta["key_filter"]["conv_id"])
    with open(os.path.join(t.out, MANIFEST_DIR, f"bucket-{m['bucket']:06d}.json"), "w") as f:
        json.dump(m, f)
    res = fsck_table(t.out)
    assert not res["ok"]
    assert len(res["errors"]) == 1
    assert delta["file"] in res["errors"][0] and "key filter" in res["errors"][0]


def _assert_filters(out: str, key: str) -> None:
    mans = load_manifests(out)
    assert mans
    for m in mans.values():
        for _, kf in _files(m):
            assert set(kf) == {key}
    assert fsck_table(out)["ok"]


def test_every_manifest_writer_keeps_the_filters(ray_session, logs, tmp_path):
    """Compaction, a DDL rewrite, a rebucket and a snapshot restore all
    leave every file with a key filter that admits its keys."""
    t = _build("transcript", logs, str(tmp_path / "t"))
    rebucket_published(t.out, str(tmp_path / "rb"), num_buckets=3, run_id="rb")
    _assert_filters(str(tmp_path / "rb"), "conv_id")
    compact_published(t.out, run_id="c1", snapshots=3)
    _assert_filters(t.out, "conv_id")
    g = _build("generic", logs, str(tmp_path / "g"))
    compacted = compact_published(g.out, run_id="c1", snapshots=3)["snapshot"]
    alter_published(g.out, rename={"text": "body"})
    materialize_ddl(g.out, run_id="rw")
    _assert_filters(g.out, "k")
    assert lookup_key(g.out, 3000).column_names == ["k", "conv_id", "body"]
    restore_snapshot(g.out, compacted, run_id="restore")
    _assert_filters(g.out, "k")
    assert lookup_key(g.out, 3000).column_names == ["k", "conv_id", "text"]
