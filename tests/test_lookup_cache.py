"""A table resolved once per manifest version, and a probe hashed once.

Reads keep one per-process entry per table directory (``sink._Table``): the
layout, the schema-op log, the parsed bucket manifests with their decoded
key filters, the row counts of checked live files and a bounded set of
their footers, each under a stat token. The router hashes each probe once per stored dtype
and probes every filter with those hashes. These tests pin:

- the probe's answers against the per-file probe it replaced, and the
  encoder's bytes against their earlier output;
- that a lookup sees every kind of table change right after it;
- that a routed scan reads each footer once per file version;
- that the cache stays bounded by the live table, and its full footers by
  a fixed count.
"""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from odibel_ray.cdc import alter_published, sink
from odibel_ray.cdc.sink import (
    MANIFEST_DIR,
    compact_published,
    enable_snapshots,
    incremental_apply,
    list_snapshots,
    load_manifests,
    lookup_key,
    publish_dataset,
    read_published,
    replay_publish,
    restore_snapshot,
    snapshot_manifests,
)
from odibel_ray.cdc.skipping import (
    BloomProbe,
    _bloom_contains,
    bloom_admits,
    bloom_filter,
    bloom_probes,
    blooms_admit,
    decode_blooms,
)
from odibel_ray.datagen import generate_change_log, slice_log, split_log
from odibel_ray.oracle import replay_oracle

# ---------------------------------------------------------------------------
# the probe
# ---------------------------------------------------------------------------


def _per_file_contains(entry: dict, values):
    """The per-file probe the precomputed-hash probe replaced, verbatim: it
    decodes the filter and hashes the values on every call."""
    import base64

    import pandas as pd

    known = np.array([v is not None for v in values], dtype=bool)
    out = ~known
    if entry["dtype"] == "empty" or not known.any():
        return out
    probe = np.array([v for v in values if v is not None], dtype=np.dtype(entry["dtype"]))
    h1 = pd.util.hash_array(probe, categorize=False)
    h2 = pd.util.hash_array(probe, hash_key="fedcba9876543210", categorize=False)
    h2 = h2 | np.uint64(1)
    bits = np.frombuffer(base64.b64decode(entry["bits"]), dtype=np.uint8)
    ks = np.arange(entry["k"], dtype=np.uint64)
    idx = ((h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(entry["m"])).astype(np.int64)
    out[known] = np.all((bits[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1, axis=1)
    return out


def _per_file_admits(meta: dict | None, where) -> bool:
    """The per-file ``bloom_admits`` the router used, verbatim."""
    if not meta:
        return True
    for col, op, val in where:
        entry = meta.get(col)
        if entry is None or op not in ("==", "in"):
            continue
        try:
            if not _per_file_contains(entry, [val] if op == "==" else list(val)).any():
                return False
        except (TypeError, ValueError):
            continue
    return True


def _fixed_table() -> pa.Table:
    """300 rows: a string key with nulls, an int64 key and an all-null column
    (its filter is stored as ``empty``)."""
    ints = np.random.default_rng(11).integers(-10 ** 12, 10 ** 12, 300)
    return pa.table({
        "s": pa.array([None if i % 7 == 0 else f"conv_{abs(int(v)) % 10 ** 8:08d}"
                       for i, v in enumerate(ints)]),
        "i": pa.array(ints, pa.int64()),
        "n": pa.array([None] * len(ints), pa.string()),
    })


#: sha256 of the sorted-key JSON of ``bloom_filter(_fixed_table(), ["s", "i",
#: "n"])``, as the encoder wrote it before the probe took precomputed hashes
ENCODED_SHA256 = "6217a21088691b8fb2eaef28db3b4eed6d470a78dae25f2d5d4699d2f2fc0d39"


def test_encoder_output_is_unchanged():
    meta = bloom_filter(_fixed_table(), ["s", "i", "n"])
    assert {c: e["dtype"] for c, e in meta.items()} == {"s": "|O", "i": "<i8", "n": "empty"}
    assert hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest() \
        == ENCODED_SHA256


def _probe_values(t: pa.Table) -> list:
    """Value lists to probe: members, non-members, NULLs, values that do not
    fit a stored dtype, and lists of 0, 1 and 64 values."""
    s = [v for v in t["s"].to_pylist() if v is not None]
    i = t["i"].to_pylist()
    rng = np.random.default_rng(5)
    absent_s = [f"conv_{v:08d}x" for v in rng.integers(0, 10 ** 8, 64)]
    absent_i = [int(v) for v in rng.integers(10 ** 12, 2 * 10 ** 12, 64)]
    lists = [[], [s[0]], [i[0]], [absent_s[0]], [absent_i[0]], [None], [None, s[3]],
             [None, absent_i[1]], ["not-an-int"], [i[2], "not-an-int"], [1.5], [True]]
    for pool in (s, i, absent_s, absent_i, s[:32] + absent_s[:32], i[:32] + absent_i[:32],
                 s[:32] + i[:32]):
        lists.append(list(pool[:64]))
    return lists


def test_precomputed_probe_matches_the_per_file_probe():
    t = _fixed_table()
    meta = bloom_filter(t, ["s", "i", "n"])
    blooms = decode_blooms(meta)
    lists = _probe_values(t)
    assert {len(v) for v in lists} >= {0, 1, 64}
    for values in lists:
        # one probe object meets every filter, as in the router, so its hash
        # cache serves several dtypes in turn
        probe = BloomProbe(values)
        for col, entry in meta.items():
            try:
                want = _per_file_contains(entry, values)
            except (TypeError, ValueError):
                with pytest.raises(ValueError):
                    _bloom_contains(blooms[col], probe)
                continue
            got = _bloom_contains(blooms[col], probe)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (col, values)
        for col in meta:
            for where in ([(col, "in", values)], *([(col, "==", v)] for v in values[:3])):
                want = _per_file_admits(meta, where)
                assert bloom_admits(meta, where) is want, where
                assert blooms_admit(blooms, bloom_probes(where)) is want, where
    # members and NULL probes always admit, and the empty filter admits only NULL
    assert _bloom_contains(blooms["s"], BloomProbe(lists[1])).all()
    assert _bloom_contains(blooms["n"], BloomProbe([None, "x"])).tolist() == [True, False]


def test_a_probe_that_cannot_take_the_stored_dtype_admits():
    meta = bloom_filter(_fixed_table(), ["i"])
    for v in ("not-an-int", 2 ** 70):  # the per-file probe raised on the overflow
        assert bloom_admits(meta, [("i", "==", v)])
        assert bloom_admits(meta, [("i", "in", [v, 7])])
    assert not bloom_admits(meta, [("i", "in", [])])


# ---------------------------------------------------------------------------
# the table cache
# ---------------------------------------------------------------------------

FRACS = (0.4, 0.55, 0.7, 0.85)


@pytest.fixture(scope="module")
def cuts(tmp_path_factory):
    """Cumulative prefixes of one log at ``FRACS``, then the whole log."""
    d = tmp_path_factory.mktemp("lookup-cache")
    full = generate_change_log(str(d), n_convs=40, max_turns=12, num_parts=4, seed=11)["log_dir"]
    out = []
    for frac in FRACS:
        split_log(full, str(d / f"prefix-{frac}"), frac=frac)
        out.append(str(d / f"prefix-{frac}" / "change_log"))
    return [*out, full]


def _rows(t: pa.Table, cols: list[str]) -> list[dict]:
    return t.select(cols).sort_by([("conv_id", "ascending"),
                                   ("turn_idx", "ascending")]).to_pylist()


class Answers:
    """Every conversation of the log (and one absent key), looked up."""

    def __init__(self, out: str, cuts: list[str]):
        self.out = out
        self.oracles = [replay_oracle(c) for c in cuts]
        self.cols = self.oracles[-1].column_names
        self.keys = sorted({k for o in self.oracles for k in o["conv_id"].to_pylist()})
        self.keys.append("conv_zzzzzzzz")

    def expected(self, cut: int, dropped: set = frozenset()) -> dict:
        o = self.oracles[cut]
        return {k: [] if k in dropped else
                _rows(o.filter(pa.compute.equal(o["conv_id"], k)), self.cols)
                for k in self.keys}

    def lookups(self, **kw) -> dict:
        return {k: _rows(lookup_key(self.out, k, **kw), self.cols) for k in self.keys}


def _latest_version(out: str) -> int:
    return list_snapshots(out)[-1]["version"]


def test_lookup_sees_every_table_change(ray_session, cuts, tmp_path):
    """Each change lands between two lookups of the same keys (the first
    one fills the cache); the second lookup equals the oracle at the new
    cut. Lookups of a retained version do not move while the live table
    flips."""
    out = str(tmp_path / "t")
    replay_publish(cuts[0], out, num_buckets=4, run_id="base")
    enable_snapshots(out, keep_last=16)
    a = Answers(out, cuts)
    assert a.lookups() == a.expected(0)

    def changed(cut: int, dropped: set = frozenset()) -> None:
        got, want = a.lookups(), a.expected(cut, dropped)
        assert got == want
        assert a.lookups() == want  # and again, from the cache

    incremental_apply(cuts[1], out, run_id="cow", mode="cow")
    changed(1)
    v_cow = _latest_version(out)
    assert a.expected(1) != a.expected(0)

    incremental_apply(cuts[2], out, run_id="mor1", mode="mor")
    assert all(m.get("deltas") for m in load_manifests(out).values())
    changed(2)
    assert a.lookups(version=v_cow) == a.expected(1)

    compact_published(out, run_id="c1")
    assert not any(m.get("deltas") for m in load_manifests(out).values())
    changed(2)
    assert a.lookups(version=v_cow) == a.expected(1)

    restore_snapshot(out, v_cow, run_id="restore")
    changed(1)

    incremental_apply(cuts[3], out, run_id="mor2", mode="mor")
    changed(3)
    assert a.lookups(version=v_cow) == a.expected(1)

    # a delta deleted under an unchanged manifest drops its bucket whole
    mans = load_manifests(out)
    b, m = max(mans.items(), key=lambda bm: bm[1]["deltas"][0]["rows_out"])
    damaged = set()
    for f in [m["file"], *(d["file"] for d in m["deltas"])]:
        damaged |= set(pq.read_table(os.path.join(out, f), columns=["conv_id"])["conv_id"]
                       .to_pylist())
    os.remove(os.path.join(out, m["deltas"][0]["file"]))
    changed(3, dropped=damaged)

    # every bucket manifest rewritten in place (same inode) with the frozen
    # copy of the CoW version, whose files the retention kept
    for bk, frozen in snapshot_manifests(out, v_cow).items():
        path = os.path.join(out, MANIFEST_DIR, f"bucket-{bk:06d}.json")
        ino = os.stat(path).st_ino
        with open(path, "w") as f:
            json.dump(frozen, f)
        assert os.stat(path).st_ino == ino
    changed(1)


def _generic_rows(oracle: pa.Table) -> pa.Table:
    conv = np.array([int(c.split("_")[1]) for c in oracle["conv_id"].to_pylist()])
    k = conv * 1000 + oracle["turn_idx"].to_numpy(zero_copy_only=False)
    return pa.table({"k": pa.array(k, pa.int64()), "conv_id": oracle["conv_id"],
                     "text": oracle["text"]})


def test_lookup_sees_a_pending_alter(ray_session, cuts, tmp_path):
    """A pending ``alter_published`` changes the next lookup's columns, for
    a hit and for a typed empty miss."""
    out = str(tmp_path / "g")
    rows = _generic_rows(replay_oracle(cuts[-1]))
    publish_dataset(rd.from_arrow(rows), out, key_cols=["k"], num_buckets=4, run_id="g")
    hit = rows["k"][0].as_py()
    want = rows.filter(pa.compute.equal(rows["k"], hit)).to_pylist()
    assert lookup_key(out, hit).to_pylist() == want
    assert lookup_key(out, -1).column_names == ["k", "conv_id", "text"]
    alter_published(out, rename={"text": "body"})
    renamed = [{"k": r["k"], "conv_id": r["conv_id"], "body": r["text"]} for r in want]
    assert lookup_key(out, hit).to_pylist() == renamed
    assert lookup_key(out, -1).column_names == ["k", "conv_id", "body"]
    alter_published(out, add={"score": "double"})
    assert lookup_key(out, hit).to_pylist() == [{**r, "score": None} for r in renamed]
    assert lookup_key(out, -1).schema.field("score").type == pa.float64()


@pytest.fixture()
def footer_reads(monkeypatch):
    """Driver-side ``pq.read_metadata`` calls, by file name."""
    seen: dict[str, int] = {}
    real = pq.read_metadata

    def spy(path, *a, **k):
        name = os.path.basename(path)
        seen[name] = seen.get(name, 0) + 1
        return real(path, *a, **k)

    monkeypatch.setattr(pq, "read_metadata", spy)
    return seen


def test_routed_scan_reads_each_footer_once(ray_session, cuts, tmp_path, footer_reads):
    """A routed scan's manifest check and its merge-on-read stats check
    share the footer cache: a cold scan reads each kept footer once, a warm
    one reads none and reports ``footers_read`` 0."""
    out = str(tmp_path / "t")
    replay_publish(cuts[0], out, num_buckets=4, run_id="base")
    incremental_apply(cuts[1], out, run_id="mor", mode="mor")
    a = Answers(out, cuts)
    keys = a.keys[:8]
    want = a.oracles[1].filter(pa.compute.is_in(a.oracles[1]["conv_id"], pa.array(keys))).num_rows
    footer_reads.clear()  # the writers' own footer reads
    cold: dict = {}
    assert read_published(out, where=[("conv_id", "in", keys)], prune_stats=cold).count() == want
    assert cold["footers_read"] == sum(footer_reads.values()) > 0
    assert max(footer_reads.values()) == 1
    footer_reads.clear()
    warm: dict = {}
    assert read_published(out, where=[("conv_id", "in", keys)], prune_stats=warm).count() == want
    assert warm["footers_read"] == 0 and not footer_reads
    assert warm["files_read"] == cold["files_read"] > 0
    # the whole-table read checks every bucket through the same cache
    assert read_published(out).count() == a.oracles[1].num_rows
    footer_reads.clear()
    lookup_key(out, keys[0])
    assert not footer_reads


def test_cache_holds_one_entry_with_only_live_footers(ray_session, cuts, tmp_path):
    """After 10 merge-on-read applies and 10 compactions, each followed by
    lookups, the cache holds one entry for the table, and its row counts,
    footers and parsed manifests cover only the live version."""
    out = str(tmp_path / "t")
    replay_publish(cuts[0], out, num_buckets=4, run_id="base")
    slices = slice_log(cuts[-1], str(tmp_path / "slices"),
                       np.linspace(FRACS[0], 1.0, 11).tolist())[1:]
    a = Answers(out, cuts)
    for i, log in enumerate(slices):
        incremental_apply(log, out, run_id=f"m{i}", mode="mor")
        a.lookups()
        compact_published(out, run_id=f"c{i}")
        a.lookups()
        lookup_key(out + os.sep, a.keys[0])  # another spelling of the same table
    assert a.lookups() == a.expected(len(cuts) - 1)
    root = os.path.abspath(out)
    assert [k for k in sink._TABLES if os.path.realpath(k) == os.path.realpath(root)] == [root]
    entry = sink._TABLES[root]
    mans = load_manifests(out)
    live = {f for m in mans.values()
            for f in [m["file"], *(d["file"] for d in m.get("deltas", []))]}
    assert entry.rows and set(entry.rows) <= live
    assert entry.footers and set(entry.footers) <= live
    assert {bk.manifest["file"] for bk in entry.buckets.values()} == \
        {m["file"] for m in mans.values()}
    assert set(vars(entry)) == {"root", "head", "tokens", "layout", "meta", "parsed",
                                "buckets", "live", "rows", "footers"}


def test_whole_table_read_keeps_row_counts_not_every_footer(
        ray_session, cuts, tmp_path, footer_reads, monkeypatch):
    """A whole-table read checks every file: the entry keeps each one's row
    count, so the next whole-table read reads no footer, but only the last
    ``_FOOTER_CACHE_SIZE`` full footers."""
    monkeypatch.setattr(sink, "_FOOTER_CACHE_SIZE", 2)
    out = str(tmp_path / "t")
    replay_publish(cuts[0], out, num_buckets=4, run_id="base")
    incremental_apply(cuts[1], out, run_id="mor", mode="mor")
    live = {f for m in load_manifests(out).values()
            for f in [m["file"], *(d["file"] for d in m.get("deltas", []))]}
    assert len(live) > 2
    n = replay_oracle(cuts[1]).num_rows
    # load_manifests checked every file through the cache: start cold
    sink._TABLES.pop(os.path.abspath(out))
    footer_reads.clear()
    assert read_published(out).count() == n
    assert set(footer_reads) == live and max(footer_reads.values()) == 1
    entry = sink._TABLES[os.path.abspath(out)]
    assert set(entry.rows) == live and len(entry.footers) == 2
    footer_reads.clear()
    assert read_published(out).count() == n
    assert not footer_reads
