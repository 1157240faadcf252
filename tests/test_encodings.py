"""Per-column Parquet encodings of the one data-file writer
(``sink._write_data_file``): the footers of a transcript base and delta, a
generic table's round trip over many Arrow types, and a table whose first
files were written with pyarrow's defaults."""

import datetime
import decimal
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from odibel_ray.cdc import compact_published, incremental_apply, replay_publish, sink
from odibel_ray.cdc.lww import bucket_of_keys
from odibel_ray.cdc.sink import load_manifests, publish_dataset, read_published, upsert_published
from odibel_ray.datagen import split_log
from odibel_ray.oracle import replay_oracle
from tests.conftest import EXECUTOR_CUTOVERS, collect_sorted

KEYS = ["conv_id", "turn_idx"]


def _chunks(path: str) -> dict[str, tuple]:
    """``{column path: (encodings, has dictionary page)}`` of the file's
    first row group."""
    rg = pq.read_metadata(path).row_group(0)
    return {rg.column(i).path_in_schema: (rg.column(i).encodings, rg.column(i).has_dictionary_page)
            for i in range(rg.num_columns)}


def _published(out: str) -> pa.Table:
    return collect_sorted(read_published(out), KEYS)


def test_transcript_base_and_delta_encodings(ray_session, small_log, tmp_path):
    """Integer and timestamp columns are delta-packed with no dictionary, a
    unique string column (``text``) is PLAIN, and a repeating one
    (``conv_id``) keeps its dictionary, in a base and in a MOR delta."""
    split_log(small_log["log_dir"], str(tmp_path / "prefix"), frac=0.5)
    out = str(tmp_path / "tbl")
    replay_publish(str(tmp_path / "prefix" / "change_log"), out, num_buckets=4, run_id="r1")
    incremental_apply(small_log["log_dir"], out, run_id="m1", mode="mor")
    m = max(load_manifests(out).values(), key=lambda m: sum(d["rows_out"] for d in m["deltas"]))
    for name in (m["file"], m["deltas"][0]["file"]):
        cols = _chunks(os.path.join(out, name))
        for c in ("_lsn", "turn_idx", "ts"):
            assert cols[c] == (("RLE", "DELTA_BINARY_PACKED"), False), (name, c, cols[c])
        assert not cols["text"][1] and "PLAIN" in cols["text"][0], (name, cols["text"])
        assert cols["conv_id"][1], (name, cols["conv_id"])


ITEMS = pa.list_(pa.struct([("name", pa.string()), ("n", pa.int64())]))
SCHEMA = pa.schema([
    ("k", pa.string()), ("i8", pa.int8()), ("i16", pa.int16()), ("u32", pa.uint32()),
    ("i64", pa.int64()), ("d", pa.date32()), ("ts", pa.timestamp("us", tz="UTC")),
    ("dec", pa.decimal128(10, 2)), ("b", pa.bool_()), ("f", pa.float64()), ("s", pa.string()),
    ("ls", pa.large_string()), ("bin", pa.binary()), ("items", ITEMS), ("nul", pa.int64()),
])


def _row(i: int, v: int) -> dict:
    """Key ``k<i>``, payload ``v``; every column has nulls, repeats or
    unique values depending on ``i``."""
    return {
        "k": f"k{i:03d}", "i8": (i + v) % 100 - 50, "i16": None if i % 7 == 0 else 300 * i + v,
        "u32": 4_000_000_000 - i - v, "i64": (1 << 40) + 1000 * i + v,
        "d": datetime.date(2024, 1, 1) + datetime.timedelta(days=i % 5 + v),
        "ts": datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)
        + datetime.timedelta(seconds=i * 37 + v),
        "dec": decimal.Decimal(f"{i + v}.{i % 100:02d}"), "b": None if i % 5 == 0 else i % 2 == 0,
        "f": i / 3 + v, "s": f"text-{i}-{v}", "ls": ["red", "green", None][i % 3],
        "bin": bytes([i % 4, v % 256]), "nul": None,
        "items": None if i % 6 == 0 else [{"name": f"n{j}", "n": i * j + v} for j in range(i % 3)],
    }


def _table(rows: dict) -> pa.Table:
    return pa.Table.from_pylist([rows[k] for k in sorted(rows)], schema=SCHEMA)


def test_generic_round_trip_keeps_rows_and_schema(ray_session, tmp_path):
    """A generic table over integer, temporal, decimal, boolean, float,
    string, binary, nested and all-null columns reads back equal to its
    input, rows and schema, after a publish, a CoW upsert that empties one
    bucket, a MOR upsert and a compaction."""
    out = str(tmp_path / "t")
    rows = {r["k"]: r for r in (_row(i, 0) for i in range(60))}
    t = _table(rows)
    bucket = bucket_of_keys(t, ["k"], 4)

    def check():
        got = collect_sorted(read_published(out), ["k"])
        assert got.schema == SCHEMA
        assert got.equals(_table(rows))

    publish_dataset(rd.from_arrow(t), out, key_cols=["k"], num_buckets=4, run_id="p1")
    check()
    gone = [k for k, b in zip(t["k"].to_pylist(), bucket) if b == 2]
    ups = {r["k"]: r for r in (_row(i, 1) for i in range(0, 70, 3))
           if bucket_of_keys(pa.table({"k": [r["k"]]}), ["k"], 4)[0] != 2}
    upsert_published(rd.from_arrow(_table(ups)), out, run_id="u1",
                     deletes=rd.from_arrow(pa.table({"k": gone})))
    for k in gone:
        del rows[k]
    rows.update(ups)
    check()
    assert [m["rows_out"] for b, m in load_manifests(out).items() if b == 2] == [0]
    ups = {r["k"]: r for r in (_row(i, 2) for i in range(1, 70, 4))
           if bucket_of_keys(pa.table({"k": [r["k"]]}), ["k"], 4)[0] != 2}
    upsert_published(rd.from_arrow(_table(ups)), out, run_id="u2", mode="mor")
    rows.update(ups)
    check()
    compact_published(out, run_id="c1")
    check()
    for m in load_manifests(out).values():
        if not m["rows_out"]:  # the emptied bucket's file has no data page
            continue
        cols = _chunks(os.path.join(out, m["file"]))
        assert cols["i64"][0] == ("RLE", "DELTA_BINARY_PACKED")
        assert cols["items.list.element.name"][1]


def test_default_encoded_files_mix_with_new_ones(ray_session, small_log, tmp_path,
                                                 monkeypatch):
    """A table whose bases were written with pyarrow's default encodings
    (dictionary on every column) reads equal to the oracle after MOR deltas
    from the new writer land on them, and after a compaction rewrites
    them."""
    monkeypatch.setattr(sink, "DRIVER_MAX_BYTES", EXECUTOR_CUTOVERS["driver"])
    logs = {}
    for name, frac in (("prefix", 0.5), ("mid", 0.75)):
        split_log(small_log["log_dir"], str(tmp_path / name), frac=frac)
        logs[name] = str(tmp_path / name / "change_log")
    out = str(tmp_path / "tbl")
    with monkeypatch.context() as m:
        m.setattr(sink, "_write_data_file",
                  lambda table, path: pq.write_table(table, path, compression="snappy"))
        replay_publish(logs["prefix"], out, num_buckets=4, run_id="r1")
    old = [os.path.join(out, m["file"]) for m in load_manifests(out).values()]
    assert all(_chunks(f)["_lsn"][1] for f in old)
    incremental_apply(logs["mid"], out, run_id="m1", mode="mor")
    assert _published(out).equals(replay_oracle(logs["mid"]))
    assert all(os.path.exists(f) for f in old)
    incremental_apply(small_log["log_dir"], out, run_id="m2", mode="mor")
    compact_published(out, run_id="c1")
    want = replay_oracle(small_log["log_dir"])
    assert _published(out).equals(want)
    new = [os.path.join(out, m["file"]) for m in load_manifests(out).values()]
    assert not set(new) & set(old) and not any(_chunks(f)["_lsn"][1] for f in new)


def test_distinct_count_early_exit_keeps_the_encodings(tmp_path):
    """``_write_data_file`` stops hashing a flat string or binary column once
    its first rows hold more than half its non-null values as distinct
    values. The choice stays the full count's (a dictionary when at most
    half the non-null values are distinct) on unique, half-distinct and
    low-cardinality columns, with nulls, and on one whose repeats come
    only after a unique first half."""
    n = 40
    cols = {
        "unique": [f"u{i}" for i in range(n)],
        "half": [f"h{i % (n // 2)}" for i in range(n)],
        "half_plus_one": [f"p{min(i, n // 2)}" if i <= n // 2 else f"p{i - n // 2 - 1}"
                          for i in range(n)],
        "low": [f"l{i % 3}" for i in range(n)],
        "unique_nulls": [None if i % 4 == 0 else f"n{i}" for i in range(n)],
        "nulls_first": [None] * (n // 2) + [f"f{i}" for i in range(n // 2)],
        "late_repeats": [f"r{i}" for i in range(n // 2)] + ["r0"] * (n // 2),
        "all_null": [None] * n,
        "binary_half": [b"%d" % (i % (n // 2)) for i in range(n)],
    }
    t = pa.table({k: pa.array(v, pa.binary() if k.startswith("binary") else pa.string())
                  for k, v in cols.items()})
    path = str(tmp_path / "f.parquet")
    sink._write_data_file(t, path)
    got = {k: dict_page for k, (_, dict_page) in _chunks(path).items()}
    want = {k: 2 * len({v for v in vals if v is not None}) <= sum(v is not None for v in vals)
            for k, vals in cols.items()}
    assert want == {"unique": False, "half": True, "half_plus_one": False, "low": True,
                    "unique_nulls": False, "nulls_first": False, "late_repeats": True,
                    "all_null": True, "binary_half": True}
    assert got == want
    assert pq.read_table(path).equals(t)
