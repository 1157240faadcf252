"""Key-generic LWW kernels vs DuckDB window-function oracles on the events
table (SURVEY.md §5 golden-output pattern, oracle = SQL instead of fixtures)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
KEYS = ["user_id", "event_type"]


def _changes():
    from odibel_ray.pipelines.queries import _events_as_changes

    return _events_as_changes(SF)


def _sql(q: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return con.execute(q).fetchdf()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns), ignore_index=True)


def _assert_match(ds, sql):
    ray_df = _canon(ds.to_pandas())
    sql_df = _canon(_sql(sql))
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False, atol=1e-9, rtol=0)


CTE = """
WITH ev AS (
  SELECT user_id, event_type, event_id, round(value, 6) AS value, ts,
         CASE WHEN event_id % 17 = 0 THEN 'D' ELSE 'U' END AS op
  FROM events
)
"""


def test_keep_last_per_key_unit():
    from odibel_ray.cdc.lww import keep_last_per_key

    t = pa.table(
        {
            "k": ["a", "a", "b", "b", "b"],
            "lsn": [2, 1, 5, 9, 7],
            "v": [20, 10, 50, 90, 70],
        }
    )
    out = keep_last_per_key(t, ["k"], "lsn")
    assert out.to_pydict() == {"k": ["a", "b"], "lsn": [2, 9], "v": [20, 90]}


def test_lww_latest_matches_sql(ray_session):
    from odibel_ray.cdc.lww import lww_latest

    _assert_match(
        lww_latest(_changes(), KEYS, lsn_col="event_id"),
        CTE
        + """
SELECT user_id, event_type, event_id, value, ts
FROM (SELECT *, row_number() OVER (PARTITION BY user_id, event_type ORDER BY event_id DESC) rn FROM ev)
WHERE rn = 1 AND op <> 'D'
""",
    )


def test_lww_precompact_invariant(ray_session):
    """Pre-compaction (shuffle combiner) must not change the result."""
    from odibel_ray.cdc.lww import lww_latest

    a = _canon(lww_latest(_changes(), KEYS, lsn_col="event_id", precompact=True).to_pandas())
    b = _canon(lww_latest(_changes(), KEYS, lsn_col="event_id", precompact=False).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_bucket_count_invariance(ray_session):
    """Same result at 2 and 64 buckets (SURVEY.md §5 item 5)."""
    from odibel_ray.cdc.lww import lww_latest

    a = _canon(lww_latest(_changes(), KEYS, lsn_col="event_id", num_buckets=2).to_pandas())
    b = _canon(lww_latest(_changes(), KEYS, lsn_col="event_id", num_buckets=64).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_change_windows_matches_sql(ray_session):
    from odibel_ray.cdc.lww import change_windows

    ds = change_windows(
        _changes().select_columns(["op", "event_id", "user_id", "event_type", "value"]),
        KEYS,
        lsn_col="event_id",
    )
    _assert_match(
        ds,
        CTE
        + """
SELECT user_id, event_type, value, lsn_start, lsn_end FROM (
  SELECT user_id, event_type, value, event_id AS lsn_start,
         coalesce(lead(event_id) OVER (PARTITION BY user_id, event_type ORDER BY event_id),
                  9223372036854775807) AS lsn_end,
         op
  FROM ev)
WHERE op <> 'D'
""",
    )


def test_outer_diff_classification(ray_session):
    import ray.data as rd

    from odibel_ray.cdc.lww import outer_diff

    left = rd.from_arrow(
        pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    )
    right = rd.from_arrow(
        pa.table({"k": [2, 3, 4], "v": ["b", "CHANGED", "d"]})
    )
    rows = {(r["k"], r["diff"]) for r in outer_diff(left, right, ["k"], ["v"]).take_all()}
    assert rows == {(1, "deleted"), (3, "changed"), (4, "added")}


def test_change_feed_before_after(ray_session):
    import ray.data as rd

    from odibel_ray.cdc.lww import change_feed

    old = rd.from_arrow(
        pa.table({"k": [1, 2, 3, 5], "v": ["a", "b", "c", None]})
    )
    new = rd.from_arrow(
        pa.table({"k": [2, 3, 4, 5], "v": ["b", "CHANGED", "d", None]})
    )
    rows = {
        (r["k"], r["change"], r["v_before"], r["v_after"])
        for r in change_feed(old, new, ["k"], ["v"]).take_all()
    }
    # k=2 unchanged, k=5 null==null unchanged -> neither emitted
    assert rows == {
        (1, "delete", "a", None),
        (3, "update", "c", "CHANGED"),
        (4, "insert", None, "d"),
    }


def _keep_last_reference(t: pa.Table, keys, lsn_col: str) -> pa.Table:
    """The sort-based keep-last ``keep_last_per_key`` ran before its
    integer-code kernel: a stable ``pc.sort_indices`` on (keys, lsn), then
    keep each row whose next row has another key (null == null)."""
    import pyarrow.compute as pc

    from odibel_ray.cdc.lww import _same_next_key_mask

    if len(t) <= 1:
        return t
    t = t.combine_chunks()
    t = t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in (*keys, lsn_col)]))
    n = len(t)
    mask = np.ones(n, dtype=bool)
    mask[: n - 1] = ~_same_next_key_mask(t, keys)
    return t.filter(pa.array(mask))


def _key_values(type_: pa.DataType, n: int, rng) -> pa.Array:
    """``n`` key values of ``type_`` from a handful of distinct ones, about
    a tenth of them null."""
    draw = rng.integers(0, 6, n)
    null = rng.random(n) < 0.1
    if pa.types.is_boolean(type_):
        return pa.array(draw % 2 == 0, type_, mask=null)
    if pa.types.is_string(type_) or pa.types.is_large_string(type_):
        return pa.array([f"k{v}" for v in draw], type_, mask=null)
    if pa.types.is_binary(type_):
        return pa.array([b"\x00" * int(v) for v in draw], type_, mask=null)
    if pa.types.is_floating(type_):
        vals = np.array([0.0, -0.0, np.nan, 1.5, -2.0, np.nan])[draw]
        return pa.array(vals, type_, mask=null)
    if pa.types.is_signed_integer(type_):
        return pa.array(draw - 3, type_, mask=null)
    if pa.types.is_date32(type_):
        return pa.array(draw.astype(np.int32), pa.int32(), mask=null).view(type_)
    return pa.array(draw, pa.int64(), mask=null).cast(type_)


_KEY_TYPES = [pa.string(), pa.large_string(), pa.binary(), pa.int8(), pa.int16(), pa.int32(),
              pa.int64(), pa.uint8(), pa.uint64(), pa.timestamp("us"), pa.date32(), pa.bool_(),
              pa.float64(), pa.float32()]


def _case(types, n: int, seed: int, chunks: int = 1, lsn: pa.Array | None = None) -> pa.Table:
    """A seeded table of ``n`` rows: key columns of ``types``, an int64
    ``lsn`` with repeats (duplicate (key, lsn) rows) and a ``row`` id."""
    rng = np.random.default_rng(seed)
    cols = {f"k{i}": _key_values(tp, n, rng) for i, tp in enumerate(types)}
    cols["lsn"] = lsn if lsn is not None else pa.array(rng.integers(0, max(n // 2, 1), n))
    cols["row"] = pa.array(np.arange(n))
    t = pa.table(cols)
    if chunks > 1 and n:
        cuts = np.linspace(0, n, chunks + 1).astype(int)
        t = pa.concat_tables([t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])
    return t


def _assert_same_winners(t: pa.Table, keys) -> None:
    from odibel_ray.cdc.lww import keep_last_indices, keep_last_per_key

    want = _keep_last_reference(t, keys, "lsn")["row"].to_pylist()
    assert t.take(keep_last_indices(t, keys, "lsn"))["row"].to_pylist() == want
    got = keep_last_per_key(t, keys, "lsn")
    assert got["row"].to_pylist() == want
    assert got.schema == t.schema


@pytest.mark.parametrize("type_", _KEY_TYPES, ids=str)
def test_keep_last_kernel_matches_reference_one_key(type_):
    """The integer-code kernel and, for float keys (NaN, -0.0, 0.0), its
    Arrow fallback keep the same rows as the sort-based reference: null
    keys, duplicate (key, lsn) rows, multi-chunk inputs and n = 0, 1, 2."""
    for n in (0, 1, 2, 3, 17, 200):
        for seed in range(4):
            for chunks in (1, 3):
                _assert_same_winners(_case([type_], n, seed, chunks), ["k0"])


@pytest.mark.parametrize("types", [
    (pa.string(), pa.int64()), (pa.int32(), pa.string()), (pa.binary(), pa.bool_()),
    (pa.date32(), pa.timestamp("us")), (pa.large_string(), pa.float64()),
    (pa.float32(), pa.int8()),
], ids=str)
def test_keep_last_kernel_matches_reference_two_keys(types):
    for n in (0, 1, 2, 50, 300):
        for seed in range(3):
            for chunks in (1, 2):
                _assert_same_winners(_case(list(types), n, seed, chunks), ["k0", "k1"])


def test_keep_last_kernel_lsn_edges():
    """A null LSN sorts last (the reference's nulls-at-end order), and an
    LSN span too wide to pack with the key codes takes the Arrow path."""
    rng = np.random.default_rng(7)
    n = 40
    lsns = [
        pa.array(rng.integers(0, 10, n), mask=rng.random(n) < 0.2),
        pa.array(np.where(rng.random(n) < 0.5, -(1 << 62), 1 << 62) + rng.integers(0, 3, n)),
        pa.array(rng.integers(0, 5, n).astype(np.uint64)),
    ]
    for lsn in lsns:
        for types in ([pa.string()], [pa.string(), pa.int64()]):
            _assert_same_winners(_case(types, n, 3, lsn=lsn), [f"k{i}" for i in range(len(types))])


def test_no_base_bucket_drops_tombstone_winners(tmp_path):
    """A bucket write with no base stages its LWW winners without the keys
    whose last event is a tombstone, with the latest payload of the rest,
    in key order, exactly the reference keep-last minus tombstones."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from odibel_ray.cdc.sink import _table_layout, _write_events

    t = pa.table({
        "op": ["I", "U", "D", "I", "D", "I", "U", "I", "D"],
        "lsn": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
        "conv_id": ["a", "a", "b", "c", "c", "d", "b", "e", "e"],
        "turn_idx": pa.array([0, 0, 0, 1, 1, 0, 0, 2, 2], pa.int64()),
        "role": ["u"] * 9,
        "text": [f"t{i}" for i in range(9)],
        "tool_name": [None] * 9,
        "score": pa.array([None] * 9, pa.float64()),
        "ts": pa.array(range(9), pa.timestamp("us")),
        "part": pa.array([0] * 9, pa.int64()),
        "bucket": pa.array([3] * 9, pa.int64()),
    })
    # shuffled input: the kernel must order it, not rely on log order
    t = t.take([8, 2, 5, 0, 7, 3, 6, 1, 4])
    staging = tmp_path / "stage"
    m = _write_events(t, layout=_table_layout(str(tmp_path)), staging=str(staging), run_id="r")
    got = pq.read_table(staging / "part-000003-r.parquet")
    rows = t.rename_columns([{"lsn": "_lsn", "op": "_op"}.get(c, c) for c in t.column_names])
    want = _keep_last_reference(rows, ["conv_id", "turn_idx"], "_lsn")
    want = want.filter(pc.not_equal(want["_op"], "D"))
    assert got["conv_id"].to_pylist() == ["a", "b", "d"]  # c and e end deleted
    assert got["text"].to_pylist() == want["text"].to_pylist() == ["t1", "t6", "t5"]
    assert got["_lsn"].to_pylist() == want["_lsn"].to_pylist()
    assert "_op" not in got.column_names
    assert m["rows_out"][0].as_py() == 3
