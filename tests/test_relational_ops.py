"""Relational op library vs DuckDB on the TPC-H-ish test tables."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _sql(q: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ["customer", "orders", "lineitem", "nation"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.execute(q).fetchdf()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns), ignore_index=True)


def _match(ds, sql):
    pd.testing.assert_frame_equal(
        _canon(ds.to_pandas()), _canon(_sql(sql)), check_dtype=False, atol=1e-9, rtol=0
    )


def test_broadcast_hash_join_inner(ray_session):
    from odibel_ray.ops import broadcast_hash_join, load_table

    orders = load_table(SF, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(SF, "customer", ["c_custkey", "c_name"])
    j = broadcast_hash_join(
        orders, cust.rename_columns({"c_custkey": "o_custkey"}), "o_custkey"
    )
    _match(
        j,
        "SELECT o_custkey, o_totalprice, c_name FROM orders JOIN customer ON o_custkey = c_custkey",
    )


def test_broadcast_hash_join_left(ray_session):
    import ray.data as rd
    import pyarrow as pa

    from odibel_ray.ops import broadcast_hash_join

    left = rd.from_arrow(pa.table({"k": [1, 2, 3], "x": [10, 20, 30]}))
    right = pa.table({"k": [1, 3], "y": ["a", "c"]})
    rows = sorted(
        broadcast_hash_join(left, right, "k", how="left").take_all(),
        key=lambda r: r["k"],
    )
    assert [r.get("y") for r in rows] == ["a", None, "c"]


def test_semi_and_anti_partition(ray_session):
    """semi ∪ anti == all rows, disjoint."""
    from odibel_ray.ops import broadcast_anti_join, broadcast_semi_join, load_table

    cust = load_table(SF, "customer", ["c_custkey"]).rename_columns({"c_custkey": "k"})
    orders = load_table(SF, "orders", ["o_custkey"]).rename_columns({"o_custkey": "k"})
    n_semi = broadcast_semi_join(cust, orders, "k").count()
    n_anti = broadcast_anti_join(cust, orders, "k").count()
    assert n_semi + n_anti == cust.count()


def test_exact_dedup_representative(ray_session):
    from odibel_ray.ops import exact_dedup, load_table

    orders = load_table(SF, "orders", ["o_orderkey", "o_orderstatus"])
    _match(
        exact_dedup(orders, ["o_orderstatus"], tie_break="o_orderkey"),
        """SELECT o_orderkey, o_orderstatus FROM (
             SELECT *, row_number() OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) rn
             FROM orders) WHERE rn = 1""",
    )


def test_deterministic_sample_stable(ray_session):
    from odibel_ray.ops import deterministic_sample, load_table

    li = load_table(SF, "lineitem", ["l_orderkey", "l_linenumber"])
    a = sorted(map(tuple, deterministic_sample(li, "l_orderkey", 7).to_pandas().values.tolist()))
    b = sorted(map(tuple, deterministic_sample(li, "l_orderkey", 7).to_pandas().values.tolist()))
    assert a == b and 0 < len(a) < li.count()


def test_topk_and_per_group(ray_session):
    from odibel_ray.ops import load_table, topk, topk_per_group

    li = load_table(SF, "lineitem", ["l_returnflag", "l_orderkey", "l_extendedprice"])
    top = topk(li, "l_extendedprice", 4).to_pandas()
    assert len(top) == 4
    assert list(top["l_extendedprice"]) == sorted(top["l_extendedprice"], reverse=True)

    per = topk_per_group(
        li, ["l_returnflag"], "l_extendedprice", 2, tie_break=["l_orderkey"]
    ).to_pandas()
    assert (per.groupby("l_returnflag").size() <= 2).all()


def test_count_distinct(ray_session):
    from odibel_ray.ops.aggregates import count_distinct
    from odibel_ray.ops import load_table

    orders = load_table(SF, "orders", ["o_custkey"])
    got = count_distinct(orders, ["o_custkey"]).take_all()[0]["n"]
    assert got == int(_sql("SELECT count(DISTINCT o_custkey) n FROM orders")["n"][0])


def test_approx_quantiles_vs_numpy(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from odibel_ray.ops.aggregates import approx_quantiles
    from odibel_ray.ops import load_table

    ev = load_table(SF, "events", ["value"])
    got = approx_quantiles(ev, "value", (0.25, 0.5, 0.75, 0.99), nbins=8192)
    v = pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    lo, hi = v.min(), v.max()
    # duplicate-heavy data (2-decimal values) concentrates mass at bin
    # edges; rank error stays <=1 bin but value error can span a few bins
    tol = (hi - lo) / 8192 * 4
    for q, est in got.items():
        exact = np.quantile(v, q)
        assert abs(est - exact) <= tol, (q, est, exact)


def test_rarity_first_sample(ray_session):
    from odibel_ray.ops import load_table
    from odibel_ray.ops.relational import rarity_first_sample

    docs = load_table(SF, "documents", ["doc_id", "lang"])
    res = rarity_first_sample(docs, "lang", "doc_id", per_type=3).take_all()
    by_lang = {}
    for r in res:
        by_lang.setdefault(r["lang"], []).append(r["doc_id"])
    assert all(len(v) == 3 for v in by_lang.items() and by_lang.values())
    ids = [r["doc_id"] for r in res]
    assert len(ids) == len(set(ids))  # no key selected twice
    # deterministic
    res2 = rarity_first_sample(docs, "lang", "doc_id", per_type=3).take_all()
    assert sorted(map(tuple, (r.values() for r in res))) == sorted(map(tuple, (r.values() for r in res2)))


def test_format_converters_audit(ray_session, tmp_path):
    from odibel_ray.sources import csv_to_parquet, parquet_to_csv, read_table_auto

    res = parquet_to_csv(f"{SF}/nation.parquet", str(tmp_path / "csv"))
    assert res["rows"] == 25
    res2 = csv_to_parquet(str(tmp_path / "csv"), str(tmp_path / "pq"))
    assert res2["rows"] == 25
    assert read_table_auto(f"{SF}/nation.parquet").count() == 25


def test_bucketed_join_matches_broadcast(ray_session):
    """Task-based distributed hash join == broadcast join (inner + left,
    including unmatched left rows)."""
    import pyarrow as pa

    from odibel_ray.ops import broadcast_hash_join, load_table
    from odibel_ray.ops.relational import bucketed_join

    orders = load_table(SF, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(SF, "customer", ["c_custkey", "c_name"]).rename_columns(
        {"c_custkey": "o_custkey"}
    )
    schema_l = pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())])
    schema_r = pa.schema([("o_custkey", pa.int64()), ("c_name", pa.string())])
    for how in ("inner", "left"):
        a = broadcast_hash_join(orders, cust, "o_custkey", how=how).to_pandas()
        b = bucketed_join(
            orders, cust, "o_custkey", how=how,
            left_schema=schema_l, right_schema=schema_r,
        ).to_pandas()
        cols = sorted(a.columns)
        pd.testing.assert_frame_equal(
            a[cols].sort_values(cols, ignore_index=True),
            b[cols].sort_values(cols, ignore_index=True),
            check_dtype=False,
        )


def test_bucketed_join_left_distinct_fuses_dedup(ray_session):
    """``left_distinct`` dedups duplicated left rows inside the join bucket —
    a raw multi-band LSH candidate stream joined with left_distinct equals a
    pre-deduped stream joined without it."""
    import pyarrow as pa
    import ray

    from odibel_ray.ops.relational import bucketed_join, exact_dedup

    # pairs duplicated across "bands" (each pair appears 1-3×)
    raw = pa.table(
        {
            "doc_a": pa.array([1, 1, 1, 2, 2, 3, 7, 7], pa.int64()),
            "doc_b": pa.array([5, 5, 6, 6, 6, 9, 8, 8], pa.int64()),
        }
    )
    docs = pa.table(
        {
            "doc_a": pa.array([1, 2, 3, 7], pa.int64()),
            "t": pa.array(["a", "b", "c", "d"]),
        }
    )
    schema_l = raw.schema
    schema_r = docs.schema
    fused = bucketed_join(
        ray.data.from_arrow(raw), ray.data.from_arrow(docs), "doc_a",
        num_buckets=4, left_schema=schema_l, right_schema=schema_r,
        left_distinct=["doc_a", "doc_b"],
    ).to_pandas()
    pre = bucketed_join(
        exact_dedup(ray.data.from_arrow(raw), ["doc_a", "doc_b"]),
        ray.data.from_arrow(docs), "doc_a",
        num_buckets=4, left_schema=schema_l, right_schema=schema_r,
    ).to_pandas()
    cols = sorted(fused.columns)
    pd.testing.assert_frame_equal(
        fused[cols].sort_values(cols, ignore_index=True),
        pre[cols].sort_values(cols, ignore_index=True),
        check_dtype=False,
    )
    assert len(fused) == 5  # one row per distinct (doc_a, doc_b)


def test_shuffle_join_matches_broadcast(ray_session):
    from odibel_ray.ops import broadcast_hash_join, load_table
    from odibel_ray.ops.relational import shuffle_join

    orders = load_table(SF, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(SF, "customer", ["c_custkey", "c_name"])
    a = broadcast_hash_join(
        orders, cust.rename_columns({"c_custkey": "o_custkey"}), "o_custkey"
    ).to_pandas()
    b = shuffle_join(
        orders, cust, "o_custkey", right_on="c_custkey", num_partitions=8
    ).to_pandas()
    b = b[a.columns.tolist() + [c for c in b.columns if c not in a.columns]]
    cols = sorted(set(a.columns) & set(b.columns))
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols, ignore_index=True),
        b[cols].sort_values(cols, ignore_index=True),
        check_dtype=False,
    )


def test_sessionize_events_vs_sessions_emit(ray_session):
    """The fused sessions emit must equal aggregating the per-event emit."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.aggregates import sessionize

    rng = np.random.default_rng(21)
    n = 500
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 12, n), pa.int64()),
            "ts": pa.array(np.sort(rng.integers(0, 10_000, n)) * 1_000_000, pa.timestamp("us")),
            "eid": pa.array(rng.permutation(n), pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    gap = 300 * 1_000_000
    ev = sessionize(ds, ["k"], "ts", gap_us=gap, tie_cols=["eid"]).take_all()
    manual = {}
    for r in ev:
        key = (r["k"], r["session_id"])
        c, m = manual.get(key, (0, None))
        manual[key] = (c + 1, r["eid"] if m is None else min(m, r["eid"]))
    fused = sessionize(
        ds, ["k"], "ts", gap_us=gap, tie_cols=["eid"], emit="sessions", agg_col="eid"
    ).take_all()
    got = {(r["k"], r["session_id"]): (r["n_events"], r["min_eid"]) for r in fused}
    assert got == manual


def test_asof_join_semantics(ray_session):
    """Latest-at-or-before semantics: equal timestamps match (<=), events
    before any snapshot get null, keys without snapshots get null."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import asof_join

    ts = pa.timestamp("us")
    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
            "ts": pa.array([5, 10, 20, 7, 9], ts),
            "eid": pa.array([100, 101, 102, 103, 104], pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "ts": pa.array([10, 15, 8], ts),
            "v": pa.array([1.0, 2.0, 9.0]),
        }
    )
    out = asof_join(
        rd.from_arrow(left),
        rd.from_arrow(right),
        "k",
        "ts",
        value_cols=["v"],
        left_schema=left.schema,
        right_schema=right.schema,
    ).take_all()
    got = {r["eid"]: r["v"] for r in out}
    assert got == {
        100: None,  # before first snapshot of k=1
        101: 1.0,   # equal ts -> included
        102: 2.0,   # latest at-or-before 20 is ts=15
        103: None,  # k=2 snapshot is at ts=8 > 7
        104: None,  # k=3 has no snapshots
    }


def test_range_join_semantics(ray_session):
    """Interval containment [start, end): overlapping intervals multi-match,
    boundary end excluded, keys without counterpart drop out."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import range_join

    ts = pa.timestamp("us")
    pts = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "ts": pa.array([1, 5, 9, 13, 5], ts),
            "pid": pa.array([0, 1, 2, 3, 4], pa.int64()),
        }
    )
    ivs = pa.table(
        {
            "k": pa.array([1, 1, 3], pa.int64()),
            "s": pa.array([0, 4, 0], ts),
            "e": pa.array([10, 13, 100], ts),
            "iid": pa.array([10, 20, 30], pa.int64()),
        }
    )
    out = range_join(
        rd.from_arrow(pts), rd.from_arrow(ivs), "k", "ts", "s", "e",
        payload_cols=["iid"], points_schema=pts.schema, intervals_schema=ivs.schema,
    ).take_all()
    pairs = sorted((r["pid"], r["iid"]) for r in out)
    # ts=13 == end of interval 20 -> excluded; k=2 and k=3 have no counterpart
    assert pairs == [(0, 10), (1, 10), (1, 20), (2, 10), (2, 20)]


def test_range_join_many_intervals_property(ray_session):
    """Property check with 10× more intervals than points: the batched
    lexicographic searchsorted must agree with a brute-force nested loop."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import range_join

    rng = np.random.default_rng(71)
    n_pts, n_ivs = 200, 2_000
    ts = pa.timestamp("us")
    p_k = rng.integers(0, 12, n_pts)
    p_ts = rng.integers(0, 1_000, n_pts)
    i_k = rng.integers(0, 14, n_ivs)  # some keys have no points
    i_s = rng.integers(0, 1_000, n_ivs)
    i_e = i_s + rng.integers(0, 80, n_ivs)
    pts = pa.table(
        {
            "k": pa.array(p_k, pa.int64()),
            "ts": pa.array(p_ts, pa.int64()).cast(ts),
            "pid": pa.array(np.arange(n_pts), pa.int64()),
        }
    )
    ivs = pa.table(
        {
            "k": pa.array(i_k, pa.int64()),
            "s": pa.array(i_s, pa.int64()).cast(ts),
            "e": pa.array(i_e, pa.int64()).cast(ts),
            "iid": pa.array(np.arange(n_ivs), pa.int64()),
        }
    )
    out = range_join(
        rd.from_arrow(pts), rd.from_arrow(ivs), "k", "ts", "s", "e",
        payload_cols=["iid"], points_schema=pts.schema, intervals_schema=ivs.schema,
    ).take_all()
    got = sorted((r["pid"], r["iid"]) for r in out)
    want = sorted(
        (p, i)
        for i in range(n_ivs)
        for p in range(n_pts)
        if p_k[p] == i_k[i] and i_s[i] <= p_ts[p] < i_e[i]
    )
    assert got == want


def test_codec_autodetect(ray_session, tmp_path):
    """S4: extension-chain codec detection on raw text and table sources."""
    import gzip

    from odibel_ray.rdf import read_ntriples
    from odibel_ray.sources import detect_codec, read_table_auto

    assert detect_codec("x.nt.gz") == ("gzip", "x.nt")
    assert detect_codec("x.csv.bz2") == ("bz2", "x.csv")
    assert detect_codec("x.parquet") == (None, "x.parquet")

    nt = tmp_path / "t.nt.gz"
    with gzip.open(nt, "wt") as f:
        f.write("<a> <b> <c> .\n<a> <b> \"lit\" .\n")
    assert read_ntriples(str(nt)).count() == 2

    csvgz = tmp_path / "t.csv.gz"
    with gzip.open(csvgz, "wt") as f:
        f.write("k,v\n1,a\n2,b\n")
    assert read_table_auto(str(csvgz)).count() == 2


def test_orc_feather_sources(ray_session, tmp_path):
    """S4 extension: per-file task-based ORC / Feather readers + the audited
    ORC→Parquet converter."""
    import pyarrow as pa
    from pyarrow import feather, orc

    from odibel_ray.sources import orc_to_parquet, read_feather, read_orc, read_table_auto

    t = pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    d = tmp_path / "fmt"
    d.mkdir()
    orc.write_table(t, str(d / "part-0.orc"))
    orc.write_table(t, str(d / "part-1.orc"))
    feather.write_feather(t, str(d / "t.feather"))

    got = read_orc(str(d / "part-0.orc")).to_pandas().sort_values("k", ignore_index=True)
    assert got.v.tolist() == ["a", "b", "c"]
    assert read_orc(str(d)).count() == 6  # directory of files, one task each
    assert read_feather(str(d / "t.feather")).count() == 3
    assert read_table_auto(str(d / "part-0.orc")).count() == 3
    assert read_table_auto(str(d / "t.feather")).count() == 3
    res = orc_to_parquet(str(d / "part-0.orc"), str(tmp_path / "out"))
    assert res["rows"] == 3


def test_cron_expansion(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.cron import CronPattern, expand_cron

    base = int(dt.datetime(2024, 1, 1, 0, 0).timestamp() * 1_000_000)
    hour = 3_600_000_000
    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "w_start": pa.array([base, base + hour], pa.timestamp("us")),
            "w_end": pa.array([base + 2 * hour, base + 3 * hour], pa.timestamp("us")),
        }
    )
    # every 30 minutes -> 4 occurrences per 2h window
    out = expand_cron(rd.from_arrow(t), "*/30 * * * *", "w_start", "w_end").take_all()
    per_id = {}
    for r in out:
        per_id.setdefault(r["id"], []).append(r["occurs_at"])
    assert len(per_id[1]) == 4 and len(per_id[2]) == 4
    assert all(x.minute in (0, 30) for x in per_id[1])
    # field syntax — UNIX cron day-of-week (0=Sunday..6=Saturday, 7=Sunday)
    p = CronPattern("0 9 * * 0-4")  # 9:00 Sun-Thu
    assert p.matches(dt.datetime(2024, 1, 1, 9, 0))  # Monday (dow 1)
    assert p.matches(dt.datetime(2024, 1, 7, 9, 0))  # Sunday (dow 0)
    assert not p.matches(dt.datetime(2024, 1, 5, 9, 0))  # Friday (dow 5)
    assert not p.matches(dt.datetime(2024, 1, 6, 9, 0))  # Saturday (dow 6)
    assert not p.matches(dt.datetime(2024, 1, 1, 9, 1))
    assert CronPattern("0 9 * * 7").matches(dt.datetime(2024, 1, 7, 9, 0))  # 7=Sun
    # occurrences are computed in UTC regardless of host TZ: first minute of
    # a known Sunday must round-trip exactly
    sun = dt.datetime(2024, 1, 7, 9, 0, tzinfo=dt.timezone.utc)
    us = int(sun.timestamp() * 1_000_000)
    occ = CronPattern("0 9 * * 0").occurrences_us(us - 60_000_000, us + 60_000_000)
    assert occ == [us]


def test_cron_arithmetic_matches_minute_scan():
    """The arithmetic enumerator must agree with a brute-force per-minute scan
    (the semantics the old implementation — and the SQL oracle — define)."""
    import datetime as dt

    from odibel_ray.ops.cron import CronPattern

    start = dt.datetime(2024, 2, 27, 13, 37, 11, tzinfo=dt.timezone.utc)
    end = dt.datetime(2024, 3, 4, 2, 5, tzinfo=dt.timezone.utc)
    s_us, e_us = int(start.timestamp() * 1e6), int(end.timestamp() * 1e6)
    for expr in ("*/15 8-17 * * 1-5", "0 0 29 2 *", "30 */6 1,15 * *", "* * * * *"):
        p = CronPattern(expr)
        got = p.occurrences_us(s_us, e_us)
        t = start.replace(second=0, microsecond=0)
        if s_us % 60_000_000:
            t += dt.timedelta(minutes=1)
        want = []
        while t < end:
            if p.matches(t):
                want.append(int(t.timestamp() * 1_000_000))
            t += dt.timedelta(minutes=1)
        assert got == want, expr


def test_cron_year_window_fast():
    """A 366-day window must complete in milliseconds (no per-minute scan)."""
    import datetime as dt
    import time

    from odibel_ray.ops.cron import CronPattern

    s = int(dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc).timestamp() * 1e6)
    e = s + 366 * 86_400_000_000
    t0 = time.perf_counter()
    occ = CronPattern("*/5 * * * *").occurrences_us(s, e)
    elapsed = time.perf_counter() - t0
    assert len(occ) == 366 * 24 * 12
    assert elapsed < 0.5, f"year-long cron window took {elapsed:.3f}s"


def test_broadcast_guard_falls_back_to_bucketed(ray_session):
    """A build side over max_broadcast_bytes must NOT be driver-collected:
    the join silently degrades to bucketed_join and answers identically."""
    from odibel_ray.ops import broadcast_hash_join, load_table

    orders = load_table(SF, "orders", ["o_custkey", "o_totalprice"])
    cust = load_table(SF, "customer", ["c_custkey", "c_name"])
    small = cust.rename_columns({"c_custkey": "o_custkey"})
    sql = (
        "SELECT o_custkey, o_totalprice, c_name FROM orders "
        "JOIN customer ON o_custkey = c_custkey"
    )
    # 1-byte budget: every block crosses it, so this exercises the fallback
    _match(broadcast_hash_join(orders, small, "o_custkey", max_broadcast_bytes=1), sql)
    _match(
        broadcast_hash_join(
            orders, small, "o_custkey", how="left", max_broadcast_bytes=1
        ),
        "SELECT o_custkey, o_totalprice, c_name FROM orders "
        "LEFT JOIN customer ON o_custkey = c_custkey",
    )


def test_semi_anti_guard_falls_back_to_bucketed(ray_session):
    """Semi/anti joins over the broadcast limit run as bucketed semi/anti
    shuffle joins; the distinct-key combiner must not change the answer."""
    from odibel_ray.ops import broadcast_anti_join, broadcast_semi_join, load_table

    import pyarrow.compute as _pc

    cust = load_table(SF, "customer", ["c_custkey", "c_name"])
    orders = (
        load_table(SF, "orders", ["o_custkey"])
        .rename_columns({"o_custkey": "c_custkey"})
        .map_batches(
            # even keys only, so the anti side is non-empty at this SF
            lambda t: t.filter(
                _pc.equal(_pc.bit_wise_and(t["c_custkey"], 1), 0)
            ),
            batch_format="pyarrow",
        )
    )
    semi_sql = (
        "SELECT c_custkey, c_name FROM customer "
        "WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_custkey % 2 = 0)"
    )
    anti_sql = (
        "SELECT c_custkey, c_name FROM customer "
        "WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_custkey % 2 = 0)"
    )
    _match(broadcast_semi_join(cust, orders, "c_custkey"), semi_sql)
    _match(
        broadcast_semi_join(cust, orders, "c_custkey", max_broadcast_bytes=1), semi_sql
    )
    _match(
        broadcast_anti_join(cust, orders, "c_custkey", max_broadcast_bytes=1), anti_sql
    )


def test_stratified_sample_rates(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import stratified_sample

    n = 20000
    rng = np.random.default_rng(5)
    t = pa.table({
        "k": np.arange(n),
        "g": rng.choice(["a", "b", "c"], n).astype(object),
    })
    out = stratified_sample(
        rd.from_arrow(t), "k", "g", {"a": 100, "b": 10}, default_pct=50
    ).to_pandas()
    df = t.to_pandas()
    per_g = out.groupby("g")["k"].count()
    tot = df.groupby("g")["k"].count()
    assert per_g["a"] == tot["a"]                      # 100% kept
    assert abs(per_g["b"] / tot["b"] - 0.10) < 0.02     # ~10%
    assert abs(per_g["c"] / tot["c"] - 0.50) < 0.02     # default 50%
    # deterministic: a second pass selects the identical rows
    out2 = stratified_sample(
        rd.from_arrow(t), "k", "g", {"a": 100, "b": 10}, default_pct=50
    ).to_pandas()
    assert sorted(out2.k) == sorted(out.k)


def test_bucketed_join_left_distinct_max_capped(ray_session):
    """A pair present with capped=True and capped=False copies must keep
    capped=True deterministically (any-copy-capped), not an arbitrary
    shuffle-order copy."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import bucketed_join

    pairs = pa.table(
        {
            "a_id": pa.array([1, 1, 1, 2], pa.int64()),
            "b_id": pa.array([5, 5, 5, 6], pa.int64()),
            "capped": pa.array([False, True, False, False]),
        }
    )
    names = pa.table(
        {"a_id": pa.array([1, 2], pa.int64()), "s": pa.array(["x", "y"])}
    )
    out = bucketed_join(
        rd.from_arrow(pairs),
        rd.from_arrow(names),
        "a_id",
        left_distinct=["a_id", "b_id"],
        left_distinct_max=["capped"],
        num_buckets=4,
    ).take_all()
    got = {(r["a_id"], r["b_id"]): r["capped"] for r in out}
    assert got == {(1, 5): True, (2, 6): False}


def test_grouping_sets_rejects_duplicate_column(ray_session):
    import pytest as _pytest
    import ray.data as rd

    from odibel_ray.ops.aggregates import rollup_counts

    ds = rd.range(10).map_batches(
        lambda t: t.append_column("a", t["id"]), batch_format="pyarrow"
    )
    with _pytest.raises(ValueError, match="repeats a column"):
        rollup_counts(ds, ["a"], grouping="sets", sets=[["a", "a"]])


def test_edit_distance_join_rejects_string_ids(ray_session):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from odibel_ray.er import edit_distance_join

    docs = pa.table(
        {"doc_id": pa.array(["x1", "x2"]), "text": pa.array(["abc", "abd"])}
    )
    with _pytest.raises(Exception, match="must be an integer column"):
        edit_distance_join(rd.from_arrow(docs), tau=1).take_all()


def test_interval_overlap_join_matches_brute_force(ray_session):
    """Keyed interval-overlap pairs vs an O(n*m) scan — half-open
    [start, end) semantics, cross-key pairs excluded."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.ops.relational import interval_overlap_join

    def mk(n, seed):
        r = np.random.default_rng(seed)
        k = r.integers(0, 6, n)
        s = r.integers(0, 1000, n)
        return pa.table(
            {"k": pa.array([f"u{i}" for i in k]),
             "start": pa.array(s.astype(np.int64)),
             "end": pa.array((s + r.integers(1, 120, n)).astype(np.int64)),
             "id": pa.array(np.arange(n, dtype=np.int64) + seed * 1000)}
        )

    L, R = mk(80, 1), mk(70, 2)
    exp = {
        (L["id"][i].as_py(), R["id"][j].as_py())
        for i in range(len(L))
        for j in range(len(R))
        if L["k"][i].as_py() == R["k"][j].as_py()
        and L["start"][i].as_py() < R["end"][j].as_py()
        and R["start"][j].as_py() < L["end"][i].as_py()
    }
    got = {
        (r_["id"], r_["id_r"])
        for r_ in interval_overlap_join(
            rd.from_arrow(L), rd.from_arrow(R), "k",
            left_payload=["id"], right_payload=["id"],
            left_schema=L.schema, right_schema=R.schema,
        ).take_all()
    }
    assert got == exp and len(exp) > 50
    # touching intervals ([0,10) vs [10,20)) do NOT overlap (half-open)
    a = pa.table({"k": pa.array(["x"]), "start": pa.array([0], pa.int64()),
                  "end": pa.array([10], pa.int64()),
                  "id": pa.array([1], pa.int64())})
    b = pa.table({"k": pa.array(["x"]), "start": pa.array([10], pa.int64()),
                  "end": pa.array([20], pa.int64()),
                  "id": pa.array([2], pa.int64())})
    assert interval_overlap_join(
        rd.from_arrow(a), rd.from_arrow(b), "k",
        left_payload=["id"], right_payload=["id"],
        left_schema=a.schema, right_schema=b.schema,
    ).count() == 0


def test_range_joins_pair_real_keys_on_hash_collision(ray_session, monkeypatch):
    """Every key collides on the kernels' 62-bit key hash (one bucket, so
    both keys meet in one group): ``range_join`` and
    ``interval_overlap_join`` still pair only rows whose key columns are
    equal."""
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.cdc import lww
    from odibel_ray.ops.relational import interval_overlap_join, range_join

    real = lww.bucket_of_keys

    def colliding(t, keys, num_buckets):
        if num_buckets == 1 << 62:
            return np.zeros(len(t), dtype=np.int64)
        return real(t, keys, num_buckets)

    monkeypatch.setattr(lww, "bucket_of_keys", colliding)
    pts = pa.table({"k": pa.array([1, 2], pa.int64()), "ts": pa.array([5, 5], pa.int64()),
                    "pid": pa.array([0, 1], pa.int64())})
    ivs = pa.table({"k": pa.array([1], pa.int64()), "s": pa.array([0], pa.int64()),
                    "e": pa.array([10], pa.int64()), "iid": pa.array([10], pa.int64())})
    out = range_join(
        rd.from_arrow(pts), rd.from_arrow(ivs), "k", "ts", "s", "e", payload_cols=["iid"],
        num_buckets=1, points_schema=pts.schema, intervals_schema=ivs.schema,
    ).take_all()
    assert [(r["pid"], r["iid"]) for r in out] == [(0, 10)]
    left = pa.table({"k": ["x", "y"], "start": pa.array([0, 0], pa.int64()),
                     "end": pa.array([10, 10], pa.int64()), "id": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": ["x"], "start": pa.array([5], pa.int64()),
                      "end": pa.array([15], pa.int64()), "id": pa.array([3], pa.int64())})
    got = interval_overlap_join(
        rd.from_arrow(left), rd.from_arrow(right), "k", left_payload=["id"],
        right_payload=["id"], num_buckets=1, left_schema=left.schema,
        right_schema=right.schema,
    ).take_all()
    assert [(r["id"], r["id_r"]) for r in got] == [(1, 3)]
