"""Exact duplicate-substring spans vs a naive diagonal-scan reference."""

import numpy as np
import pyarrow as pa


def _naive_spans(docs: dict, T: int) -> set:
    """All maximal cross-doc byte runs >= T, brute force over diagonals —
    deliberately a different algorithm (no hashing, no winnowing)."""
    out = set()
    items = list(docs.items())
    for x in range(len(items)):
        for y in range(x + 1, len(items)):
            (da, sa), (db, sb) = items[x], items[y]
            if da > db:
                (da, sa), (db, sb) = (db, sb), (da, sa)
            A, B = sa.encode(), sb.encode()
            for diag in range(-(len(B) - 1), len(A)):
                i = max(diag, 0)
                j = i - diag
                run = 0
                start_i = i
                while i < len(A) and j < len(B):
                    if A[i] == B[j]:
                        if run == 0:
                            start_i = i
                        run += 1
                    else:
                        if run >= T:
                            out.add((da, db, start_i, start_i - diag, run))
                        run = 0
                    i += 1
                    j += 1
                if run >= T:
                    out.add((da, db, start_i, start_i - diag, run))
    return out


def _rand_text(rng, n: int) -> str:
    return "".join(chr(97 + int(c)) for c in rng.integers(0, 26, n))


def _planted_docs():
    rng = np.random.default_rng(5)
    base = _rand_text(rng, 400)
    return {
        1: base,
        2: base[:150] + _rand_text(rng, 60) + base[200:370],
        3: _rand_text(rng, 300),
        4: _rand_text(rng, 100) + base[50:130] + _rand_text(rng, 50),
        5: "zz" + base,  # full copy at a shifted offset
        6: "",  # empty text
        7: "tiny",  # shorter than the window
    }


def _docs_table(docs: dict) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values())),
        }
    )


def test_duplicate_spans_exact_vs_naive(ray_session):
    import ray.data as rd

    from odibel_ray.spans import duplicate_spans

    docs = _planted_docs()
    W, T = 32, 48
    expected = _naive_spans(docs, T)
    got = {
        (r["doc_a"], r["doc_b"], r["a_start"], r["b_start"], r["span_len"])
        for r in duplicate_spans(
            rd.from_arrow(_docs_table(docs)), min_len=T, window=W
        ).take_all()
    }
    assert got == expected
    assert len(got) >= 6  # the corpus genuinely plants spans


def test_duplicate_spans_min_len_equals_window(ray_session):
    """k=1 degenerates winnowing to every gram — still exact."""
    import ray.data as rd

    from odibel_ray.spans import duplicate_spans

    docs = _planted_docs()
    expected = _naive_spans(docs, 32)
    got = {
        (r["doc_a"], r["doc_b"], r["a_start"], r["b_start"], r["span_len"])
        for r in duplicate_spans(
            rd.from_arrow(_docs_table(docs)), min_len=32, window=32
        ).take_all()
    }
    assert got == expected


def test_duplicate_span_coverage_matches_union(ray_session):
    import ray.data as rd

    from odibel_ray.spans import duplicate_span_coverage

    docs = _planted_docs()
    W, T = 32, 48
    expected_spans = _naive_spans(docs, T)
    by_doc: dict = {}
    for da, db, a0, b0, ln in expected_spans:
        by_doc.setdefault(da, []).append((a0, a0 + ln))
        by_doc.setdefault(db, []).append((b0, b0 + ln))
    exp = {}
    for d, ivs in by_doc.items():
        ivs.sort()
        merged = []
        for s, e in ivs:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        exp[d] = (sum(e - s for s, e in merged), len(merged))
    got = {
        r["doc_id"]: (r["dup_bytes"], r["n_spans"])
        for r in duplicate_span_coverage(
            rd.from_arrow(_docs_table(docs)), min_len=T, window=W
        ).take_all()
    }
    assert got == exp


def test_duplicate_spans_capped_marker(ray_session):
    """A fingerprint shared by many docs gets capped with the marker; the
    span still surfaces for the surviving pairs."""
    import ray.data as rd

    from odibel_ray.spans import duplicate_spans

    shared = "the same boilerplate header line for everyone here"  # 50 bytes
    rng = np.random.default_rng(9)
    docs = {i: shared + _rand_text(rng, 100) for i in range(1, 9)}
    rows = duplicate_spans(
        rd.from_arrow(_docs_table(docs)), min_len=40, window=32, max_bucket=4
    ).take_all()
    assert rows, "capped buckets must still emit surviving pairs"
    assert all("capped" in r for r in rows)
    uncapped = duplicate_spans(
        rd.from_arrow(_docs_table(docs)), min_len=40, window=32
    ).take_all()
    # uncapped finds every pair (28 = C(8,2)), all spanning the full header
    assert len({(r["doc_a"], r["doc_b"]) for r in uncapped}) == 28
    assert all(r["span_len"] >= 50 for r in uncapped)


def test_rolling_hash_matches_direct():
    """The wraparound prefix trick equals a direct polynomial evaluation."""
    from odibel_ray.spans import _BASE, _rolling_hashes

    rng = np.random.default_rng(3)
    b = rng.integers(0, 256, 100).astype(np.uint8)
    W = 8
    got = _rolling_hashes(b, W)
    for i in range(0, len(b) - W + 1, 7):
        h = np.uint64(0)
        with np.errstate(over="ignore"):
            for m in range(W):
                h = h * _BASE + np.uint64(b[i + m])
        assert got[i] == h


def test_cut_duplicate_spans_keeps_lowest_id_copy(ray_session):
    """doc 5 ('zz' + full copy of doc 1) loses the copied 400 bytes but
    keeps its unique prefix; doc 1 (the lowest-id owner) is untouched;
    doc 3 (no duplicates) passes through with n_cut_bytes=0."""
    import ray.data as rd

    from odibel_ray.spans import cut_duplicate_spans

    docs = _planted_docs()
    out = {
        r["doc_id"]: r
        for r in cut_duplicate_spans(
            rd.from_arrow(_docs_table(docs)), min_len=48, window=32
        ).take_all()
    }
    assert set(out) == set(docs)
    assert out[1]["text"] == docs[1] and out[1]["n_cut_bytes"] == 0
    assert out[3]["text"] == docs[3] and out[3]["n_cut_bytes"] == 0
    assert out[5]["n_cut_bytes"] == 400
    assert out[5]["text"] == "zz"
    # doc 2 loses its two shared regions, keeps its unique middle (interior
    # slice: span extension may eat a couple of coincidental boundary bytes)
    assert out[2]["n_cut_bytes"] >= 300
    assert docs[2][155:205] in out[2]["text"]


def _naive_self_spans(docs: dict, T: int) -> set:
    """All maximal within-doc byte runs >= T on every positive diagonal."""
    out = set()
    for did, s in docs.items():
        A = s.encode()
        for d in range(1, len(A)):
            run = 0
            start = 0
            for j in range(len(A) - d):
                if A[j] == A[j + d]:
                    if run == 0:
                        start = j
                    run += 1
                else:
                    if run >= T:
                        out.add((did, start, start + d, run))
                    run = 0
            if run >= T:
                out.add((did, start, start + d, run))
    return out


def test_self_repeat_spans_exact_vs_naive(ray_session):
    """Pins exactness incl. the periodic case (multiples of the period are
    their own diagonals) and a doc with three occurrences of one block."""
    import ray.data as rd

    from odibel_ray.spans import self_repeat_spans

    rng = np.random.default_rng(11)
    block = _rand_text(rng, 60)
    docs = {
        1: _rand_text(rng, 50) + block + _rand_text(rng, 40) + block
           + _rand_text(rng, 30) + block,          # 3 occurrences
        2: _rand_text(rng, 200),                   # no repeats
        3: "ab" * 120,                             # periodic, period 2
        4: block + block,                          # adjacent doubling
        5: "",
    }
    T, W = 48, 32
    expected = _naive_self_spans(docs, T)
    got = {
        (r["doc_id"], r["a_start"], r["b_start"], r["span_len"])
        for r in self_repeat_spans(
            rd.from_arrow(_docs_table(docs)), min_len=T, window=W
        ).take_all()
    }
    assert got == expected
    # the periodic doc alone contributes every diagonal 2,4,...,<=192
    assert sum(1 for g in got if g[0] == 3) >= 90


# ---------------------------------------------------------------------------
# property tests over the pure kernels (no Ray) — hypothesis drives random
# byte strings; the references are brute-force scans
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=0, max_size=220),
    st.integers(min_value=4, max_value=10),
)
def test_prop_self_repeat_doc_matches_naive(data, window):
    from odibel_ray.spans import _self_repeat_doc

    min_len = window + 3
    b = np.frombuffer(data, np.uint8)
    a, bb, ln = _self_repeat_doc(b, window, min_len)
    got = set(zip(a.tolist(), bb.tolist(), ln.tolist()))
    exp = set()
    A = bytes(data)
    for d in range(1, len(A)):
        run = 0
        start = 0
        for j in range(len(A) - d):
            if A[j] == A[j + d]:
                if run == 0:
                    start = j
                run += 1
            else:
                if run >= min_len:
                    exp.add((start, start + d, run))
                run = 0
        if run >= min_len:
            exp.add((start, start + d, run))
    assert got == exp


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=0, max_size=200),
    st.integers(min_value=4, max_value=12),
)
def test_prop_rolling_hash_equal_iff_grams_equal(data, window):
    """Equal grams hash equal (exactness relies on it); for random input,
    hash equality also implies gram equality in practice (64-bit)."""
    from odibel_ray.spans import _rolling_hashes

    b = np.frombuffer(data, np.uint8)
    h = _rolling_hashes(b, window)
    grams = [bytes(data[i:i + window]) for i in range(max(len(data) - window + 1, 0))]
    assert len(h) == len(grams)
    seen: dict = {}
    for i, g in enumerate(grams):
        if g in seen:
            assert h[i] == h[seen[g]]
        seen[g] = i


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=60),
    st.integers(min_value=1, max_value=8),
)
def test_prop_winnow_guarantee(hs, k):
    """Every window of k consecutive hashes contains a selected position —
    the invariant the cross-doc detection proof rests on."""
    from odibel_ray.spans import _winnow

    h = np.array(hs, np.uint64)
    picks = set(_winnow(h, k).tolist())
    if len(h) >= k and k > 1:
        for w0 in range(len(h) - k + 1):
            assert picks & set(range(w0, w0 + k)), (w0, k)


def test_cross_duplicate_spans_exact_and_cross_only(ray_session):
    """Train/test span decontamination: exact vs a naive cross scan;
    within-corpus duplicates (two identical train docs) are NOT reported;
    id spaces may overlap between the corpora."""
    import ray.data as rd

    from odibel_ray.spans import cross_duplicate_spans

    rng = np.random.default_rng(17)
    secret = _rand_text(rng, 120)
    train = {
        1: _rand_text(rng, 80) + secret[:70] + _rand_text(rng, 60),
        2: _rand_text(rng, 150),
        3: _rand_text(rng, 150),  # planted within-train duplicate of 4
        4: None,  # filled below with doc 3's text
    }
    train[4] = train[3]
    test = {
        1: secret,  # same id as a train doc — id spaces are independent
        2: _rand_text(rng, 90),
    }
    W, T = 32, 48
    exp = set()
    for lid, lt in train.items():
        for rid, rt in test.items():
            A, B = lt.encode(), rt.encode()
            for diag in range(-(len(B) - 1), len(A)):
                i, j = max(diag, 0), max(diag, 0) - diag
                run, start = 0, 0
                while i < len(A) and j < len(B):
                    if A[i] == B[j]:
                        if run == 0:
                            start = i
                        run += 1
                    else:
                        if run >= T:
                            exp.add((lid, rid, start, start - diag, run))
                        run = 0
                    i += 1
                    j += 1
                if run >= T:
                    exp.add((lid, rid, start, start - diag, run))
    got = {
        (r["doc_id"], r["contaminant_id"], r["a_start"], r["b_start"],
         r["span_len"])
        for r in cross_duplicate_spans(
            rd.from_arrow(_docs_table(train)),
            rd.from_arrow(_docs_table(test)),
            min_len=T,
            window=W,
        ).take_all()
    }
    assert got == exp
    assert any(g[0] == 1 and g[1] == 1 for g in got)  # planted contamination
    # the train-train duplicate pair (3,4) must not surface anywhere
    assert not any(g[0] in (3, 4) or g[1] in (3, 4) for g in got)


def test_cut_contaminated_spans(ray_session):
    """Train docs lose exactly the bytes shared with the test corpus; the
    clean train doc and all ids pass through."""
    import ray.data as rd

    from odibel_ray.spans import cut_contaminated_spans

    rng = np.random.default_rng(29)
    secret = _rand_text(rng, 100)
    train = {
        1: _rand_text(rng, 60) + secret + _rand_text(rng, 40),
        2: _rand_text(rng, 150),
    }
    test = {9: _rand_text(rng, 30) + secret}
    out = {
        r["doc_id"]: r
        for r in cut_contaminated_spans(
            rd.from_arrow(_docs_table(train)),
            rd.from_arrow(_docs_table(test)),
            min_len=48,
            window=32,
        ).take_all()
    }
    assert set(out) == {1, 2}
    assert out[2]["text"] == train[2] and out[2]["n_cut_bytes"] == 0
    assert out[1]["n_cut_bytes"] >= 100  # the secret (+ maybe a flank byte)
    assert secret not in out[1]["text"]
    assert train[1][:55] in out[1]["text"]  # unique prefix survives


def test_cut_intervals_split_utf8_names_the_doc(ray_session):
    """A byte cut that splits a multi-byte UTF-8 sequence raises a
    ``ValueError`` naming the document and the byte-offset contract; cuts
    that split nothing, a whole multi-byte character included, still work."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from odibel_ray.spans import cut_intervals

    docs = rd.from_arrow(pa.table({"doc_id": pa.array([7, 8], pa.int64()),
                                   "text": ["héllo", "hello"]}))

    def cuts(rows):
        return rd.from_arrow(pa.table({k: pa.array(v, pa.int64())
                                       for k, v in zip(("doc_id", "start", "end"), zip(*rows))}))

    out = {r["doc_id"]: r for r in cut_intervals(docs, cuts([(7, 1, 3), (8, 0, 1)])).take_all()}
    assert out[7]["text"] == "hllo" and out[7]["n_cut_bytes"] == 2
    assert out[8]["text"] == "ello"
    # Ray Data re-raises a task's error wrapped; its message carries the cause
    with pytest.raises(Exception, match=r"ValueError: .*doc_id=7 splits a multi-byte.*byte offs"):
        cut_intervals(docs, cuts([(7, 1, 2)])).take_all()
