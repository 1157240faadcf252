"""Text analysis, dedup suite, and similarity search."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _docs_with_planted_dups():
    """documents + near-duplicate copies of 5 docs (one token changed)."""
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()[:5]
    texts = t["text"].to_pylist()[:5]
    dup_ids, dup_texts = [], []
    for i, (d, s) in enumerate(zip(ids, texts)):
        toks = s.split(" ")
        toks[len(toks) // 2] = "MUTATED"
        dup_ids.append(10_000 + d)
        dup_texts.append(" ".join(toks))
    return pa.table(
        {
            "doc_id": pa.array(ids + dup_ids, pa.int64()),
            "text": pa.array(texts + dup_texts, pa.string()),
        }
    ), set(zip(ids, dup_ids))


def test_token_count_matches_split(ray_session):
    import ray.data as rd

    from odibel_ray.text import add_token_count

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    rows = add_token_count(docs).take(50)
    for r in rows:
        assert r["tokens"] == len(r["text"].split(" "))


def test_quality_scores(ray_session):
    import ray.data as rd

    from odibel_ray.text import quality_scores

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    rows = quality_scores(docs, concurrency=2).take(20)
    for r in rows:
        assert 0.0 <= r["stop_ratio"] <= 1.0
        assert r["tokens"] > 0 and r["mean_word_len"] > 0


def test_language_id_accuracy(ray_session):
    """Byte-histogram language ID on a corpus whose languages actually differ
    (the driver testdata labels all share one vocabulary, so accuracy there is
    chance by construction — the query stays a rows-only check)."""
    import ray.data as rd

    from odibel_ray.text import LanguageID, fit_language_profiles, language_id

    vocab = {
        "aa": "der die das und ist nicht mit für über zwischen",
        "bb": "le la les et dans pour avec sur une des",
        "cc": "alpha beta gamma delta epsilon zeta eta theta iota kappa",
    }
    rng = np.random.default_rng(17)
    ids, texts, langs = [], [], []
    for i in range(300):
        lang = list(vocab)[i % 3]
        words = vocab[lang].split()
        texts.append(" ".join(rng.choice(words, size=30)))
        ids.append(i)
        langs.append(lang)
    tbl = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": texts, "lang": langs}
    )
    train = tbl.slice(0, 150)
    profiles = fit_language_profiles(train)
    pred_rows = language_id(
        rd.from_arrow(tbl.slice(150)), profiles, concurrency=2
    ).take_all()
    pred = {r["doc_id"]: r["pred_lang"] for r in pred_rows}
    acc = np.mean([pred[i] == l for i, l in zip(ids[150:], langs[150:])])
    assert acc > 0.95, f"lang-id accuracy {acc}"


def test_lang_id_query_runs(ray_session):
    from odibel_ray.pipelines.queries import q_doc_lang_id

    rows = q_doc_lang_id(SF).take(10)
    assert all(r["pred_lang"] for r in rows)


def test_language_id_empty_and_null_text():
    """A zero byte histogram (empty or NULL text) scores 0 against every
    profile; argmax then picks the FIRST sorted language — the deterministic
    fallback the doc_lang_id oracle SQL replays via coalesce(min(lang))."""
    from odibel_ray.text import LanguageID

    profiles = {"en": np.ones(256), "de": np.arange(256, dtype=np.float64)}
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["", None, "the quick brown fox"]),
        }
    )
    out = LanguageID(profiles)(t).to_pydict()
    assert out["pred_lang"][:2] == ["de", "de"]  # min(sorted langs)
    assert out["pred_lang"][2] == "en"


def test_fingerprint_deterministic(ray_session):
    import ray.data as rd

    from odibel_ray.text import add_fingerprint

    docs = rd.read_parquet(f"{SF}/documents.parquet")
    a = {r["doc_id"]: r["fp"] for r in add_fingerprint(docs).take_all()}
    b = {r["doc_id"]: r["fp"] for r in add_fingerprint(docs).take_all()}
    assert a == b
    assert len(set(a.values())) == len(a)  # distinct texts -> distinct fps


def test_minhash_finds_planted_dups(ray_session):
    import ray.data as rd

    from odibel_ray.dedup import minhash_lsh_pairs, verify_pairs_jaccard

    tbl, planted = _docs_with_planted_dups()
    docs = rd.from_arrow(tbl)
    pairs = minhash_lsh_pairs(docs, threshold=0.3)
    verified = verify_pairs_jaccard(pairs, docs, threshold=0.3)
    got = {(r["doc_a"], r["doc_b"]) for r in verified.take_all()}
    found = sum((a, b) in got for a, b in planted)
    assert found >= 4, f"only {found}/5 planted near-dups found: {got}"
    # verified jaccard values must be exact n-gram jaccard
    for r in verified.take_all():
        assert 0.0 <= r["jaccard"] <= 1.0


def test_spanning_emit_same_components(ray_session):
    """emit='spanning' ships O(n) edges per bucket yet yields bit-identical
    connected components to the full kept-pair graph (connectivity-preserving
    per-bucket contraction)."""
    import ray.data as rd

    from odibel_ray.dedup import minhash_lsh_pairs
    from odibel_ray.state import connected_components_distributed

    tbl, _ = _docs_with_planted_dups()
    docs = rd.from_arrow(tbl)
    comp = lambda emit: {  # noqa: E731
        r["node"]: r["component"]
        for r in connected_components_distributed(
            minhash_lsh_pairs(docs, threshold=0.3, emit=emit)
        ).take_all()
    }
    full, spanning = comp("pairs"), comp("spanning")
    assert full == spanning and len(full) > 0


def test_spanning_edges_unit():
    """_local_spanning_edges: connectivity preserved, O(n) edges, min root."""
    import numpy as np

    from odibel_ray.dedup import _local_spanning_edges

    # two components {0,1,2,3} (chain) and {5,6} plus isolated 4
    ia = np.array([1, 2, 3, 6], dtype=np.int64)
    ib = np.array([0, 1, 2, 5], dtype=np.int64)
    roots, members = _local_spanning_edges(7, ia, ib)
    got = sorted(zip(roots.tolist(), members.tolist()))
    assert got == [(0, 1), (0, 2), (0, 3), (5, 6)]


def test_simhash_finds_planted_dups(ray_session):
    import ray.data as rd

    from odibel_ray.dedup import simhash_pairs

    tbl, planted = _docs_with_planted_dups()
    got = {
        (r["doc_a"], r["doc_b"])
        for r in simhash_pairs(rd.from_arrow(tbl), max_hamming=10).take_all()
    }
    found = sum((a, b) in got for a, b in planted)
    assert found >= 3, f"only {found}/5 planted near-dups found"


def test_embedding_near_dups_with_planted(ray_session):
    import ray.data as rd

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    # plant 5 near-identical vectors (tiny noise)
    rng = np.random.default_rng(5)
    planted = emb[:5] + rng.normal(0, 0.01, (5, emb.shape[1])).astype(np.float32)
    ids = t["vec_id"].to_pylist() + [10_000 + i for i in range(5)]
    allv = np.vstack([emb, planted])
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(allv), pa.list_(pa.float32())),
        }
    )
    from odibel_ray.dedup import embedding_near_dups

    got = {
        (r["vec_a"], r["vec_b"])
        for r in embedding_near_dups(rd.from_arrow(tbl), threshold=0.98).take_all()
    }
    found = sum((i, 10_000 + i) in got for i in range(5))
    assert found >= 4, f"only {found}/5 planted vector dups found"


def test_bucket_cap_star_pairs_unit():
    """Oversized buckets must emit O(n) star pairs, never O(n²)."""
    from odibel_ray.dedup import _bucket_pair_indices, _pairs_in_bucket

    ia, ib = _bucket_pair_indices(10_000, 512, "test")
    assert len(ia) == 9_999 and (ia == 0).all()
    assert ib[0] == 1 and ib[-1] == 9_999
    # small buckets keep full enumeration
    ia, ib = _bucket_pair_indices(10, 512, "test")
    assert len(ia) == 45
    # kernel level: a degenerate 10k-doc bucket with signatures
    n = 10_000
    sig = pa.FixedSizeListArray.from_arrays(
        pa.array(np.zeros(n * 4, np.int64)), 4
    )
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "sig": sig,
        }
    )
    out = _pairs_in_bucket(t, threshold=0.0, num_perm=4, max_bucket=256)
    assert len(out) == n - 1
    assert set(out["doc_a"].to_pylist()) == {0}


def test_minhash_capped_identical_docs(ray_session):
    """10k identical docs: every band bucket is degenerate; the cap bounds the
    pair output to n-1 star pairs and nothing OOMs."""
    import ray.data as rd

    from odibel_ray.dedup import minhash_lsh_pairs

    n = 10_000
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["the same boilerplate text repeated verbatim"] * n),
        }
    )
    pairs = minhash_lsh_pairs(
        rd.from_arrow(tbl), threshold=0.3, max_bucket=256
    ).take_all()
    assert len(pairs) == n - 1
    assert {r["doc_a"] for r in pairs} == {0}
    assert {r["doc_b"] for r in pairs} == set(range(1, n))


def test_simhash_and_embedding_capped(ray_session):
    import ray.data as rd

    from odibel_ray.dedup import embedding_near_dups, simhash_pairs

    n = 2_000
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["identical duplicated content here"] * n),
        }
    )
    got = simhash_pairs(rd.from_arrow(tbl), max_hamming=8, max_bucket=128).take_all()
    assert len(got) == n - 1 and {r["doc_a"] for r in got} == {0}

    vec = np.ones((n, 8), np.float32)
    etbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(vec), pa.list_(pa.float32())),
        }
    )
    got = embedding_near_dups(
        rd.from_arrow(etbl), threshold=0.9, max_bucket=128
    ).take_all()
    assert len(got) == n - 1 and {r["vec_a"] for r in got} == {0}


def test_cosine_topk_exact_vs_numpy(ray_session):
    import ray.data as rd

    from odibel_ray.sim import cosine_topk

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    emb_n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    ids = np.array(t["vec_id"].to_pylist())

    queries = pa.table(
        {"query_id": pa.array([0, 7], pa.int64()), "embedding": t["embedding"].combine_chunks().take(pa.array([0, 7]))}
    )
    res = cosine_topk(rd.from_arrow(t), queries, k=5)
    got = {}
    for r in res.take_all():
        got.setdefault(r["query_id"], {})[r["rank"]] = r["vec_id"]
    for qi in (0, 7):
        sims = emb_n[qi] @ emb_n.T
        sims[qi] = -np.inf
        expect = ids[np.lexsort((ids, -sims))[:5]]
        assert [got[qi][r] for r in range(5)] == list(expect)


def test_ivf_topk_recall(ray_session):
    import ray.data as rd

    from odibel_ray.pipelines.queries import q_ann_cosine_topk, q_ann_ivf_topk

    exact = {(r["query_id"], r["vec_id"]) for r in q_ann_cosine_topk(SF).take_all()}
    approx = {(r["query_id"], r["vec_id"]) for r in q_ann_ivf_topk(SF).take_all()}
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.9, f"IVF recall {recall}"


def test_template_extraction(ray_session):
    import ray.data as rd

    from odibel_ray.text import extract_templates

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "call {{search|query=cats}} then {{python|print(1)}}",
                "nested {{outer|{{inner|x}}|y}} here",
                "no templates at all",
                "unclosed {{broken|",
            ],
        }
    )
    rows = extract_templates(rd.from_arrow(tbl)).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r["template_name"])
    assert by_doc[1] == ["search", "python"]
    assert by_doc[2] == ["outer"]
    assert 3 not in by_doc and 4 not in by_doc
    pref = extract_templates(rd.from_arrow(tbl), prefix="sea").take_all()
    assert [r["template_name"] for r in pref] == ["search"]


def test_enrichment_retry_and_skip_semantics(ray_session):
    """S12/T3 analog: transient failures recovered by retry; permanent
    failures skipped (never deleted); deterministic across runs."""
    import ray.data as rd

    from odibel_ray.enrich import LocalExtractor, enrich_turns

    n = 400
    tbl = pa.table(
        {
            "conv_id": pa.array([f"c{i % 40}" for i in range(n)]),
            "turn_idx": pa.array([i // 40 for i in range(n)], pa.int64()),
            "text": pa.array([f"tok{i} a b c" for i in range(n)]),
        }
    )
    # expected permanent-failure keys from the same deterministic bands
    probe = LocalExtractor()
    perm = {
        i for i in range(n)
        if probe._band(f"c{i % 40}:{i // 40}") == "permanent"
    }
    ds = rd.from_arrow(tbl)
    out = enrich_turns(ds, concurrency=2, max_retries=3).take_all()
    assert len(out) == n - len(perm) and len(perm) > 0
    for r in out[:20]:
        assert r["n_tokens"] == 4 and r["first_token"].startswith("tok")
    # with max_retries=1, transient keys are also lost
    out1 = enrich_turns(rd.from_arrow(tbl), concurrency=2, max_retries=1).take_all()
    assert len(out1) < len(out)


def test_cosine_pairs_exact_vs_bruteforce(ray_session):
    """Block-tiled all-pairs kernel must equal the full similarity matrix —
    every qualifying pair exactly once, cosines matching, across several
    num_blocks (diagonal and off-diagonal tiles both exercised)."""
    import ray.data as rd

    from odibel_ray.sim import cosine_pairs_exact

    rng = np.random.default_rng(5)
    n, d = 300, 16
    emb = rng.standard_normal((n, d))
    # plant clones to guarantee pairs near 1.0
    emb[50] = emb[40]
    emb[60] = emb[40] + 0.01 * rng.standard_normal(d)
    ids = rng.permutation(n * 3)[:n].astype(np.int64)  # non-contiguous ids
    t = pa.table({"vec_id": ids, "embedding": list(emb)})

    e = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    S = e @ e.T
    ia, ib = np.triu_indices(n, 1)
    thr = 0.6
    keep = S[ia, ib] >= thr
    want = {
        (min(a, b), max(a, b)): s
        for a, b, s in zip(ids[ia[keep]], ids[ib[keep]], S[ia, ib][keep])
    }
    assert len(want) >= 3

    for num_blocks in (1, 3, 8):
        out = cosine_pairs_exact(
            rd.from_arrow(t), threshold=thr, num_blocks=num_blocks
        ).to_pandas()
        got = {(r.vec_a, r.vec_b): r.cosine for r in out.itertuples()}
        assert set(got) == set(want), f"num_blocks={num_blocks}"
        assert all(abs(got[k] - want[k]) < 1e-5 for k in want), f"num_blocks={num_blocks}"


def test_pair_apis_uncapped_by_default_and_capped_marker(ray_session):
    """Pair-emitting APIs default to full recall (no star collapse); an
    explicit cap marks every row from a reduced bucket with capped=True."""
    import ray.data as rd

    from odibel_ray.dedup import embedding_near_dups, minhash_lsh_pairs

    n = 600  # > DEFAULT_MAX_BUCKET, identical docs → one degenerate bucket
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["the same boilerplate text repeated verbatim"] * n),
        }
    )
    full = minhash_lsh_pairs(rd.from_arrow(tbl), threshold=0.3).take_all()
    assert len(full) == n * (n - 1) // 2  # uncapped default: all pairs
    assert "capped" not in full[0]

    capped = minhash_lsh_pairs(
        rd.from_arrow(tbl), threshold=0.3, max_bucket=128
    ).take_all()
    assert len(capped) == n - 1
    assert all(r["capped"] for r in capped)

    vec = np.ones((n, 8), np.float32)
    etbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(vec), pa.list_(pa.float32())),
        }
    )
    efull = embedding_near_dups(rd.from_arrow(etbl), threshold=0.9).take_all()
    assert len(efull) == n * (n - 1) // 2
    ecap = embedding_near_dups(
        rd.from_arrow(etbl), threshold=0.9, max_bucket=128
    ).take_all()
    assert len(ecap) == n - 1 and all(r["capped"] for r in ecap)


def test_simhash_disjoint_bands_full_recall(ray_session):
    """Disjoint 8x8 banding + exact Hamming verify equals the brute-force
    all-pairs answer (pigeonhole: hamming <= 7 < 8 bands), including pairs a
    sampled-tables run can miss."""
    import ray.data as rd

    from odibel_ray.dedup import SimHasher, _flat_token_hashes, simhash_pairs

    tbl, _ = _docs_with_planted_dups()
    got = {
        (r["doc_a"], r["doc_b"], r["hamming"])
        for r in simhash_pairs(
            rd.from_arrow(tbl), max_hamming=7, k_tables=8, bits_per_table=8,
            bands="disjoint",
        ).take_all()
    }

    th, offs = _flat_token_hashes(tbl["text"].combine_chunks())
    sh = SimHasher.simhash_flat(th, offs)
    ids = tbl["doc_id"].to_numpy()
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            h = int(bin(int(sh[i]) ^ int(sh[j])).count("1"))
            if h <= 7:
                a, b = sorted((int(ids[i]), int(ids[j])))
                want.add((a, b, h))
    assert got == want and len(want) > 0

    import pytest

    with pytest.raises(ValueError):
        simhash_pairs(rd.from_arrow(tbl), max_hamming=8, k_tables=8,
                      bits_per_table=8, bands="disjoint")


def test_chunk_documents_windows(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.text import chunk_documents

    t = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a" * 10, "b" * 25, "c" * 5],  # size 10, overlap 2 → stride 8
    })
    out = chunk_documents(rd.from_arrow(t), size=10, overlap=2).to_pandas()
    out = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    # doc1: fits exactly → 1 chunk; doc2: ceil((25-10)/8)+1 = 3; doc3: 1
    assert out.groupby("doc_id")["chunk_idx"].count().tolist() == [1, 3, 1]
    d2 = out[out.doc_id == 2]["chunk"].tolist()
    assert d2 == ["b" * 10, "b" * 10, "b" * 9]  # windows at 0, 8, 16 (tail short)
    assert out[out.doc_id == 3]["chunk"].tolist() == ["c" * 5]
    # overlap: consecutive windows share `overlap` chars
    assert len(d2[0]) - 2 == 8
    with __import__("pytest").raises(ValueError, match="overlap"):
        chunk_documents(rd.from_arrow(t), size=5, overlap=5)


def test_redact_counts_and_replaces(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.text import redact

    t = pa.table({"text": ["call 555 then 42", "no digits", "7"]})
    out = redact(rd.from_arrow(t), pattern="[0-9]+", replacement="#").to_pandas()
    assert out["redacted"].tolist() == ["call # then #", "no digits", "#"]
    assert out["n_redactions"].tolist() == [2, 0, 1]


def test_normalize_text(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.text import normalize_text

    t = pa.table({"text": ["  Hello\t\tWorld \n", "A  B", "x"]})
    out = normalize_text(rd.from_arrow(t)).to_pandas()
    assert out["norm"].tolist() == ["hello world", "a b", "x"]


def test_decontaminate_hits_and_clean(ray_session):
    """Per-doc contaminated-shingle counts match a pure-Python n-gram oracle;
    emit='clean' drops exactly the hit docs."""
    import ray.data as rd

    from odibel_ray.dedup import decontaminate

    train = pa.table({"doc_id": [1, 2, 3, 4], "text": [
        "the quick brown fox jumps over the lazy dog",
        "completely different words entirely unique phrasing here",
        "the quick brown cat sleeps all day long",
        "fox jumps high and quick brown fox jumps",  # repeated shingle: counts once
    ]})
    test = pa.table({"doc_id": [10, 11], "text": [
        "a quick brown fox jumps high",
        "lazy dog stories and other tales",
    ]})

    def grams(s, n=3):
        t = s.split(" ")
        return {" ".join(t[i:i + n]) for i in range(max(len(t) - n + 1, 0))}

    test_g = set().union(*(grams(s) for s in test["text"].to_pylist()))
    want = {}
    for i, s in zip(train["doc_id"].to_pylist(), train["text"].to_pylist()):
        n = len(grams(s) & test_g)
        if n:
            want[i] = n

    hits = decontaminate(rd.from_arrow(train), rd.from_arrow(test)).take_all()
    assert {r["doc_id"]: r["hits"] for r in hits} == want

    clean = decontaminate(rd.from_arrow(train), rd.from_arrow(test),
                          emit="clean").take_all()
    assert sorted(r["doc_id"] for r in clean) == sorted(
        set(train["doc_id"].to_pylist()) - set(want))
    # min_hits raises the bar
    strict = decontaminate(rd.from_arrow(train), rd.from_arrow(test),
                           min_hits=2).take_all()
    assert {r["doc_id"] for r in strict} == {i for i, n in want.items() if n >= 2}


def test_kmeans_fit_matches_local_lloyd(ray_session):
    """The distributed Lloyd pass (per-batch partial sums + k-row reduce)
    converges to the same centroids as a single-process reference Lloyd with
    the same seeded init — the distribution changes the execution plan, not
    the math."""
    import ray.data as rd

    from odibel_ray.sim import _emb_matrix, _normalize, fit_centroids, kmeans_assign, kmeans_fit

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ds = rd.from_arrow(t).repartition(8)  # force multi-batch partials
    k, iters, tol = 6, 8, 1e-6
    got = kmeans_fit(ds, k, iters=iters, tol=tol, init_sample=64, batch_size=16)

    # reference: identical init + plain in-memory Lloyd
    x = _normalize(_emb_matrix(t))
    cent = fit_centroids(t.slice(0, 64), k, iters=4).astype(np.float64)
    for _ in range(iters):
        a = (x @ cent.T).argmax(axis=1)
        new = cent.copy()
        for c in range(k):
            m = a == c
            if m.any():
                new[c] = x[m].mean(axis=0)
        new = _normalize(new)
        moved = float(np.max(1.0 - np.sum(new * cent, axis=1)))
        cent = new
        if moved <= tol:
            break
    assert np.allclose(got, cent, atol=1e-8)

    # assignment equals brute-force argmax over the centroid matrix
    rows = kmeans_assign(ds, got).take_all()
    by_id = {r["vec_id"]: r["cluster"] for r in rows}
    ids = t["vec_id"].to_pylist()
    want = (x @ got.T).argmax(axis=1)
    assert all(by_id[i] == int(w) for i, w in zip(ids, want))


def test_semdedup_drops_planted_duplicates(ray_session):
    """Planted exact-duplicate embeddings are dropped in favor of the
    smallest id; kept ∪ dropped partitions the corpus; near-orthogonal
    vectors survive."""
    import ray.data as rd

    from odibel_ray.sim import kmeans_fit, semdedup

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    base_ids = t["vec_id"].to_pylist()[:10]
    dups = pa.table({
        "vec_id": pa.array([10_000 + i for i in base_ids], pa.int64()),
        "embedding": t["embedding"].slice(0, 10),
    })
    corpus = pa.concat_tables([t.select(["vec_id", "embedding"]), dups])
    ds = rd.from_arrow(corpus).repartition(4)
    cent = kmeans_fit(ds, 4, iters=5)

    dropped = semdedup(ds, cent, threshold=0.99).take_all()
    by_id = {r["vec_id"]: r["rep"] for r in dropped}
    # every planted dup is dropped, and its representative is the original
    # (identical vectors always share a cluster; smallest id wins)
    for i in base_ids:
        assert by_id.get(10_000 + i) == i

    kept = {r["vec_id"] for r in semdedup(ds, cent, threshold=0.99,
                                          emit="kept").take_all()}
    assert kept | set(by_id) == set(corpus["vec_id"].to_pylist())
    assert kept.isdisjoint(by_id)


def test_repetition_stats_matches_python_sets(ray_session):
    import ray.data as rd

    from odibel_ray.text import repetition_stats

    docs = pa.table({"doc_id": [1, 2, 3], "text": [
        "a a a a",                      # 1g: 1-1/4=0.75; 2g: "a a"×3 → 2/3; 3g: 1/2
        "one two three four",           # all distinct → 0, 0, 0
        "x",                            # no 2/3-grams → 0 by convention
    ]})
    rows = {r["doc_id"]: r for r in
            repetition_stats(rd.from_arrow(docs)).take_all()}

    def frac(s, n):
        t = s.split(" ")
        grams = [" ".join(t[i:i + n]) for i in range(max(len(t) - n + 1, 0))]
        return round(1 - len(set(grams)) / max(len(grams), 1), 6)

    for i, s in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        for n in (1, 2, 3):
            assert rows[i][f"dup_{n}gram_frac"] == frac(s, n), (i, n)


def test_cross_doc_ngram_dup_exact(ray_session):
    import ray.data as rd

    from odibel_ray.dedup import cross_doc_ngram_dup

    docs = pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "source": ["a", "a", "b", "b", "b"],
        "text": [
            "the quick brown fox jumps over",   # shares "the quick brown"… with 2
            "the quick brown fox sat down",     # shares 2 grams with doc 1
            "completely different words here now",  # no shared grams
            "the quick brown fox jumps over",   # identical to doc 1
            "xy",                               # < 3 tokens: no row
        ],
    })
    out = {r["doc_id"]: r for r in
           cross_doc_ngram_dup(rd.from_arrow(docs), n=3, carry=("source",),
                               min_docs=2).take_all()}

    # brute-force oracle: per-doc gram positions vs corpus-wide distinct-doc counts
    from collections import Counter
    grams = {}
    for i, s in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        t = s.split(" ")
        grams[i] = [" ".join(t[j:j + 3]) for j in range(len(t) - 2)]
    doc_count = Counter(g for i in grams for g in set(grams[i]))
    for i, gs in grams.items():
        if not gs:
            assert i not in out
            continue
        exp_dup = sum(1 for g in gs if doc_count[g] >= 2)
        assert out[i]["n_grams"] == len(gs), i
        assert out[i]["n_dup"] == exp_dup, i
        assert out[i]["source"] == ("a" if i <= 2 else "b")

    # duplicate gram WITHIN one doc counts every position but needs >=2 docs
    rep = pa.table({"doc_id": [7], "source": ["a"],
                    "text": ["p q r p q r p q r"]})
    only = cross_doc_ngram_dup(rd.from_arrow(rep), n=3, carry=("source",),
                               min_docs=2).take_all()
    assert only[0]["n_grams"] == 7 and only[0]["n_dup"] == 0


def test_chunk_dedup_planted(ray_session):
    """C4-style chunk dedup: repeated windows vanish corpus-wide, first
    occurrence (doc order, then position) survives, docs reassemble in
    chunk order, fully-duplicated docs disappear."""
    import ray.data as rd

    from odibel_ray.dedup import chunk_dedup

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f",        # chunks: "a b", "c d", "e f"
                    "c d a b x y",        # "c d", "a b" dup of doc 1; "x y" kept
                    "a b c d",            # fully duplicated -> doc dropped
                    "e f e f z",          # "e f" dup; "e f" (idx1) dup of idx0 too; "z" kept
                ],
                pa.string(),
            ),
        }
    )
    out = {
        r["doc_id"]: r
        for r in chunk_dedup(rd.from_arrow(docs), window=2).take_all()
    }
    assert set(out) == {1, 2, 4}
    assert out[1]["text"] == "a b c d e f"
    assert (out[1]["n_chunks_total"], out[1]["n_chunks_kept"]) == (3, 3)
    assert out[2]["text"] == "x y"
    assert (out[2]["n_chunks_total"], out[2]["n_chunks_kept"]) == (3, 1)
    assert out[4]["text"] == "z"
    assert (out[4]["n_chunks_total"], out[4]["n_chunks_kept"]) == (3, 1)


def test_split_chunks_short_doc(ray_session):
    """A doc shorter than the window is one chunk; boundaries clamp."""
    import ray.data as rd

    from odibel_ray.dedup import split_chunks

    docs = pa.table(
        {"doc_id": pa.array([7], pa.int64()), "text": pa.array(["lone"], pa.string())}
    )
    rows = split_chunks(rd.from_arrow(docs), window=5).take_all()
    assert rows == [
        {"doc_id": 7, "chunk_idx": 0, "chunk_text": "lone", "n_chunks": 1}
    ]


def _near_miss_pair():
    """A deterministic LSH near-miss: the pair shares an LSH band bucket and
    the seeded 64-perm MinHash estimate is 0.469 (>= 0.4), but the EXACT
    3-gram Jaccard is 0.333 (< 0.4). Found by seeded search against the
    default ``MinHasher``; pinned here verbatim."""
    base_toks = [f"w{i}" for i in range(60)]
    var_toks = list(base_toks)
    for i in [17, 5, 49, 26, 59, 6, 53, 2, 24, 34, 35, 21]:
        var_toks[i] = f"x0_{i}"
    return " ".join(base_toks), " ".join(var_toks)


def test_near_miss_pair_is_what_it_claims(ray_session):
    """Pin the near-miss properties so MinHasher changes that invalidate the
    fixture fail loudly here instead of silently weakening the next test."""
    from odibel_ray.dedup import MinHasher, ngram_jaccard

    a, b = _near_miss_pair()
    assert ngram_jaccard(a, b) < 0.4
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()), "text": pa.array([a, b])})
    out = MinHasher()(t).combine_chunks()
    by_doc: dict = {0: {}, 1: {}}
    for r in out.to_pylist():
        by_doc[r["doc_id"]][r["band"]] = r["band_hash"]
        by_doc[r["doc_id"]].setdefault("_sig", r["sig"])
    shared = sum(
        1
        for k, v in by_doc[0].items()
        if k != "_sig" and by_doc[1].get(k) == v
    )
    assert shared >= 1  # LSH emits the pair as a candidate
    s0 = np.array(by_doc[0]["_sig"])
    s1 = np.array(by_doc[1]["_sig"])
    assert (s0 == s1).mean() >= 0.4  # the estimator says "duplicate"


def test_survivors_exact_verify_keeps_near_miss(ray_session):
    """`corpus_dedup_survivors` must only drop docs on EXACT duplicate
    evidence: a planted pair with estimated Jaccard >= t but exact Jaccard
    < t survives intact, while a genuine near-identical pair still loses
    its non-representative member. verify=False (the estimate-only path)
    drops a near-miss member — demonstrating why verify is the default."""
    import ray.data as rd

    from odibel_ray.dedup import corpus_dedup_survivors

    a, b = _near_miss_pair()
    dup = " ".join(f"d{i}" for i in range(50))
    dup2 = dup.replace("d25", "MUT")  # one-token change: exact jaccard ~0.88
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([a, b, dup, dup2]),
        }
    )
    kept = {
        r["doc_id"]
        for r in corpus_dedup_survivors(
            rd.from_arrow(docs), threshold=0.4
        ).take_all()
    }
    assert kept == {1, 2, 3}  # near-miss pair intact; dup group keeps min id

    kept_est = {
        r["doc_id"]
        for r in corpus_dedup_survivors(
            rd.from_arrow(docs), threshold=0.4, verify=False
        ).take_all()
    }
    assert kept_est == {1, 3}  # the estimate-only path wrongly drops doc 2


def test_pq_topk_recall_vs_exact(ray_session):
    """PQ codes are 8 bytes/vector (vs 256 for the float64 dim-64 vector);
    ADC top-10 must keep high recall vs the exact cosine ranking, and the
    exact nearest neighbor (a planted near-duplicate) must rank first."""
    import ray.data as rd

    from odibel_ray.sim import cosine_topk, pq_encode, pq_topk, pq_train

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ds = rd.from_arrow(t)
    books = pq_train(ds, m=16, k=256, iters=15)
    assert books.shape == (16, 256, 4)
    codes = pq_encode(ds, books).materialize()
    one_code = codes.take(1)[0]["pq_code"]
    assert isinstance(one_code, bytes) and len(one_code) == 16

    queries = pa.table(
        {"query_id": t["vec_id"][:8], "embedding": t["embedding"][:8]}
    )
    exact = {}
    for r in cosine_topk(ds, queries, k=10).take_all():
        exact.setdefault(r["query_id"], []).append(r["vec_id"])
    approx = {}
    for r in pq_topk(codes, queries, books, k=10).take_all():
        approx.setdefault(r["query_id"], []).append(r["vec_id"])
    assert set(exact) == set(approx)
    recalls = [
        len(set(exact[q]) & set(approx[q])) / len(exact[q]) for q in exact
    ]
    # these synthetic embeddings have a nearly flat neighbor structure
    # (top-10 cosines 0.27-0.33 vs ~0.2 bulk), the hardest case for PQ;
    # the standard 8-bit config still keeps most of the ranking at 32x
    # compression with no reranking
    assert sum(recalls) / len(recalls) >= 0.6

    # a planted near-duplicate is found at rank 0 despite quantization
    base = np.asarray(t["embedding"][3].as_py())
    dup = base + np.random.default_rng(1).normal(0, 1e-3, len(base))
    aug = pa.table(
        {"vec_id": pa.array([99991], pa.int64()),
         "embedding": pa.array([dup.tolist()],
                               t.schema.field("embedding").type)}
    )
    codes2 = pq_encode(rd.from_arrow(aug), books)
    q1 = pa.table({"query_id": pa.array([3], pa.int64()),
                   "embedding": t["embedding"][3:4]})
    rows = pq_topk(codes.union(codes2), q1, books, k=3).take_all()
    assert rows[0]["vec_id"] == 99991 and rows[0]["rank"] == 0


def test_pq_topk_empty_batch(ray_session):
    """pq_topk's per-batch kernel, handed a zero-row batch of codes, returns
    the typed empty ``(query_id, vec_id, _adc)`` table, as ivfpq_topk's
    does."""
    from odibel_ray.sim import pq_topk

    class Captured(Exception):
        pass

    class Codes:
        """Stands in for the codes Dataset: keeps the kernel pq_topk maps."""

        def map_batches(self, fn, fn_args=(), **kw):
            self.fn, self.args = fn, fn_args
            raise Captured

    books = np.random.default_rng(0).normal(size=(2, 4, 2))
    queries = pa.table({"query_id": pa.array([1], pa.int64()),
                        "embedding": pa.array([[0.1, 0.2, 0.3, 0.4]])})
    codes = Codes()
    with pytest.raises(Captured):
        pq_topk(codes, queries, books, k=3)
    empty = pa.table({"vec_id": pa.array([], pa.int64()), "pq_code": pa.array([], pa.binary())})
    out = codes.fn(empty, *codes.args)
    assert out.num_rows == 0
    assert out.schema == pa.schema(
        [("query_id", pa.int64()), ("vec_id", pa.int64()), ("_adc", pa.float64())])


def test_ivfpq_topk_recall(ray_session):
    """IVF routing + residual PQ codes: recall vs exact cosine must beat
    plain PQ-level noise at full probe coverage, and a planted
    near-duplicate is retrieved at rank 0."""
    import ray.data as rd

    from odibel_ray.sim import cosine_topk, ivfpq_encode, ivfpq_topk, ivfpq_train

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ds = rd.from_arrow(t)
    cent, books = ivfpq_train(ds, n_lists=8, m=16, k=256, iters=15)
    assert cent.shape[0] == 8 and books.shape == (16, 256, 4)
    index = ivfpq_encode(ds, cent, books).materialize()
    assert index.count() == len(t)

    queries = pa.table(
        {"query_id": t["vec_id"][:8], "embedding": t["embedding"][:8]}
    )
    exact = {}
    for r in cosine_topk(ds, queries, k=10).take_all():
        exact.setdefault(r["query_id"], []).append(r["vec_id"])
    approx = {}
    for r in ivfpq_topk(index, queries, cent, books, k=10,
                        n_probe=8).take_all():
        approx.setdefault(r["query_id"], []).append(r["vec_id"])
    recalls = [
        len(set(exact[q]) & set(approx.get(q, []))) / 10 for q in exact
    ]
    assert sum(recalls) / len(recalls) >= 0.6  # all lists probed: PQ-limited

    # planted near-duplicate survives routing + quantization at rank 0
    base = np.asarray(t["embedding"][5].as_py())
    dup = base + np.random.default_rng(2).normal(0, 1e-3, len(base))
    aug = pa.table(
        {"vec_id": pa.array([99992], pa.int64()),
         "embedding": pa.array([dup.tolist()],
                               t.schema.field("embedding").type)}
    )
    idx2 = index.union(ivfpq_encode(rd.from_arrow(aug), cent, books))
    q1 = pa.table({"query_id": pa.array([5], pa.int64()),
                   "embedding": t["embedding"][5:6]})
    rows = ivfpq_topk(idx2, q1, cent, books, k=3, n_probe=2).take_all()
    assert rows[0]["vec_id"] == 99992 and rows[0]["rank"] == 0


def test_bloom_decontamination_no_false_negatives(ray_session):
    """Every gram truly shared with the test split must count (Bloom
    property), clean docs score near zero with a roomy filter, and the
    exact shared-gram count lower-bounds n_hits."""
    import ray.data as rd

    from odibel_ray.dedup import decontaminate_bloom

    rng = np.random.default_rng(41)

    def words(n):
        return " ".join(f"w{int(x)}" for x in rng.integers(0, 5000, n))

    secret = words(60)
    train = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array([
             words(40) + " " + secret,      # contaminated
             words(120),                    # clean
             secret,                        # fully contaminated
         ])}
    )
    test = pa.table(
        {"doc_id": pa.array([9], pa.int64()),
         "text": pa.array([words(30) + " " + secret + " " + words(20)])}
    )

    def grams(s, n=3):
        t = s.split(" ")
        return {" ".join(t[i:i + n]) for i in range(len(t) - n + 1)}

    test_g = grams(test["text"][0].as_py())
    out = {
        r["doc_id"]: r
        for r in decontaminate_bloom(
            rd.from_arrow(train), rd.from_arrow(test), num_bits=1 << 20
        ).take_all()
    }
    for did in (1, 2, 3):
        txt = train["text"][did - 1].as_py()
        true_shared = len([
            g for g in (
                " ".join(txt.split(" ")[i:i + 3])
                for i in range(len(txt.split(" ")) - 2)
            ) if g in test_g
        ])
        assert out[did]["n_hits"] >= true_shared  # no false negatives
    assert out[3]["hit_frac"] == 1.0
    assert out[1]["hit_frac"] > 0.5
    assert out[2]["hit_frac"] < 0.05  # fp-rate only
