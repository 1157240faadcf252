"""Similarity search over an embedding column (``list<float>``).

- :func:`cosine_topk` — brute-force exact top-k: the query matrix is broadcast
  once (``ray.put``), every batch does one numpy matmul against it, and
  per-batch local top-k rows are reduced by a final global per-query top-k
  (same combiner-then-small-shuffle shape as :func:`odibel_ray.ops.relational.topk`).
- :func:`ivf_topk` — IVF scale path: k-means-lite centroids (sampled, driver
  fits once), vectors are bucketed by nearest centroid (one shuffle), and each
  query probes only its ``n_probe`` nearest buckets.

At 100 TB the brute-force variant stays viable per batch (matmul is
compute-bound, queries are broadcast) but scans everything; IVF cuts the scan
by ``n_lists / n_probe``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

from odibel_ray.ops.relational import _broadcast, _deref, _small_table


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _emb_matrix(t: pa.Table, col: str = "embedding") -> np.ndarray:
    return np.stack(t[col].to_numpy(zero_copy_only=False)).astype(np.float64)


def cosine_topk(
    ds: "ray.data.Dataset",
    queries,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    query_id_col: str = "query_id",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Exact cosine top-k per query. ``queries``: small Dataset/Table with
    ``(query_id, embedding)``. Returns ``(query_id, vec_id, rank)`` with
    deterministic tie-break (higher cosine first, then smaller vec_id).

    Self-matches (``vec_id == query_id``) are excluded so a table can be
    queried against itself.
    """
    q_t = _small_table(queries)
    q_ids = q_t[query_id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _normalize(_emb_matrix(q_t, emb_col))
    ref = _broadcast((q_ids, q_mat))

    def local_topk(t: pa.Table, q) -> pa.Table:
        q_ids, q_mat = _deref(q)
        t = t.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = _normalize(_emb_matrix(t, emb_col))
        sims = q_mat @ emb.T  # (n_q, n_batch)
        sims[q_ids[:, None] == ids[None, :]] = -np.inf  # exclude self
        kk = min(k, sims.shape[1])
        # top-k per query within this batch (argpartition then exact sort)
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(q_ids, kk)
        cols = part.reshape(-1)
        s = sims[np.repeat(np.arange(len(q_ids)), kk), cols]
        keep = s > -np.inf
        return pa.table(
            {
                query_id_col: pa.array(rows[keep]),
                id_col: pa.array(ids[cols[keep]]),
                "cosine": pa.array(s[keep]),
            }
        )

    def final_topk(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        sims = t["cosine"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        order = order[np.argsort(-sims[order], kind="stable")]
        out = t.take(pa.array(order))
        return out.append_column("rank", pa.array(np.arange(len(order), dtype=np.int64)))

    local = ds.map_batches(
        local_topk, fn_args=[ref], batch_format="pyarrow", batch_size=batch_size
    )
    res = local.groupby(query_id_col).map_groups(final_topk, batch_format="pyarrow")
    return res.drop_columns(["cosine"])


def cosine_pairs_exact(
    ds: "ray.data.Dataset",
    *,
    threshold: float = 0.95,
    num_blocks: int = 8,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """EXACT all-pairs cosine ≥ threshold by block tiling — the
    complete-recall complement of :func:`odibel_ray.dedup.embedding_near_dups`
    (LSH trades recall for scan cost; this kernel trades compute, which is
    inherent to exact all-pairs).

    Every vector is assigned a block ``vec_id % num_blocks`` and replicated
    into the ``num_blocks`` tiles ``(min(b, j), max(b, j))`` it participates
    in; one shuffle on the tile key co-locates each tile's two blocks, and the
    per-tile kernel is one matmul (intra-block upper triangle on the diagonal
    tiles, full cross product off-diagonal — each unordered pair is computed
    exactly once). Communication is ``n × num_blocks`` rows; per-task memory
    is ``2n/num_blocks`` vectors. Returns ``(vec_a, vec_b, cosine)`` with
    ``vec_a < vec_b``, cosine rounded to 6 digits.
    """

    def tile_out(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blk = ids % num_blocks
        tiles = []
        for j in range(num_blocks):
            ti = np.minimum(blk, j)
            tj = np.maximum(blk, j)
            tiles.append(ti * num_blocks + tj)
        idx = pa.array(np.tile(np.arange(len(t), dtype=np.int64), num_blocks))
        rep = t.take(idx)
        return pa.table(
            {
                id_col: rep[id_col],
                emb_col: rep[emb_col],
                "block": pa.array(np.tile(blk, num_blocks)),
                "tile": pa.array(np.concatenate(tiles)),
            }
        )

    empty = pa.table(
        {
            "vec_a": pa.array([], pa.int64()),
            "vec_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )

    def tile_pairs(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        tile = int(t["tile"][0].as_py())
        ti, tj = divmod(tile, num_blocks)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blk = t["block"].to_numpy(zero_copy_only=False)
        emb = _normalize(_emb_matrix(t, emb_col))
        if ti == tj:
            if len(ids) < 2:
                return empty
            ia, ib = np.triu_indices(len(ids), 1)
            s = (emb @ emb.T)[ia, ib]
            a, b = ids[ia], ids[ib]
        else:
            ma, mb = blk == ti, blk == tj
            if not ma.any() or not mb.any():
                return empty
            s = (emb[ma] @ emb[mb].T).reshape(-1)
            a = np.repeat(ids[ma], int(mb.sum()))
            b = np.tile(ids[mb], int(ma.sum()))
        keep = s >= threshold
        a, b, s = a[keep], b[keep], s[keep]
        return pa.table(
            {
                "vec_a": pa.array(np.minimum(a, b)),
                "vec_b": pa.array(np.maximum(a, b)),
                "cosine": pa.array(np.round(s, 6)),
            }
        )

    tiled = ds.map_batches(tile_out, batch_format="pyarrow", batch_size=batch_size)
    return tiled.groupby("tile").map_groups(tile_pairs, batch_format="pyarrow")


def fit_centroids(sample: pa.Table, n_lists: int, *, iters: int = 10, seed: int = 11,
                  emb_col: str = "embedding") -> np.ndarray:
    """Driver-side k-means on a small sample (Lloyd, fixed iters, seeded)."""
    x = _normalize(_emb_matrix(sample, emb_col))
    rng = np.random.default_rng(seed)
    cent = x[rng.choice(len(x), size=min(n_lists, len(x)), replace=False)]
    for _ in range(iters):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_topk(
    ds: "ray.data.Dataset",
    queries,
    k: int = 10,
    *,
    centroids: np.ndarray,
    n_probe: int = 4,
    n_assign: int = 1,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    query_id_col: str = "query_id",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """IVF approximate top-k: vectors bucketed by nearest centroid (one
    shuffle); each query scans only its ``n_probe`` nearest lists.

    ``n_assign`` > 1 indexes every vector in its ``n_assign`` nearest lists
    (multi-assignment) — recall on weakly-clustered data improves at the cost
    of ``n_assign``× index size; duplicate hits are deduped in the final
    per-query reduction."""
    q_t = _small_table(queries)
    q_ids = q_t[query_id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _normalize(_emb_matrix(q_t, emb_col))
    q_lists = np.argsort(-(q_mat @ centroids.T), axis=1)[:, :n_probe]  # (n_q, n_probe)
    # list -> queries probing it
    probing: dict[int, list[int]] = {}
    for qi, lists in enumerate(q_lists):
        for l in lists:
            probing.setdefault(int(l), []).append(qi)
    ref = _broadcast((q_ids, q_mat, {l: np.array(v) for l, v in probing.items()}))
    cent_ref = _broadcast(centroids)

    def assign(t: pa.Table, c) -> pa.Table:
        c = _deref(c)
        t = t.combine_chunks()
        emb = _normalize(_emb_matrix(t, emb_col))
        sims = emb @ c.T
        if n_assign <= 1:
            lists = sims.argmax(axis=1).astype(np.int64)
            return pa.table(
                {id_col: t[id_col], emb_col: t[emb_col], "ivf_list": pa.array(lists)}
            )
        top = np.argsort(-sims, axis=1)[:, :n_assign].astype(np.int64)  # (n, n_assign)
        idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), n_assign))
        rep = t.take(idx)
        return pa.table(
            {
                id_col: rep[id_col],
                emb_col: rep[emb_col],
                "ivf_list": pa.array(top.reshape(-1)),
            }
        )

    def scan(t: pa.Table, q) -> pa.Table:
        q_ids, q_mat, probing = _deref(q)
        lst = int(t["ivf_list"][0].as_py())
        probe_q = probing.get(lst)
        empty = pa.table(
            {query_id_col: pa.array([], pa.int64()), id_col: pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}
        )
        if probe_q is None:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = _normalize(_emb_matrix(t, emb_col))
        sub_q = q_mat[probe_q]
        sims = sub_q @ emb.T
        sims[q_ids[probe_q][:, None] == ids[None, :]] = -np.inf
        kk = min(k, sims.shape[1])
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows = np.repeat(q_ids[probe_q], kk)
        cols = part.reshape(-1)
        s = sims[np.repeat(np.arange(len(probe_q)), kk), cols]
        keep = s > -np.inf
        return pa.table(
            {
                query_id_col: pa.array(rows[keep]),
                id_col: pa.array(ids[cols[keep]]),
                "cosine": pa.array(s[keep]),
            }
        )

    def final_topk(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        sims = t["cosine"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))
        # multi-assignment can surface the same vector from several lists —
        # keep each id's first (best) occurrence before the k cut
        _, first = np.unique(ids[order], return_index=True)
        order = order[np.sort(first)][:k]
        out = t.take(pa.array(order))
        return out.append_column("rank", pa.array(np.arange(len(order), dtype=np.int64)))

    assigned = ds.map_batches(
        assign, fn_args=[cent_ref], batch_format="pyarrow", batch_size=batch_size
    )
    scanned = assigned.groupby("ivf_list").map_groups(
        lambda t: scan(t, ref), batch_format="pyarrow"
    )
    res = scanned.groupby(query_id_col).map_groups(final_topk, batch_format="pyarrow")
    return res.drop_columns(["cosine"])


# ---------------------------------------------------------------------------
# Distributed k-means (spherical Lloyd over the FULL dataset)
# ---------------------------------------------------------------------------

def kmeans_fit(
    ds: "ray.data.Dataset",
    k: int,
    *,
    iters: int = 10,
    tol: float = 1e-6,
    seed: int = 11,
    emb_col: str = "embedding",
    init_sample: int = 4096,
    batch_size: int = 8192,
) -> np.ndarray:
    """Distributed spherical k-means: Lloyd iterations where each pass over
    the data is ONE ``map_batches`` (per-batch vectorized assign + per-cluster
    partial sums, ≤ k rows emitted per batch) plus a k-row groupby reduce —
    the driver only ever holds the (k × dim) centroid matrix, never the
    corpus. :func:`fit_centroids` fits on a driver-side sample; this refines
    over ALL vectors — the semantic-clustering / IVF-training path that still
    works when the corpus is 10^10 embeddings.

    Deterministic: seeded init (refined from a bounded head sample), fixed
    iteration count with an early exit when no centroid moves more than
    ``tol`` (cosine distance). Empty clusters keep their previous centroid.
    Returns the (k × dim) float64 matrix of L2-normalized centroids.
    """
    head = ds.limit(init_sample).take_all()
    if not head:
        raise ValueError("kmeans_fit: empty dataset")
    cent = fit_centroids(
        pa.table({emb_col: [r[emb_col] for r in head]}),
        k, iters=4, seed=seed, emb_col=emb_col,
    ).astype(np.float64)

    def partial(t: pa.Table, c) -> pa.Table:
        c = _deref(c)
        x = _normalize(_emb_matrix(t, emb_col))
        a = (x @ c.T).argmax(axis=1)
        sums = np.zeros((len(c), x.shape[1]))
        np.add.at(sums, a, x)
        counts = np.bincount(a, minlength=len(c))
        present = np.flatnonzero(counts)
        return pa.table({
            "c": pa.array(present.astype(np.int64)),
            "s": pa.array(list(sums[present]), pa.list_(pa.float64())),
            "n": pa.array(counts[present].astype(np.int64)),
        })

    def reduce_group(g: pa.Table) -> pa.Table:
        s = np.stack(g["s"].to_numpy(zero_copy_only=False)).sum(axis=0)
        return pa.table({
            "c": pa.array([g["c"][0].as_py()], pa.int64()),
            "s": pa.array([s], pa.list_(pa.float64())),
            "n": pa.array([int(pc.sum(g["n"]).as_py())], pa.int64()),
        })

    for _ in range(iters):
        ref = _broadcast(cent)
        rows = (
            ds.map_batches(partial, fn_args=[ref], batch_format="pyarrow",
                           batch_size=batch_size)
            .groupby("c").map_groups(reduce_group, batch_format="pyarrow")
            .take_all()
        )
        new = cent.copy()
        for r in rows:
            if r["n"]:
                new[int(r["c"])] = np.asarray(r["s"]) / r["n"]
        new = _normalize(new)
        moved = float(np.max(1.0 - np.sum(new * cent, axis=1)))
        cent = new
        if moved <= tol:
            break
    return cent


def kmeans_assign(
    ds: "ray.data.Dataset",
    centroids: np.ndarray,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Streaming cluster assignment against a broadcast centroid matrix:
    ``(id, cluster, sim)`` per vector, cluster = argmax cosine (ties → lowest
    cluster id, numpy first-max), sim rounded to 6 for stable comparison."""
    ref = _broadcast(np.asarray(centroids, np.float64))

    def assign_batch(t: pa.Table, c) -> pa.Table:
        c = _deref(c)
        x = _normalize(_emb_matrix(t, emb_col))
        sims = x @ c.T
        a = sims.argmax(axis=1)
        return pa.table({
            id_col: t[id_col],
            "cluster": pa.array(a.astype(np.int64)),
            "sim": pa.array(np.round(sims[np.arange(len(a)), a], 6)),
        })

    return ds.map_batches(assign_batch, fn_args=[ref], batch_format="pyarrow",
                          batch_size=batch_size)


def semdedup(
    ds: "ray.data.Dataset",
    centroids: np.ndarray,
    *,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    emit: str = "dropped",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic deduplication
    by k-means bucketing — embeddings are assigned to their nearest centroid
    (streaming, against the broadcast matrix), and ONLY within each cluster
    are exact pairwise cosines computed; duplicate groups (connected
    components of pairs ≥ ``threshold``) keep their smallest id. Cross-
    cluster near-dups are missed by construction — that is the documented
    approximation that makes the op O(Σ c_i²) instead of O(n²); size ``k``
    so the expected cluster fits one task (the per-group memory bound is the
    c×c similarity tile of the LARGEST cluster).

    ``emit="dropped"`` → ``(id, rep)`` rows for vectors to remove (rep = the
    kept representative); ``emit="kept"`` → the surviving ids.
    """
    if emit not in ("dropped", "kept"):
        raise ValueError("emit must be 'dropped' or 'kept'")
    ref = _broadcast(np.asarray(centroids, np.float64))

    def tag(t: pa.Table, c) -> pa.Table:
        c = _deref(c)
        x = _normalize(_emb_matrix(t, emb_col))
        a = (x @ c.T).argmax(axis=1)
        return pa.table({
            id_col: t[id_col],
            emb_col: t[emb_col],
            "cluster": pa.array(a.astype(np.int64)),
        })

    def dedup_cluster(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        x = _normalize(_emb_matrix(g, emb_col))[order]
        n = len(ids)
        rep = ids.copy()  # union-find over positions, roots = smallest id
        if n > 1:
            sims = x @ x.T
            ia, ib = np.triu_indices(n, k=1)
            keep = sims[ia, ib] >= threshold
            parent = np.arange(n)

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i, j in zip(ia[keep], ib[keep]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    lo, hi = (ri, rj) if ri < rj else (rj, ri)
                    parent[hi] = lo
            rep = ids[np.fromiter((find(i) for i in range(n)), np.int64, n)]
        if emit == "dropped":
            m = rep != ids
            return pa.table({id_col: pa.array(ids[m]),
                             "rep": pa.array(rep[m])})
        return pa.table({id_col: pa.array(ids[rep == ids])})

    tagged = ds.map_batches(tag, fn_args=[ref], batch_format="pyarrow",
                            batch_size=batch_size)
    return tagged.groupby("cluster").map_groups(dedup_cluster,
                                                batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Product quantization (the embedding-compression scale path)
# ---------------------------------------------------------------------------


def pq_train(
    ds: "ray.data.Dataset",
    *,
    m: int = 8,
    k: int = 16,
    emb_col: str = "embedding",
    sample: int = 65536,
    iters: int = 15,
    seed: int = 17,
) -> np.ndarray:
    """Train product-quantization codebooks: the embedding dimension splits
    into ``m`` subspaces, each with a ``k``-centroid L2 codebook fitted by
    seeded Lloyd on a bounded head sample (codebook training is
    sample-sized by construction — Jégou et al. 2011, "Product
    Quantization for Nearest Neighbor Search"). Returns a
    ``(m, k, dim/m)`` float64 array. Vectors are L2-normalized first, so
    ADC L2 ranking is cosine ranking."""
    head = ds.limit(sample).take_all()
    if not head:
        raise ValueError("pq_train: empty input")
    x = _normalize(
        np.stack([np.asarray(r[emb_col], np.float64) for r in head])
    )
    dim = x.shape[1]
    if dim % m:
        raise ValueError(f"embedding dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, k, dsub))
    for s in range(m):
        xs = x[:, s * dsub:(s + 1) * dsub]
        c = xs[rng.choice(len(xs), size=min(k, len(xs)), replace=False)]
        if len(c) < k:  # degenerate tiny sample: pad with jitter
            c = np.concatenate([c, c[rng.integers(0, len(c), k - len(c))]
                                + rng.normal(0, 1e-6, (k - len(c), dsub))])
        for _ in range(iters):
            d2 = ((xs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for j in range(k):
                hit = a == j
                if hit.any():
                    c[j] = xs[hit].mean(axis=0)
        books[s] = c
    return books


def pq_encode(
    ds: "ray.data.Dataset",
    codebooks: np.ndarray,
    *,
    emb_col: str = "embedding",
    out: str = "pq_code",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Encode every vector to ``m`` uint8 code bytes (one binary cell per
    row — 8–64× smaller than the float vectors; the form a 10^10-vector
    index actually stores). Streaming pass against the broadcast
    codebooks."""
    mm, kk, dsub = codebooks.shape
    ref = _broadcast(codebooks)

    def enc(t: pa.Table, b) -> pa.Table:
        books = _deref(b)
        t = t.combine_chunks()
        x = _normalize(_emb_matrix(t, emb_col))
        codes = np.empty((len(x), mm), np.uint8)
        for s in range(mm):
            xs = x[:, s * dsub:(s + 1) * dsub]
            d2 = ((xs[:, None, :] - books[s][None, :, :]) ** 2).sum(axis=2)
            codes[:, s] = d2.argmin(axis=1).astype(np.uint8)
        return t.drop_columns([emb_col]).append_column(
            out, pa.array([c.tobytes() for c in codes], pa.binary())
        )

    return ds.map_batches(enc, fn_args=[ref], batch_format="pyarrow",
                          batch_size=batch_size)


def pq_topk(
    codes: "ray.data.Dataset",
    queries,
    codebooks: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    code_col: str = "pq_code",
    query_id_col: str = "query_id",
    emb_col: str = "embedding",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Asymmetric-distance top-k over PQ codes: each query precomputes its
    (m × k) subspace distance table once; scoring a code row is ``m``
    table lookups (no float vectors read) — the classic ADC scan. Same
    output contract as :func:`cosine_topk` (``query_id, vec_id, rank``,
    approximate ranking; recall measured in tests)."""
    mm, kk, dsub = codebooks.shape
    q_t = _small_table(queries)
    q_ids = q_t[query_id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _normalize(_emb_matrix(q_t, emb_col))
    # (nq, m, k) distance tables
    dt = np.empty((len(q_ids), mm, kk))
    for s in range(mm):
        qs = q_mat[:, s * dsub:(s + 1) * dsub]
        dt[:, s, :] = ((qs[:, None, :] - codebooks[s][None, :, :]) ** 2).sum(axis=2)
    ref = _broadcast((q_ids, dt))

    def local_topk(t: pa.Table, b) -> pa.Table:
        if len(t) == 0:
            # no codes, no candidates: never partition a 0-wide distance row
            return pa.table({query_id_col: pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "_adc": pa.array([], pa.float64())})
        q_ids, dt = _deref(b)
        t = t.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blob = b"".join(t[code_col].to_pylist())
        codes = np.frombuffer(blob, np.uint8).reshape(len(t), mm)
        # dist[q, i] = sum_s dt[q, s, codes[i, s]] — fancy (s, code) index
        # broadcasts to (n, m), full axis-0 slice keeps the query axis
        d = dt[:, np.arange(mm), codes].sum(axis=2)
        d[q_ids[:, None] == ids[None, :]] = np.inf  # exclude self
        nq = len(q_ids)
        kk2 = min(k, d.shape[1])
        part = np.argpartition(d, kk2 - 1, axis=1)[:, :kk2]
        rows = np.repeat(q_ids, kk2)
        cols = part.reshape(-1)
        s = d[np.repeat(np.arange(nq), kk2), cols]
        keep = s < np.inf
        return pa.table(
            {query_id_col: pa.array(rows[keep]),
             id_col: pa.array(ids[cols[keep]]),
             "_adc": pa.array(s[keep])}
        )

    def final_topk(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        d = t["_adc"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, d))[:k]
        order = order[np.argsort(d[order], kind="stable")]
        out = t.take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(len(order), dtype=np.int64))
        )

    local = codes.map_batches(
        local_topk, fn_args=[ref], batch_format="pyarrow",
        batch_size=batch_size,
    )
    res = local.groupby(query_id_col).map_groups(
        final_topk, batch_format="pyarrow"
    )
    return res.drop_columns(["_adc"])


def ivfpq_encode(
    ds: "ray.data.Dataset",
    centroids: np.ndarray,
    codebooks: np.ndarray,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """IVF-PQ index rows ``(id, ivf_list, pq_code)``: each vector routes to
    its nearest coarse centroid and its RESIDUAL (vector − centroid) is
    PQ-encoded — the composition a billion-vector index ships (coarse
    routing bounds the scan, residual codes bound the bytes). Train
    ``codebooks`` on residuals via :func:`ivfpq_train`."""
    mm, kk, dsub = codebooks.shape
    ref = _broadcast((centroids, codebooks))

    def enc(t: pa.Table, b) -> pa.Table:
        cent, books = _deref(b)
        t = t.combine_chunks()
        x = _normalize(_emb_matrix(t, emb_col))
        lists = (x @ cent.T).argmax(axis=1)
        res = x - cent[lists]
        codes = np.empty((len(x), mm), np.uint8)
        for s in range(mm):
            rs = res[:, s * dsub:(s + 1) * dsub]
            d2 = ((rs[:, None, :] - books[s][None, :, :]) ** 2).sum(axis=2)
            codes[:, s] = d2.argmin(axis=1).astype(np.uint8)
        return pa.table(
            {id_col: t[id_col],
             "ivf_list": pa.array(lists.astype(np.int64)),
             "pq_code": pa.array([c.tobytes() for c in codes], pa.binary())}
        )

    return ds.map_batches(enc, fn_args=[ref], batch_format="pyarrow",
                          batch_size=batch_size)


def ivfpq_train(
    ds: "ray.data.Dataset",
    *,
    n_lists: int = 16,
    m: int = 8,
    k: int = 256,
    emb_col: str = "embedding",
    sample: int = 65536,
    iters: int = 15,
    seed: int = 17,
) -> tuple[np.ndarray, np.ndarray]:
    """(coarse centroids, residual PQ codebooks) from a bounded head
    sample: coarse k-means first, then per-subspace Lloyd on the coarse
    RESIDUALS (the quantity :func:`ivfpq_encode` actually codes)."""
    head = ds.limit(sample).take_all()
    if not head:
        raise ValueError("ivfpq_train: empty input")
    tbl = pa.table(
        {emb_col: pa.array([r[emb_col] for r in head])}
    )
    cent = fit_centroids(tbl, n_lists, iters=iters, seed=seed, emb_col=emb_col)
    x = _normalize(
        np.stack([np.asarray(r[emb_col], np.float64) for r in head])
    )
    res = x - cent[(x @ cent.T).argmax(axis=1)]
    dim = res.shape[1]
    if dim % m:
        raise ValueError(f"embedding dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.default_rng(seed + 1)
    books = np.empty((m, k, dsub))
    for s in range(m):
        xs = res[:, s * dsub:(s + 1) * dsub]
        c = xs[rng.choice(len(xs), size=min(k, len(xs)), replace=False)]
        if len(c) < k:
            c = np.concatenate([c, c[rng.integers(0, len(c), k - len(c))]
                                + rng.normal(0, 1e-6, (k - len(c), dsub))])
        for _ in range(iters):
            d2 = ((xs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            for j in range(k):
                hit = a == j
                if hit.any():
                    c[j] = xs[hit].mean(axis=0)
        books[s] = c
    return cent, books


def ivfpq_topk(
    index: "ray.data.Dataset",
    queries,
    centroids: np.ndarray,
    codebooks: np.ndarray,
    k: int = 10,
    *,
    n_probe: int = 4,
    id_col: str = "vec_id",
    query_id_col: str = "query_id",
    emb_col: str = "embedding",
    batch_size: int = 8192,
) -> "ray.data.Dataset":
    """Approximate top-k over an :func:`ivfpq_encode` index: each query
    probes its ``n_probe`` nearest lists with a PER-LIST residual ADC
    table (the residual is list-relative, so each probed list gets its own
    (m × k) table) and only rows of probed lists are scored — the full
    IVF-PQ scan. Output contract matches :func:`cosine_topk`."""
    mm, kk, dsub = codebooks.shape
    q_t = _small_table(queries)
    q_ids = q_t[query_id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    q_mat = _normalize(_emb_matrix(q_t, emb_col))
    q_lists = np.argsort(-(q_mat @ centroids.T), axis=1)[:, :n_probe]
    # dt[qi][list] = (m, k) table of ||(q - c_list)_sub - code||^2
    tables: dict[tuple[int, int], np.ndarray] = {}
    for qi in range(len(q_ids)):
        for l in q_lists[qi]:
            r = q_mat[qi] - centroids[int(l)]
            dt = np.empty((mm, kk))
            for s in range(mm):
                rs = r[s * dsub:(s + 1) * dsub]
                dt[s] = ((rs[None, :] - codebooks[s]) ** 2).sum(axis=1)
            tables[(qi, int(l))] = dt
    ref = _broadcast((q_ids, q_lists, tables))

    def scan(t: pa.Table, b) -> pa.Table:
        q_ids, q_lists, tables = _deref(b)
        t = t.combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lists = t["ivf_list"].to_numpy(zero_copy_only=False)
        blob = b"".join(t["pq_code"].to_pylist())
        codes = np.frombuffer(blob, np.uint8).reshape(len(t), mm)
        out_q: list[np.ndarray] = []
        out_i: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for qi in range(len(q_ids)):
            for l in q_lists[qi]:
                rows = np.flatnonzero(lists == int(l))
                if len(rows) == 0:
                    continue
                dt = tables[(qi, int(l))]
                d = dt[np.arange(mm), codes[rows]].sum(axis=1)
                hit = ids[rows] != q_ids[qi]  # exclude self
                kk2 = min(k, int(hit.sum()))
                if kk2 == 0:
                    continue
                cand = rows[hit]
                dc = d[hit]
                part = np.argpartition(dc, kk2 - 1)[:kk2]
                out_q.append(np.full(kk2, q_ids[qi], np.int64))
                out_i.append(ids[cand[part]])
                out_d.append(dc[part])
        if not out_q:
            return pa.table(
                {query_id_col: pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64()),
                 "_adc": pa.array([], pa.float64())}
            )
        return pa.table(
            {query_id_col: pa.array(np.concatenate(out_q)),
             id_col: pa.array(np.concatenate(out_i)),
             "_adc": pa.array(np.concatenate(out_d))}
        )

    def final_topk(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        d = t["_adc"].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, d))[:k]
        order = order[np.argsort(d[order], kind="stable")]
        out = t.take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(len(order), dtype=np.int64))
        )

    local = index.map_batches(
        scan, fn_args=[ref], batch_format="pyarrow", batch_size=batch_size
    )
    return local.groupby(query_id_col).map_groups(
        final_topk, batch_format="pyarrow"
    ).drop_columns(["_adc"])
