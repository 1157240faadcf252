"""Distributed PageRank over an edge Dataset (graph analytics family).

Reference parity: the reference ships graph-shaped analytics (Gradoop/FAMER
readers, connected components over similarity graphs —
`graph_construction.py`, `famer/*`); PageRank is the canonical iterative
companion: node importance over the same edge tables (e.g. the RDF
subject→object graph, A16's schema-graph input).

Semantics (power iteration, fixed ``iterations``):

    rank0(v)   = 1/N
    rank_t+1(v) = (1 - d)/N + d * Σ_{(u,v) ∈ E} rank_t(u) / outdeg(u)

Multi-edges contribute once per edge instance; dangling nodes (outdeg 0)
leak their mass (the plain formulation — deterministic and exactly
SQL-replicable, which is what pins this operator to its oracle). NULL
endpoints are dropped (SQL join semantics).

Two execution paths behind one API, chosen by the same guarded-broadcast
rule as every dimension join in the engine (``_collect_small``):

- **broadcast** (node table under the byte budget): per iteration, ONE
  streaming pass over the edges — the rank vector is ``ray.put`` once and
  probed per batch (pandas Index lookup, works for string URIs and int ids
  alike); per-batch contributions collapse to distinct-dst partials and the
  node-sized partial stream folds on the driver. Zero all-to-all.
- **distributed** (node table over budget — the 100-TB path): per
  iteration, one task-based ``bucketed_join`` (edges ⋈ rank weights on
  src) plus one union+groupby fold over the node universe. 2 exchanges per
  iteration, nothing node-sized on the driver.

Both paths compute the identical formula; ``tests/test_graph.py`` pins them
against each other and the registry query ``rdf_pagerank`` pins the result
against an unrolled-iteration DuckDB oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _drop_null_edges(t: pa.Table, src: str, dst: str) -> pa.Table:
    t = t.combine_chunks()
    keep = pc.and_(pc.is_valid(t[src]), pc.is_valid(t[dst]))
    return t.filter(keep)


def _universe(
    edges: "ray.data.Dataset", src: str, dst: str
) -> "ray.data.Dataset":
    """(node, outdeg) over src ∪ dst — per-batch partial degree counts +
    distinct dsts, folded by ONE groupby exchange."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        t = _drop_null_edges(t, src, dst)
        deg = (
            t.select([src])
            .group_by([src])
            .aggregate([(src, "count")])
            .rename_columns(["node", "outdeg"])
        )
        dsts = pc.unique(t[dst])
        dst_part = pa.table(
            {"node": dsts, "outdeg": pa.array(np.zeros(len(dsts), np.int64))}
        )
        return pa.concat_tables(
            [deg.set_column(1, "outdeg", deg["outdeg"].cast(pa.int64())), dst_part]
        )

    return (
        edges.map_batches(partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("outdeg", alias_name="outdeg"))
    )


def _pagerank_broadcast(
    edges, src, dst, universe_tbl: pa.Table, iterations, damping, batch_size
):
    import ray
    import ray.data as rd

    nodes = universe_tbl["node"].combine_chunks()
    idx = pd.Index(nodes.to_pandas())
    outdeg = universe_tbl["outdeg"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(idx)
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iterations):
        w = np.where(outdeg > 0, rank / np.maximum(outdeg, 1.0), 0.0)
        ref = ray.put((idx, w))

        def contrib(t: pa.Table, _ref=ref) -> pa.Table:
            i, wv = ray.get(_ref)
            t = _drop_null_edges(t, src, dst)
            pos = i.get_indexer(t[src].to_pandas())
            if len(pos) and pos.min() < 0:
                # get_indexer returns -1 for an unknown src, which would
                # silently read wv[-1]; unreachable when the universe comes
                # from these edges, but the lazy edge pipeline re-executes
                # per iteration — a nondeterministic upstream map must fail
                # loudly, not corrupt ranks
                raise ValueError(
                    "pagerank: edge source node absent from the node "
                    "universe (nondeterministic upstream edge pipeline?)"
                )
            part = pa.table({"node": t[dst], "contrib": pa.array(wv[pos])})
            return (
                part.group_by(["node"])
                .aggregate([("contrib", "sum")])
                .rename_columns(["node", "contrib"])
            )

        partials = edges.map_batches(
            contrib, batch_format="pyarrow", batch_size=batch_size
        ).to_pandas()  # node-sized × blocks; bounded by the broadcast budget
        sums = partials.groupby("node")["contrib"].sum()
        at = idx.get_indexer(sums.index)
        if len(at) and at.min() < 0:
            # the same -1 on the dst side would silently add into vec[-1]
            raise ValueError(
                "pagerank: edge destination node absent from the node "
                "universe (nondeterministic upstream edge pipeline?)"
            )
        vec = np.zeros(n)
        vec[at] = sums.to_numpy()
        rank = base + damping * vec
    return rd.from_arrow(pa.table({"node": nodes, "rank": pa.array(rank)}))


def _pagerank_distributed(
    edges,
    src,
    dst,
    universe,
    n,
    iterations,
    damping,
    edge_schema,
    num_buckets,
    batch_size,
):
    from ray.data.aggregate import Max, Sum

    from odibel_ray.ops.relational import bucketed_join

    base = (1.0 - damping) / n
    uni_schema = pa.schema([("node", universe.schema().base_schema.field("node").type),
                            ("outdeg", pa.int64())])
    node_t = uni_schema.field("node").type

    def seed(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return t.append_column("rank", pa.array(np.full(len(t), 1.0 / n)))

    ranks = universe.map_batches(seed, batch_format="pyarrow")

    def weights(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        deg = t["outdeg"].to_numpy(zero_copy_only=False).astype(np.float64)
        r = t["rank"].to_numpy(zero_copy_only=False)
        w = np.where(deg > 0, r / np.maximum(deg, 1.0), 0.0)
        return pa.table({src: t["node"], "_w": pa.array(w)})

    def fold_contrib(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        part = pa.table({"node": t[dst], "contrib": t["_w"]})
        out = (
            part.group_by(["node"])
            .aggregate([("contrib", "sum")])
            .rename_columns(["node", "contrib"])
        )
        return out.append_column("outdeg", pa.array(np.zeros(len(out), np.int64)))

    def zero_rows(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        return pa.table(
            {
                "node": t["node"],
                "contrib": pa.array(np.zeros(len(t))),
                "outdeg": t["outdeg"].cast(pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        c = t["contrib"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": t["node"],
                "outdeg": t["outdeg"],
                "rank": pa.array(base + damping * c),
            }
        )

    for _ in range(iterations):
        w_tbl = ranks.map_batches(weights, batch_format="pyarrow")
        joined = bucketed_join(
            edges,
            w_tbl,
            src,
            num_buckets=num_buckets,
            left_schema=edge_schema,
            right_schema=pa.schema([(src, node_t), ("_w", pa.float64())]),
            batch_size=batch_size,
        )
        contribs = joined.map_batches(fold_contrib, batch_format="pyarrow")
        zeros = universe.map_batches(zero_rows, batch_format="pyarrow")
        folded = (
            contribs.union(zeros)
            .groupby("node")
            .aggregate(
                Sum("contrib", alias_name="contrib"),
                Max("outdeg", alias_name="outdeg"),
            )
        )
        ranks = folded.map_batches(finish, batch_format="pyarrow")
    return ranks.select_columns(["node", "rank"])


def pagerank(
    edges: "ray.data.Dataset",
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    iterations: int = 5,
    damping: float = 0.85,
    edge_schema: pa.Schema | None = None,
    max_broadcast_bytes: int | None = None,
    num_buckets: int | None = None,
    batch_size: int = 65536,
    force_distributed: bool = False,
) -> "ray.data.Dataset":
    """PageRank of every node in ``edges`` → Dataset ``(node, rank)``.

    Path choice is the engine's standard guarded broadcast: the (node,
    outdeg) universe is collected under ``max_broadcast_bytes``
    (:data:`odibel_ray.ops.relational.DEFAULT_BROADCAST_LIMIT`); over
    budget — or with ``force_distributed`` — the shuffle path runs instead
    (2 task-based exchanges per iteration, nothing node-sized on the
    driver). Pass ``edge_schema`` when ``edges`` is a lazy pipeline so the
    distributed path never executes it just to infer column types.
    """
    from odibel_ray.ops.relational import (
        DEFAULT_BROADCAST_LIMIT,
        _collect_small,
    )

    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    limit = DEFAULT_BROADCAST_LIMIT if max_broadcast_bytes is None else max_broadcast_bytes
    edge_schema = edge_schema or edges.schema().base_schema
    edges = edges.select_columns([src_col, dst_col])
    edge_schema = pa.schema([edge_schema.field(src_col), edge_schema.field(dst_col)])

    universe = _universe(edges, src_col, dst_col).materialize()
    if not force_distributed:
        tbl, fallback = _collect_small(universe, limit)
        if tbl is not None:
            if len(tbl) == 0:
                import ray.data as rd

                return rd.from_arrow(
                    pa.table(
                        {"node": pa.array([], edge_schema.field(src_col).type),
                         "rank": pa.array([], pa.float64())}
                    )
                )
            return _pagerank_broadcast(
                edges, src_col, dst_col, tbl, iterations, damping, batch_size
            )
        universe = fallback
    n = universe.count()
    if n == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"node": pa.array([], edge_schema.field(src_col).type),
                      "rank": pa.array([], pa.float64())})
        )
    return _pagerank_distributed(
        edges,
        src_col,
        dst_col,
        universe,
        n,
        iterations,
        damping,
        edge_schema,
        num_buckets,
        batch_size,
    )


def triangle_count(
    edges: "ray.data.Dataset",
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    edge_schema: pa.Schema | None = None,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Exact triangle count of the UNDIRECTED simple graph underlying
    ``edges`` (direction/multi-edges/self-loops normalized away) — one row
    ``(n_triangles)``.

    The textbook distributed shape: (1) normalize to distinct undirected
    edges, (2) one degree aggregate, (3) orient every edge from its lower
    (degree, node) endpoint to the higher — each node's out-neighborhood
    is then O(sqrt(m))-amortized, so (4) per-center wedge generation is
    m^{3/2}-bounded instead of sum-of-degrees-squared (the hub blowup),
    and (5) one semi join of wedges against the oriented edge set counts
    each triangle exactly once (only the wedge at the triangle's
    lowest-ordered node matches an edge). Wedges are generated per HASH
    BUCKET of centers (lexsorted segments — no per-node map_groups
    overhead), mirroring the span detector's anchor stage.
    """
    import ray  # noqa: F401
    from functools import partial as _partial

    from odibel_ray.ops.relational import bucketed_join, exact_dedup
    from odibel_ray.tuning import default_num_buckets

    edge_schema = edge_schema or edges.schema().base_schema
    ntype = edge_schema.field(src_col).type

    def normalize(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        t = _drop_null_edges(t, src_col, dst_col)
        u = pc.min_element_wise(t[src_col], t[dst_col])
        v = pc.max_element_wise(t[src_col], t[dst_col])
        keep = pc.not_equal(u, v)  # drop self loops
        return pa.table({"u": u, "v": v}).filter(keep)

    und = exact_dedup(
        edges.map_batches(normalize, batch_format="pyarrow",
                          batch_size=batch_size),
        ["u", "v"],
    ).materialize()

    # degrees of the simple graph — endpoint stream, combiner-first
    def endpoints(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = pa.concat_arrays(
            [t["u"].combine_chunks(), t["v"].combine_chunks()]
        )
        vc = pc.value_counts(n)
        return pa.table(
            {"node": vc.field("values"),
             "deg": vc.field("counts").cast(pa.int64())}
        )

    deg = (
        und.map_batches(endpoints, batch_format="pyarrow",
                        batch_size=batch_size)
        .groupby("node").sum("deg")
        .map_batches(lambda t: t.rename_columns(["node", "deg"]),
                     batch_format="pyarrow")
    )

    # attach both degrees, orient low -> high by (deg, node)
    j = bucketed_join(
        und,
        deg.map_batches(lambda t: t.rename_columns(["u", "du"]),
                        batch_format="pyarrow"),
        "u",
        num_buckets=num_buckets,
        left_schema=pa.schema([("u", ntype), ("v", ntype)]),
        right_schema=pa.schema([("u", ntype), ("du", pa.int64())]),
    )
    j = bucketed_join(
        j,
        deg.map_batches(lambda t: t.rename_columns(["v", "dv"]),
                        batch_format="pyarrow"),
        "v",
        num_buckets=num_buckets,
        left_schema=pa.schema([("u", ntype), ("v", ntype),
                               ("du", pa.int64())]),
        right_schema=pa.schema([("v", ntype), ("dv", pa.int64())]),
    )

    def orient(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        du = t["du"].to_numpy(zero_copy_only=False)
        dv = t["dv"].to_numpy(zero_copy_only=False)
        fwd = (du < dv) | ((du == dv) & (u < v))
        return pa.table(
            {"a": pa.array(np.where(fwd, u, v)),
             "b": pa.array(np.where(fwd, v, u)),
             "da": pa.array(np.where(fwd, du, dv)),
             "db": pa.array(np.where(fwd, dv, du))}
        )

    oriented = j.map_batches(orient, batch_format="pyarrow").materialize()

    nb = default_num_buckets(num_buckets)

    def add_cb(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        h = pd.util.hash_array(
            np.asarray(t["a"].to_numpy(zero_copy_only=False), dtype=object),
            categorize=False,
        )
        return t.append_column(
            "_cb", pa.array((h % np.uint64(nb)).astype(np.int64))
        )

    def wedges(t: pa.Table) -> pa.Table:
        """All ordered out-neighbor pairs per center in this hash bucket:
        lexsort by center, per-segment triu over neighbors sorted by the
        same (deg, node) orientation order."""
        t = t.combine_chunks()
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        db = t["db"].to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return pa.table({"a": pa.array([], ntype), "b": pa.array([], ntype)})
        order = np.lexsort((b, db, a))
        a, b, db = a[order], b[order], db[order]
        new = np.ones(len(a), bool)
        new[1:] = a[1:] != a[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(a)))
        out_x: list[np.ndarray] = []
        out_y: list[np.ndarray] = []
        for s0, sz in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            nb_ = b[s0:s0 + sz]  # already in orientation order
            ix, iy = np.triu_indices(sz, k=1)
            out_x.append(nb_[ix])
            out_y.append(nb_[iy])
        if not out_x:
            return pa.table({"a": pa.array([], ntype), "b": pa.array([], ntype)})
        return pa.table(
            {"a": pa.array(np.concatenate(out_x)),
             "b": pa.array(np.concatenate(out_y))}
        )

    wedge_ds = oriented.map_batches(
        add_cb, batch_format="pyarrow"
    ).groupby("_cb").map_groups(wedges, batch_format="pyarrow")

    closed = bucketed_join(
        wedge_ds,
        oriented,
        ["a", "b"],
        how="semi",
        num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype)]),
        right_schema=pa.schema([("a", ntype), ("b", ntype),
                                ("da", pa.int64()), ("db", pa.int64())]),
    )
    n_tri = closed.count()
    import ray.data as rd

    return rd.from_arrow(
        pa.table({"n_triangles": pa.array([int(n_tri)], pa.int64())})
    )


def link_scores(
    edges: "ray.data.Dataset",
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    min_common: int = 1,
    max_center_degree: int | None = None,
    edge_schema: pa.Schema | None = None,
    num_buckets: int | None = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Link-prediction scores for every node pair at two-hop distance in
    the undirected simple graph: ``(node_a, node_b, n_common, jaccard,
    adamic_adar)`` with ``node_a < node_b`` — the graph-similarity signal
    ER link refinement uses (FAMER-style) and the classic
    link-prediction triple (common neighbors; Jaccard
    |N(a)∩N(b)|/|N(a)∪N(b)|; Adamic–Adar Σ_c 1/ln deg(c)).

    Shape: one wedge per (common neighbor, pair) generated per HASH BUCKET
    of centers (lexsorted segments), one ``groupby(pair)`` fold, then two
    degree joins for the union size. Exact cost is inherently
    Σ_c deg(c)² — hub centers dominate; ``max_center_degree`` opts into
    skipping centers above the bound (standard practice: a hub connecting
    everything carries little per-pair evidence, which is why Adamic–Adar
    down-weights it toward 0 anyway), trading bounded recall loss for a
    bounded shuffle. ``min_common`` filters the output only (the fold
    already happened)."""
    from functools import partial as _partial

    from ray.data.aggregate import Count, Sum

    from odibel_ray.ops.relational import bucketed_join, exact_dedup
    from odibel_ray.tuning import default_num_buckets

    edge_schema = edge_schema or edges.schema().base_schema
    ntype = edge_schema.field(src_col).type

    def normalize(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        t = _drop_null_edges(t, src_col, dst_col)
        u = pc.min_element_wise(t[src_col], t[dst_col])
        v = pc.max_element_wise(t[src_col], t[dst_col])
        keep = pc.not_equal(u, v)
        return pa.table({"u": u, "v": v}).filter(keep)

    und = exact_dedup(
        edges.map_batches(normalize, batch_format="pyarrow",
                          batch_size=batch_size),
        ["u", "v"],
    ).materialize()

    # adjacency stream keyed by CENTER: every undirected edge contributes
    # both directions
    def both_dirs(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        c = pa.concat_arrays([t["u"].combine_chunks(), t["v"].combine_chunks()])
        n = pa.concat_arrays([t["v"].combine_chunks(), t["u"].combine_chunks()])
        return pa.table({"c": c, "n": n})

    adj = und.map_batches(both_dirs, batch_format="pyarrow")
    nb = default_num_buckets(num_buckets)

    def add_cb(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        h = pd.util.hash_array(
            np.asarray(t["c"].to_numpy(zero_copy_only=False), dtype=object),
            categorize=False,
        )
        return t.append_column(
            "_cb", pa.array((h % np.uint64(nb)).astype(np.int64))
        )

    def wedges(t: pa.Table, *, cap) -> pa.Table:
        t = t.combine_chunks()
        c = t["c"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {"a": pa.array([], ntype), "b": pa.array([], ntype),
             "aa": pa.array([], pa.float64())}
        )
        if len(c) == 0:
            return empty
        order = np.lexsort((n, c))
        c, n = c[order], n[order]
        new = np.ones(len(c), bool)
        new[1:] = c[1:] != c[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(c)))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_w: list[np.ndarray] = []
        for s0, sz in zip(starts[sizes >= 2], sizes[sizes >= 2]):
            if cap is not None and sz > cap:
                continue  # hub center skipped (documented recall trade)
            nb_ = n[s0:s0 + sz]  # sorted; node_a < node_b for free
            ix, iy = np.triu_indices(sz, k=1)
            out_a.append(nb_[ix])
            out_b.append(nb_[iy])
            out_w.append(np.full(len(ix), 1.0 / np.log(sz)))
        if not out_a:
            return empty
        return pa.table(
            {"a": pa.array(np.concatenate(out_a)),
             "b": pa.array(np.concatenate(out_b)),
             "aa": pa.array(np.concatenate(out_w))}
        )

    folded = (
        adj.map_batches(add_cb, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(_partial(wedges, cap=max_center_degree),
                    batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="n_common"),
                   Sum("aa", alias_name="adamic_adar"))
    )

    deg = (
        adj.groupby("c").count()
        .map_batches(lambda t: t.rename_columns(["c", "deg"]),
                     batch_format="pyarrow")
    )
    j = bucketed_join(
        folded,
        deg.map_batches(lambda t: t.rename_columns(["a", "da"]),
                        batch_format="pyarrow"),
        "a",
        num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype),
                               ("n_common", pa.int64()),
                               ("adamic_adar", pa.float64())]),
        right_schema=pa.schema([("a", ntype), ("da", pa.int64())]),
    )
    j = bucketed_join(
        j,
        deg.map_batches(lambda t: t.rename_columns(["b", "db"]),
                        batch_format="pyarrow"),
        "b",
        num_buckets=num_buckets,
        left_schema=pa.schema([("a", ntype), ("b", ntype),
                               ("n_common", pa.int64()),
                               ("adamic_adar", pa.float64()),
                               ("da", pa.int64())]),
        right_schema=pa.schema([("b", ntype), ("db", pa.int64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ncom = t["n_common"].to_numpy(zero_copy_only=False).astype(np.float64)
        da = t["da"].to_numpy(zero_copy_only=False).astype(np.float64)
        db = t["db"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = da + db - ncom
        out = pa.table(
            {"node_a": t["a"], "node_b": t["b"],
             "n_common": t["n_common"],
             "jaccard": pa.array(np.round(ncom / np.maximum(union, 1.0), 6)),
             "adamic_adar": pa.array(
                 np.round(t["adamic_adar"].to_numpy(zero_copy_only=False), 6)
             )}
        )
        keep = pa.array(
            t["n_common"].to_numpy(zero_copy_only=False) >= min_common
        )
        return out.filter(keep)

    return j.map_batches(finish, batch_format="pyarrow")


def k_core(
    edges: "ray.data.Dataset",
    k: int,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    edge_schema: pa.Schema | None = None,
    max_rounds: int = 100,
) -> "ray.data.Dataset":
    """Nodes of the ``k``-core of the undirected simple graph: the maximal
    subgraph where every node has degree >= k. Classic distributed
    peeling: each round recomputes degrees within the surviving subgraph
    and drops nodes below ``k``, until a fixpoint (rounds needed = peeling
    depth, typically small; ``max_rounds`` is a runaway guard). Output:
    ``(node, deg)`` — the node's degree inside the k-core.

    Each round is one combiner-first degree aggregate over the surviving
    edge set plus one guarded-broadcast semi join of edges against the
    surviving node set (automatic bucketed fallback above the byte
    budget) — no driver-side graph state."""
    from ray.data.aggregate import Sum

    from odibel_ray.ops.relational import broadcast_semi_join, exact_dedup

    if k < 1:
        raise ValueError("k must be >= 1")
    edge_schema = edge_schema or edges.schema().base_schema
    ntype = edge_schema.field(src_col).type

    def normalize(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        t = _drop_null_edges(t, src_col, dst_col)
        u = pc.min_element_wise(t[src_col], t[dst_col])
        v = pc.max_element_wise(t[src_col], t[dst_col])
        keep = pc.not_equal(u, v)
        return pa.table({"u": u, "v": v}).filter(keep)

    cur = exact_dedup(
        edges.map_batches(normalize, batch_format="pyarrow"), ["u", "v"]
    ).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = pa.concat_arrays([t["u"].combine_chunks(), t["v"].combine_chunks()])
        vc = pc.value_counts(n)
        return pa.table(
            {"node": vc.field("values"),
             "deg": vc.field("counts").cast(pa.int64())}
        )

    deg_schema = pa.schema([("node", ntype), ("deg", pa.int64())])
    for _ in range(max_rounds):
        deg = (
            cur.map_batches(endpoints, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("deg", alias_name="deg"))
            .materialize()
        )
        total = deg.count()
        surviving = deg.filter(expr=f"deg >= {int(k)}").materialize()
        n_surv = surviving.count()
        if n_surv == total:  # fixpoint: nothing dropped this round
            return surviving
        if n_surv == 0:
            import ray.data as rd

            return rd.from_arrow(
                pa.table({"node": pa.array([], ntype),
                          "deg": pa.array([], pa.int64())})
            )
        keep = surviving.select_columns(["node"])
        cur = broadcast_semi_join(
            cur,
            keep.map_batches(lambda t: t.rename_columns(["u"]),
                             batch_format="pyarrow"),
            "u",
            ds_schema=pa.schema([("u", ntype), ("v", ntype)]),
        )
        cur = broadcast_semi_join(
            cur,
            keep.map_batches(lambda t: t.rename_columns(["v"]),
                             batch_format="pyarrow"),
            "v",
            ds_schema=pa.schema([("u", ntype), ("v", ntype)]),
        ).materialize()
    raise RuntimeError(f"k_core did not converge in {max_rounds} rounds")
