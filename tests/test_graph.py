"""PageRank (odibel_ray/graph.py): both execution paths vs a single-threaded
reference, plus degenerate graphs."""

import numpy as np
import pyarrow as pa
import pytest


def _ref_pagerank(src, dst, iterations=5, d=0.85):
    nodes = sorted(set(src) | set(dst))
    pos = {v: k for k, v in enumerate(nodes)}
    n = len(nodes)
    outdeg = np.zeros(n)
    for s in src:
        outdeg[pos[s]] += 1
    r = np.full(n, 1 / n)
    for _ in range(iterations):
        w = np.where(outdeg > 0, r / np.maximum(outdeg, 1), 0)
        c = np.zeros(n)
        for s, t in zip(src, dst):
            c[pos[t]] += w[pos[s]]
        r = (1 - d) / n + d * c
    return {v: r[pos[v]] for v in nodes}


@pytest.mark.parametrize("forced", [False, True])
def test_pagerank_matches_reference(ray_session, forced):
    import ray.data as rd

    from odibel_ray.graph import pagerank

    rng = np.random.default_rng(9)
    src = [f"n{i}" for i in rng.integers(0, 60, 300)]
    dst = [f"n{i}" for i in rng.integers(0, 80, 300)]  # 60..79 are dangling
    ds = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    ref = _ref_pagerank(src, dst)
    out = pagerank(ds, iterations=5, force_distributed=forced).take_all()
    assert len(out) == len(ref)
    for row in out:
        assert abs(row["rank"] - ref[row["node"]]) < 1e-12
    # total mass <= 1 (dangling leak), > (1-d) base floor
    total = sum(r["rank"] for r in out)
    assert 0.15 < total <= 1.0 + 1e-9


def test_pagerank_broadcast_budget_forces_fallback(ray_session):
    import ray.data as rd

    from odibel_ray.graph import pagerank

    src = ["a", "b", "c", "a"]
    dst = ["b", "c", "a", "c"]
    ds = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    ref = _ref_pagerank(src, dst, iterations=3)
    # 1-byte budget: _collect_small must refuse and route to the shuffle path
    out = pagerank(ds, iterations=3, max_broadcast_bytes=1).take_all()
    assert {r["node"]: round(r["rank"], 12) for r in out} == {
        k: round(v, 12) for k, v in ref.items()
    }


def test_pagerank_null_edges_and_empty(ray_session):
    import ray.data as rd

    from odibel_ray.graph import pagerank

    ds = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(["a", None, "b"]),
                "dst": pa.array(["b", "c", None]),
            }
        )
    )
    out = {r["node"]: r["rank"] for r in pagerank(ds, iterations=2).take_all()}
    assert set(out) == {"a", "b"}  # null-endpoint edges dropped entirely
    empty = rd.from_arrow(
        pa.table({"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())})
    )
    assert pagerank(empty, iterations=2).count() == 0


def test_pagerank_unknown_dst_node_raises(ray_session):
    """An edge whose destination is not in the node universe fails loudly,
    as one whose source is not does, instead of adding its rank into the
    universe's last node."""
    import ray.data as rd

    from odibel_ray.graph import _pagerank_broadcast

    edges = rd.from_arrow(pa.table({"src": ["a", "b"], "dst": ["b", "z"]}))
    universe = pa.table({"node": ["a", "b"], "outdeg": pa.array([1, 1], pa.int64())})
    with pytest.raises(ValueError, match="destination node absent"):
        _pagerank_broadcast(edges, "src", "dst", universe, 2, 0.85, 1024)


def test_pagerank_int_node_ids(ray_session):
    import ray.data as rd

    from odibel_ray.graph import pagerank

    src, dst = [1, 2, 3, 1], [2, 3, 1, 3]
    ds = rd.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )
    ref = _ref_pagerank(src, dst, iterations=4)
    out = pagerank(ds, iterations=4).take_all()
    for row in out:
        assert abs(row["rank"] - ref[row["node"]]) < 1e-12


def test_triangle_count_matches_brute_force(ray_session):
    """Random multigraph with self loops and reversed duplicates — the
    normalized triangle count must equal an itertools brute force."""
    import itertools

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.graph import triangle_count

    rng = np.random.default_rng(7)
    n, m = 60, 300
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    names = [f"n{i}" for i in range(n)]
    edges = pa.table(
        {"src": pa.array([names[i] for i in src]),
         "dst": pa.array([names[i] for i in dst])}
    )
    und = {tuple(sorted((a, b)))
           for a, b in zip(src.tolist(), dst.tolist()) if a != b}
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    expected = sum(
        1 for a, b, c in itertools.combinations(sorted(adj), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    got = triangle_count(rd.from_arrow(edges), edge_schema=edges.schema)
    assert got.take_all() == [{"n_triangles": expected}]
    assert expected > 50  # the random graph genuinely has triangles


def test_triangle_count_empty_and_triangle_free(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.graph import triangle_count

    path = pa.table(  # a path graph has zero triangles
        {"src": pa.array(["a", "b", "c"]), "dst": pa.array(["b", "c", "d"])}
    )
    assert triangle_count(
        rd.from_arrow(path), edge_schema=path.schema
    ).take_all() == [{"n_triangles": 0}]


def test_link_scores_match_brute_force(ray_session):
    """Common-neighbor / Jaccard / Adamic-Adar for every two-hop pair of a
    random multigraph, vs an itertools brute force; plus the hub-cap mode
    drops exactly the pairs whose only evidence is a capped center."""
    import itertools
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.graph import link_scores

    rng = np.random.default_rng(13)
    n, m = 40, 160
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    names = [f"n{i:02d}" for i in range(n)]
    edges = pa.table(
        {"src": pa.array([names[i] for i in src]),
         "dst": pa.array([names[i] for i in dst])}
    )
    und = {tuple(sorted((a, b)))
           for a, b in zip(src.tolist(), dst.tolist()) if a != b}
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    exp = {}
    for x, y in itertools.combinations(sorted(adj), 2):
        common = adj[x] & adj[y]
        if not common:
            continue
        nc = len(common)
        exp[(names[x], names[y])] = (
            nc,
            round(nc / len(adj[x] | adj[y]), 6),
            round(sum(1.0 / math.log(len(adj[c])) for c in common), 6),
        )
    got = {
        (r["node_a"], r["node_b"]):
            (r["n_common"], r["jaccard"], r["adamic_adar"])
        for r in link_scores(
            rd.from_arrow(edges), edge_schema=edges.schema
        ).take_all()
    }
    assert set(got) == set(exp)
    for k, (nc, jac, aa) in exp.items():
        gnc, gjac, gaa = got[k]
        assert gnc == nc and abs(gjac - jac) < 1e-6 and abs(gaa - aa) < 1e-6

    # hub cap: skipping centers with degree > cap only removes evidence
    capped = {
        (r["node_a"], r["node_b"]): r["n_common"]
        for r in link_scores(
            rd.from_arrow(edges), edge_schema=edges.schema,
            max_center_degree=6,
        ).take_all()
    }
    assert set(capped) <= set(exp)
    for k, v in capped.items():
        assert v <= exp[k][0]


def test_k_core_matches_iterative_reference(ray_session):
    """Peeling fixpoint vs a plain-Python peel on a random multigraph;
    plus the planted clique survives k just below its size and the empty
    result above it."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odibel_ray.graph import k_core

    rng = np.random.default_rng(21)
    n, m = 50, 140
    src = rng.integers(0, n, m).tolist()
    dst = rng.integers(0, n, m).tolist()
    # plant a 6-clique on nodes 90..95
    for a in range(90, 96):
        for b in range(a + 1, 96):
            src.append(a)
            dst.append(b)
    names = {i: f"n{i:02d}" for i in set(src) | set(dst)}
    edges = pa.table(
        {"src": pa.array([names[i] for i in src]),
         "dst": pa.array([names[i] for i in dst])}
    )

    def ref_core(k):
        adj: dict = {}
        for a, b in {tuple(sorted(e)) for e in zip(src, dst) if e[0] != e[1]}:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        changed = True
        while changed:
            changed = False
            for v in [v for v in list(adj) if len(adj[v]) < k]:
                for u in adj.pop(v):
                    adj[u].discard(v)
                changed = True
        return {names[v]: len(nb) for v, nb in adj.items()}

    for k in (2, 3, 5):
        got = {
            r["node"]: r["deg"]
            for r in k_core(
                rd.from_arrow(edges), k, edge_schema=edges.schema
            ).take_all()
        }
        assert got == ref_core(k), k
    got5 = {r["node"] for r in k_core(
        rd.from_arrow(edges), 5, edge_schema=edges.schema).take_all()}
    assert {names[i] for i in range(90, 96)} <= got5
    assert k_core(rd.from_arrow(edges), 40, edge_schema=edges.schema).count() == 0
