"""Brute-force recognizer: the oracle everything else leans on."""
from __future__ import annotations

import random

import pytest

from okplanar.drawing import (
    crossing_report,
    is_closed_drawing,
    is_outer_k_planar_drawing,
    is_outer_k_quasi_planar_drawing,
)
from okplanar.generators import complete, complete_bipartite, grid
from okplanar.graphs import build_graph, induced_subgraph, is_connected
from okplanar.recognition import (
    brute_force_recognize,
    check_refutation,
    largest_clique_in_class,
    refute,
)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_k4_outer_1_planar():
    d = brute_force_recognize(complete(4), 1, "outer-planar")
    assert d is not None
    assert is_outer_k_planar_drawing(d, 1)


def test_k5_not_outer_1_planar():
    assert brute_force_recognize(complete(5), 1, "outer-planar") is None


def test_closed_k0():
    assert brute_force_recognize(complete(4), 0, "closed-outer-planar") is None
    d = brute_force_recognize(cycle(4), 0, "closed-outer-planar")
    assert d is not None and is_closed_drawing(d)


def test_witnesses_verify():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(3, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, rng.sample(pairs, k=rng.randrange(0, len(pairs) + 1)))
        k = rng.randrange(0, 3)
        d = brute_force_recognize(g, k, "outer-planar")
        if d is not None:
            assert is_outer_k_planar_drawing(d, k)
        kq = rng.randrange(2, 4)
        dq = brute_force_recognize(g, kq, "outer-quasi")
        if dq is not None:
            assert is_outer_k_quasi_planar_drawing(dq, kq)


def test_cap_enforced():
    with pytest.raises(ValueError):
        brute_force_recognize(complete(12), 3, "outer-planar")
    with pytest.raises(ValueError):
        brute_force_recognize(complete(6), 3, "outer-planar", cap=5)


def test_closed_small_n_rejected():
    with pytest.raises(ValueError):
        brute_force_recognize(build_graph(2, [(0, 1)]), 1, "closed-outer-planar")


def test_bad_variant_and_k():
    with pytest.raises(ValueError):
        brute_force_recognize(complete(3), 1, "nope")
    with pytest.raises(ValueError):
        brute_force_recognize(complete(3), 1, "outer-quasi")
    with pytest.raises(ValueError):
        brute_force_recognize(complete(3), -1, "outer-planar")


def test_monotone_in_k():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(4, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, rng.sample(pairs, k=rng.randrange(2, len(pairs) + 1)))
        for k in range(0, 3):
            if brute_force_recognize(g, k, "outer-planar") is not None:
                assert brute_force_recognize(g, k + 1, "outer-planar") is not None


def test_hereditary_subgraph():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randrange(4, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, k=rng.randrange(3, len(pairs) + 1))
        g = build_graph(n, edges)
        k = rng.randrange(0, 3)
        if brute_force_recognize(g, k, "outer-planar") is None:
            continue
        sub_edges = rng.sample(edges, k=rng.randrange(0, len(edges)))
        sub = build_graph(n, sub_edges)
        assert brute_force_recognize(sub, k, "outer-planar") is not None


def test_complete_graph_order_independence():
    # in K_n the count of a chord is forced by its side split: l * (n-2-l),
    # so every circular order gives the same count multiset and recognition
    # cannot depend on enumeration order
    import itertools

    from okplanar.drawing import edges_cross, make_drawing

    def check(n, order):
        d = make_drawing(complete(n), order)
        per = {e: 0 for e in d.graph.edges}
        for e, f in itertools.combinations(d.graph.edges, 2):
            if edges_cross(d, e, f):
                per[e] += 1
                per[f] += 1
        for (u, v), cnt in per.items():
            a, b = sorted((d.pos[u], d.pos[v]))
            l = b - a - 1
            assert cnt == l * (n - 2 - l)

    for n in range(4, 7):
        for tail in itertools.permutations(range(1, n)):
            check(n, (0,) + tail)
    rng = random.Random(29)
    for n in (7, 8):
        for _ in range(120):
            order = list(range(n))
            rng.shuffle(order)
            check(n, order)


def test_largest_clique_small_k():
    assert largest_clique_in_class(0) == 3
    assert largest_clique_in_class(1) == 4
    assert largest_clique_in_class(2) == 5
    with pytest.raises(ValueError):
        largest_clique_in_class(13)


def test_quasi_recognition_matches_checker_exhaustively():
    # K_6 is not outer 3-quasi-planar in any order; K_5 is in every order
    assert brute_force_recognize(complete(5), 3, "outer-quasi") is not None
    assert brute_force_recognize(complete(6), 3, "outer-quasi") is None


def test_closed_quasi():
    d = brute_force_recognize(grid(2, 3), 3, "closed-outer-quasi")
    assert d is not None
    assert is_closed_drawing(d)
    assert is_outer_k_quasi_planar_drawing(d, 3)
    # a path has no closed drawing at all
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_force_recognize(p4, 3, "closed-outer-quasi") is None


def test_bipartite_spot_checks():
    # K_{2,3} is the forbidden minor of outerplanarity but needs only one
    # crossing in convex position
    assert brute_force_recognize(complete_bipartite(2, 3), 0, "outer-planar") is None
    assert brute_force_recognize(complete_bipartite(2, 3), 1, "outer-planar") is not None


def test_closed_refutation_names_the_smallest_cut_vertex():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(3, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = build_graph(n, rng.sample(pairs, rng.randrange(n - 1, len(pairs) + 1)))
        cuts = [w for w in range(n)
                if not is_connected(induced_subgraph(g, [v for v in range(n) if v != w])[0])]
        cert = refute(g, 0, "closed-planar")
        if not is_connected(g):
            assert cert == {"kind": "disconnected"}
        elif cuts:
            assert cert == {"kind": "cut-vertex", "vertex": cuts[0]}
        else:
            assert cert is None or cert["kind"] == "degeneracy"


def test_check_refutation_rejects_misapplied_certificates():
    c5 = cycle(5)
    bowtie = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    k6 = complete(6)
    for g, k, variant, cert in [
        (c5, 0, "closed-planar", {"kind": "disconnected"}),
        (c5, 0, "closed-planar", {"kind": "cut-vertex", "vertex": 1}),
        (bowtie, 0, "closed-planar", {"kind": "cut-vertex", "vertex": 5}),
        (bowtie, 0, "closed-planar", {"kind": "cut-vertex", "vertex": True}),
        (bowtie, 0, "planar", {"kind": "cut-vertex", "vertex": 2}),  # open variant
        (build_graph(2, []), 0, "closed-planar", {"kind": "disconnected"}),
        (k6, 3, "planar", {"kind": "edge-count", "vertices": list(range(6)),
                           "edges": 15, "bound": 14}),  # a quasi kind
        (k6, 3, "quasi", {"kind": "edge-count", "vertices": [5, 4, 3, 2, 1, 0],
                          "edges": 15, "bound": 14}),  # not ascending
        (k6, 3, "quasi", {"kind": "edge-count", "vertices": [0, 1, 2, 3, 4, 6],
                          "edges": 15, "bound": 14}),  # not a vertex
        (k6, 4, "quasi", {"kind": "edge-count", "vertices": list(range(6)),
                          "edges": 15, "bound": 15}),  # K6 fits the k = 4 bound
        (k6, 2, "planar", {"kind": "degeneracy", "vertices": [],
                           "min_degree": 0, "bound": 4}),
    ]:
        with pytest.raises(ValueError):
            check_refutation(g, k, variant, cert)
    check_refutation(bowtie, 0, "closed-planar", {"kind": "cut-vertex", "vertex": 2})
    check_refutation(k6, 3, "quasi", refute(k6, 3, "quasi"))


def test_refute_leaves_small_closed_instances_to_the_engines():
    # n < 3 is an error for closed variants, not a refutation
    from okplanar.sat import recognize

    assert refute(build_graph(2, []), 0, "closed-planar") is None
    for engine in ("sat", "brute"):
        with pytest.raises(ValueError, match="n >= 3"):
            recognize(build_graph(2, []), 0, "closed-planar", engine=engine)
