"""Degeneracy, greedy coloring, and the class-wide bound checks."""

import math
import random

import networkx as nx
import pytest

from okplanar import (
    BoundViolation,
    bounds,
    degeneracy,
    outer_k_planar_chromatic_bound,
    outer_k_planar_degeneracy_bound,
    saturate,
    verify_degeneracy_bound,
)
from okplanar.drawing import identity_drawing
from okplanar.generators import complete, random_outer_k_planar
from okplanar.graphs import build_graph

from oracles import largest_clique_in_class


def test_path_degeneracy():
    res = degeneracy(build_graph(6, [(i, i + 1) for i in range(5)]))
    assert res.degeneracy == 1
    assert res.num_colors <= 2


def test_complete_graph_degeneracy():
    res = degeneracy(complete(5))
    assert res.degeneracy == 4
    assert res.num_colors == 5


def test_maximal_outerplanar_degeneracy():
    for n in (7, 9, 12):
        sat = saturate(identity_drawing(build_graph(n, [])), 2)
        assert degeneracy(sat.graph).degeneracy == 2


def test_empty_and_edgeless_graphs():
    res = degeneracy(build_graph(0, []))
    assert res.degeneracy == 0 and res.num_colors == 0 and res.order == ()
    res = degeneracy(build_graph(3, []))
    assert res.degeneracy == 0 and res.num_colors == 1


def test_elimination_order_is_deterministic():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert degeneracy(g).order == degeneracy(g).order
    # smallest id leaves first among the degree-2 vertices
    assert degeneracy(g).order[0] == 1


def test_bound_values():
    assert outer_k_planar_degeneracy_bound(0) == 2
    assert outer_k_planar_degeneracy_bound(1) == 3
    assert outer_k_planar_degeneracy_bound(2) == 4
    assert outer_k_planar_degeneracy_bound(6) == 6
    assert outer_k_planar_degeneracy_bound(12) == 8
    assert outer_k_planar_chromatic_bound(0) == 3
    assert outer_k_planar_chromatic_bound(6) == 7
    with pytest.raises(ValueError):
        outer_k_planar_degeneracy_bound(-1)


def test_bound_exact_at_perfect_squares():
    # 4k+1 square at k = 2, 6, 12, 20: a float sqrt rounding up would be off
    for k, want in [(2, 4), (6, 6), (12, 8), (20, 10)]:
        assert outer_k_planar_degeneracy_bound(k) == want
        assert math.isqrt(4 * k + 1) ** 2 == 4 * k + 1


def test_bound_monotone():
    vals = [outer_k_planar_degeneracy_bound(k) for k in range(40)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_coloring_proper_and_tight_on_random_graphs():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randrange(2, 13)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = build_graph(n, edges)
        res = degeneracy(g)
        for u, v in g.edges:
            assert res.coloring[u] != res.coloring[v]
        assert res.num_colors <= res.degeneracy + 1
        assert sorted(res.order) == list(range(n))


def test_degeneracy_matches_core_number_oracle():
    rng = random.Random(1131)
    for _ in range(30):
        n = rng.randrange(3, 12)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = build_graph(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        want = max(nx.core_number(h).values()) if n else 0
        assert degeneracy(g).degeneracy == want


def test_verify_bound_on_outer_one_planar_corpus():
    corpus = [random_outer_k_planar(n, 1, seed) for n in (8, 10, 12) for seed in range(4)]
    report, results = verify_degeneracy_bound(corpus, 1)
    assert results == [degeneracy(d.graph) for d in corpus]
    assert report["instances"] == 12
    assert report["max_degeneracy"] <= 3
    assert report["max_colors"] <= 4


def test_verify_bound_tight_on_k4():
    report, _ = verify_degeneracy_bound([identity_drawing(complete(4))], 1)
    assert report["max_colors"] == 4 == report["chromatic_bound"]


def test_verify_bound_on_c7():
    c7 = identity_drawing(build_graph(7, [(i, (i + 1) % 7) for i in range(7)]))
    report, _ = verify_degeneracy_bound([c7], 0)
    assert report["max_degeneracy"] == 2
    assert report["max_colors"] <= 3


def test_verify_bound_rejects_violations(monkeypatch):
    # K_5 is not outerplanar, so feeding it at k=0 fails the class check
    with pytest.raises(BoundViolation, match=r"corpus\[0\] is not outer 0-planar: it crosses"):
        verify_degeneracy_bound([identity_drawing(complete(5))], 0)
    # K_4 is outer 1-planar and 3-degenerate: a bound one lower is broken
    real = bounds.outer_k_planar_degeneracy_bound
    monkeypatch.setattr(bounds, "outer_k_planar_degeneracy_bound", lambda k: real(k) - 1)
    with pytest.raises(BoundViolation, match=r"corpus\[0\] has degeneracy 3 > 2"):
        verify_degeneracy_bound([identity_drawing(complete(4))], 1)


def test_clique_threshold_matches_formula():
    # complete graphs fit the class exactly up to floor(sqrt(4k+1)) + 2
    # vertices; the acceptance suite extends this to k = 6
    for k in range(4):
        assert largest_clique_in_class(k) == math.isqrt(4 * k + 1) + 2


def min_scan_order(g) -> tuple[int, tuple[int, ...]]:
    """The original O(n^2) peeling: scan every live vertex for the minimum
    (live degree, id). Oracle for the heap in degeneracy()."""
    live = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    order = []
    worst = 0
    for _ in range(g.n):
        v = min((x for x in range(g.n) if not removed[x]), key=lambda x: (live[x], x))
        worst = max(worst, live[v])
        removed[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not removed[u]:
                live[u] -= 1
    return worst, tuple(order)


def test_heap_peeling_matches_min_scan():
    rng = random.Random(6021)
    graphs = [random_outer_k_planar(480, 3, 1).graph]
    for _ in range(60):
        n = rng.randrange(0, 40)
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        graphs.append(build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    for g in graphs:
        res = degeneracy(g)
        assert (res.degeneracy, res.order) == min_scan_order(g), (g.n, g.edges)
