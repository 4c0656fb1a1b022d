"""Core graph type: construction, validation, subgraphs."""
from __future__ import annotations

import random

import pytest

from okplanar.graphs import (
    build_graph,
    induced_subgraph,
    is_connected,
)


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_duplicates_collapse():
    g = build_graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.m == 2


def test_rejects_loop():
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(2, [(-1, 0)])


def test_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        build_graph(-1, [])


def test_adjacency_consistent():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, k=rng.randrange(0, len(pairs) + 1)) if pairs else []
        g = build_graph(n, edges)
        for u in range(n):
            for v in range(n):
                assert (v in g.adj[u]) == g.has_edge(u, v) == ((min(u, v), max(u, v)) in set(g.edges))
        # rebuild from own edge list is the identity
        assert build_graph(g.n, g.edges) == g


def test_induced_k4_to_k3():
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sub, ids = induced_subgraph(k4, [0, 1, 2])
    assert sub.m == 3 and ids == [0, 1, 2]


def test_induced_empty():
    g = build_graph(3, [(0, 1)])
    sub, ids = induced_subgraph(g, [])
    assert sub.n == 0 and sub.m == 0 and ids == []


def test_induced_c5():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, ids = induced_subgraph(c5, [0, 1, 3])
    assert sub.edges == ((0, 1),)
    assert ids == [0, 1, 3]


def test_induced_full_is_identity():
    g = build_graph(5, [(0, 2), (1, 4), (2, 3)])
    sub, ids = induced_subgraph(g, range(5))
    assert sub == g and ids == [0, 1, 2, 3, 4]


def test_induced_rejects_bad_ids():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 5])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])


def test_connectivity():
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(build_graph(3, [(0, 1)]))
