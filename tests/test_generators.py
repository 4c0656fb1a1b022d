"""Named graphs, the 3-tree tower, seeded random drawings."""
from __future__ import annotations

import random

import pytest

from okplanar.drawing import (
    ChordSet,
    crossing_report,
    identity_drawing,
    is_closed_drawing,
    make_drawing,
)
from okplanar.generators import (
    SplitMix64,
    complete,
    complete_bipartite,
    grid,
    planar_3tree_levels,
    random_outer_k_planar,
)

from oracles import grid_snake_order, in_class


def test_basic_counts():
    assert complete(5).m == 10
    assert complete_bipartite(4, 4).m == 16
    assert grid(3, 3).m == 12
    assert complete(0).n == 0
    assert complete_bipartite(0, 3).m == 0


@pytest.mark.parametrize("make, sizes", [
    (grid, (-1, -3)), (grid, (2, -1)), (complete_bipartite, (-1, 2)), (complete_bipartite, (3, -1)),
])
def test_negative_sizes_are_rejected(make, sizes):
    with pytest.raises(ValueError, match="nonnegative"):
        make(*sizes)


def test_random_streams_and_drawings_refuse_bad_arguments():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(0).randrange(0)
    for n, k in ((0, 1), (5, -1)):
        with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
            random_outer_k_planar(n, k, 0)


def test_grid_structure():
    g = grid(2, 3)
    assert g.n == 6
    assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(2, 3)


def test_3tree_sizes():
    for L, (n, m) in enumerate([(4, 6), (7, 15), (16, 42), (43, 123)], start=1):
        g = planar_3tree_levels(L)
        assert (g.n, g.m) == (n, m)
    assert planar_3tree_levels(1).edges == complete(4).edges
    with pytest.raises(ValueError):
        planar_3tree_levels(0)


def test_3tree_new_vertices_have_degree_3():
    g2 = planar_3tree_levels(2)
    for v in range(4, 7):
        assert g2.degree(v) == 3


def test_splitmix_reference_values():
    # published splitmix64 stream for seed 1234567
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


def test_splitmix_shuffle_deterministic():
    a = list(range(10))
    b = list(range(10))
    SplitMix64(99).shuffle(a)
    SplitMix64(99).shuffle(b)
    assert a == b
    SplitMix64(100).shuffle(b)
    assert a != b


def test_random_k0_is_maximal_outerplanar():
    for n in range(3, 12):
        d = random_outer_k_planar(n, 0, seed=5)
        assert d.graph.m == 2 * n - 3
        assert crossing_report(d).max_per_edge == 0


def test_random_k1_n4_is_k4():
    d = random_outer_k_planar(4, 1, seed=0)
    assert d.graph.m == 6


def test_random_deterministic():
    d1 = random_outer_k_planar(20, 2, seed=42)
    d2 = random_outer_k_planar(20, 2, seed=42)
    assert d1.graph.edges == d2.graph.edges and d1.order == d2.order
    d3 = random_outer_k_planar(20, 2, seed=43)
    assert d3.graph.edges != d1.graph.edges or d3.order != d1.order


def test_random_certified_membership():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randrange(3, 30)
        k = rng.randrange(0, 5)
        seed = rng.randrange(10**6)
        d = random_outer_k_planar(n, k, seed)
        assert in_class(d, k, "outer-planar")


def test_random_saturated():
    # every absent chord would push some edge past k
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randrange(5, 14)
        k = rng.randrange(0, 4)
        d = random_outer_k_planar(n, k, rng.randrange(10**6))
        present = set(d.graph.edges)
        cs = ChordSet(n)
        at_cap = 0
        for u, v in d.graph.edges:
            p, q = sorted((d.pos[u], d.pos[v]))
            idx, _ = cs.add(p, q)
        for idx in range(cs.m):
            if cs.counts[idx] >= k:
                assert cs.counts[idx] == k
                at_cap |= 1 << idx
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in present:
                    continue
                cm = cs.crossers(min(d.pos[u], d.pos[v]), max(d.pos[u], d.pos[v]))
                assert cm.bit_count() > k or (cm & at_cap)


def test_grid_snake_order_quasi():
    for r in range(1, 6):
        for c in range(1, 6):
            g = grid(r, c)
            order = grid_snake_order(r, c)
            d = make_drawing(g, order)
            assert crossing_report(d).max_mutual <= 2
            if r >= 2 and c >= 2 and (r * c) % 2 == 0:
                assert is_closed_drawing(d)


def test_grid_snake_order_is_permutation():
    for r, c in [(1, 7), (4, 5), (5, 4), (3, 3), (5, 5), (2, 2)]:
        assert sorted(grid_snake_order(r, c)) == list(range(r * c))
