"""Crossing predicate, crossing reports, class checkers, ChordSet."""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from okplanar.drawing import (
    ChordSet,
    crossing_report,
    drawing_chords,
    drawing_svg,
    edges_cross,
    identity_drawing,
    is_closed_drawing,
    is_outer_k_planar_drawing,
    is_outer_k_quasi_planar_drawing,
    make_drawing,
    max_clique_bitset,
    max_mutual_exhaustive,
)
from okplanar.graphs import build_graph


def complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_drawing(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, k=min(m, len(pairs)))
    order = list(range(n))
    rng.shuffle(order)
    return make_drawing(build_graph(n, edges), order)


def test_cross_basic():
    d = identity_drawing(build_graph(4, [(0, 2), (1, 3), (0, 1), (2, 3), (0, 3)]))
    assert edges_cross(d, (0, 2), (1, 3))
    assert not edges_cross(d, (0, 1), (2, 3))
    assert not edges_cross(d, (0, 2), (0, 3))


def test_cross_rejects_non_edges():
    d = identity_drawing(build_graph(4, [(0, 2), (1, 3)]))
    with pytest.raises(ValueError):
        edges_cross(d, (0, 2), (0, 1))


def test_cross_symmetric():
    # shuffled orders give edges whose clockwise arc from the lower vertex id
    # wraps past position 0; every bit of the kernel's crosser masks, read
    # from either arc of the chord, must equal the scalar test
    rng = random.Random(11)
    wrapped = 0
    for _ in range(40):
        d = random_drawing(rng, rng.randrange(4, 9), 10)
        edges = d.graph.edges
        cs = drawing_chords(d)
        graph = cs.crossing_graph()
        for i, e in enumerate(edges):
            p, q = d.pos[e[0]], d.pos[e[1]]
            wrapped += p > q
            masks = (graph[i], cs.crossers(p, q), cs.crossers(q, p))
            for j, f in enumerate(edges):
                crosses = e != f and edges_cross(d, e, f)
                if e != f:
                    assert crosses == edges_cross(d, f, e)
                assert all(bool(cm >> j & 1) == crosses for cm in masks), (d, e, f)
            assert cs.counts[i] == sum(
                edges_cross(d, e, f) for f in edges if f != e
            )
    assert wrapped > 0


def test_report_k4():
    rep = crossing_report(identity_drawing(complete(4)))
    assert rep.max_per_edge == 1
    assert rep.max_mutual == 2
    assert set(rep.witness_mutual) == {(0, 2), (1, 3)}


def test_report_k5_any_order():
    import itertools

    for tail in itertools.permutations(range(1, 5)):
        d = make_drawing(complete(5), (0,) + tail)
        rep = crossing_report(d)
        assert rep.max_per_edge == 2
        assert rep.max_mutual == 2


def test_report_c6():
    rep = crossing_report(identity_drawing(cycle(6)))
    assert rep.max_per_edge == 0
    assert rep.max_mutual == 1


def test_report_empty_graph():
    rep = crossing_report(identity_drawing(build_graph(4, [])))
    assert rep.max_per_edge == 0 and rep.max_mutual == 0


def test_rotation_reflection_invariance():
    rng = random.Random(23)
    for _ in range(25):
        d = random_drawing(rng, rng.randrange(4, 9), 9)
        base = crossing_report(d)
        n = d.n
        rot = make_drawing(d.graph, [d.order[(i + 1) % n] for i in range(n)])
        ref = make_drawing(d.graph, list(reversed(d.order)))
        for other in (rot, ref):
            rep = crossing_report(other)
            assert rep.per_edge == base.per_edge
            assert rep.max_mutual == base.max_mutual


def test_count_sum_matches_pairs():
    rng = random.Random(31)
    for _ in range(30):
        d = random_drawing(rng, rng.randrange(3, 10), 12)
        rep = crossing_report(d)
        pairs = combinations(d.graph.edges, 2)
        assert sum(rep.per_edge.values()) == 2 * sum(edges_cross(d, *p) for p in pairs)


def test_complete_graph_counts_formula():
    # chord with l vertices strictly on one side is crossed l*(n-2-l) times
    for n in range(3, 9):
        rep = crossing_report(identity_drawing(complete(n)))
        for (a, b), cnt in rep.per_edge.items():
            l = b - a - 1
            assert cnt == l * (n - 2 - l)


def test_complete_graph_max_mutual():
    for n in range(3, 9):
        rep = crossing_report(identity_drawing(complete(n)))
        assert rep.max_mutual == max(n // 2, 1)


def test_witness_pairwise_crosses():
    rng = random.Random(47)
    for _ in range(25):
        d = random_drawing(rng, rng.randrange(5, 10), 14)
        rep = crossing_report(d)
        w = rep.witness_mutual
        assert len(w) == rep.max_mutual
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert edges_cross(d, w[i], w[j])


def test_clique_vs_exhaustive():
    rng = random.Random(59)
    for _ in range(40):
        d = random_drawing(rng, rng.randrange(4, 10), 16)
        if d.graph.m > 16:
            continue
        assert crossing_report(d).max_mutual == max_mutual_exhaustive(d)


def test_max_clique_empty():
    assert max_clique_bitset([]) == (0, 0)
    size, mask = max_clique_bitset([0, 0])
    assert size == 1 and mask.bit_count() == 1


def test_outer_k_planar_checker():
    assert is_outer_k_planar_drawing(identity_drawing(complete(4)), 1)
    assert not is_outer_k_planar_drawing(identity_drawing(complete(5)), 1)
    assert is_outer_k_planar_drawing(identity_drawing(cycle(7)), 0)
    with pytest.raises(ValueError):
        is_outer_k_planar_drawing(identity_drawing(cycle(4)), -1)


def test_outer_k_quasi_checker():
    assert is_outer_k_quasi_planar_drawing(identity_drawing(complete(5)), 3)
    assert not is_outer_k_quasi_planar_drawing(identity_drawing(complete(6)), 3)
    assert is_outer_k_quasi_planar_drawing(identity_drawing(build_graph(2, [(0, 1)])), 2)
    with pytest.raises(ValueError):
        is_outer_k_quasi_planar_drawing(identity_drawing(cycle(4)), 1)


def test_closed_checker():
    assert is_closed_drawing(identity_drawing(cycle(5)))
    assert not is_closed_drawing(make_drawing(cycle(5), [0, 2, 4, 1, 3]))
    assert is_closed_drawing(make_drawing(complete(4), [2, 0, 3, 1]))
    with pytest.raises(ValueError):
        is_closed_drawing(identity_drawing(build_graph(2, [(0, 1)])))


def test_make_drawing_rejects_non_permutation():
    g = cycle(4)
    with pytest.raises(ValueError):
        make_drawing(g, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        make_drawing(g, [0, 1, 2])


def test_chordset_matches_report():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randrange(4, 12)
        d = random_drawing(rng, n, 2 * n)
        # identity-position chord set fed with position pairs
        cs = ChordSet(n)
        chords = []
        for u, v in d.graph.edges:
            p, q = sorted((d.pos[u], d.pos[v]))
            chords.append((p, q))
        order = list(range(len(chords)))
        rng.shuffle(order)
        for i in order:
            cs.add(*chords[i])
        rep = crossing_report(d)
        for idx, (p, q) in enumerate(cs.chords):
            u, v = d.order[p], d.order[q]
            e = (min(u, v), max(u, v))
            assert cs.counts[idx] == rep.per_edge[e]


def test_chordset_crossers_mask():
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randrange(4, 10)
        cs = ChordSet(n)
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
        rng.shuffle(pairs)
        added = []
        for p, q in pairs[: rng.randrange(1, len(pairs))]:
            cm = cs.crossers(p, q)
            expect = 0
            for i, (a, b) in enumerate(added):
                if len({a, b, p, q}) == 4 and ((p < a < q) != (p < b < q)):
                    expect |= 1 << i
            assert cm == expect
            cs.add(p, q)
            added.append((p, q))


def test_svg_smoke():
    svg = drawing_svg(identity_drawing(complete(4)))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<line") == 6
