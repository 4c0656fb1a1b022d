"""Crossing predicate, crossing reports, class checkers, ChordSet."""
from __future__ import annotations

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

import okplanar
from okplanar import sat
from okplanar.cli import main
from okplanar.drawing import (
    VARIANTS,
    ChordSet,
    crossing_report,
    drawing_chords,
    drawing_svg,
    edges_cross,
    identity_drawing,
    is_closed_drawing,
    make_drawing,
    resolve_class,
)
from okplanar.graphs import build_graph
from okplanar.io import format_drawing
from okplanar.maximal import build_levels, find_long_edge, frame_edges, maximal_edge_count
from okplanar.mso2 import emit_formula
from okplanar.recognition import brute_force_recognize, refute

from oracles import crossing_graph, in_class


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


def max_clique_bitset(adj: list[int]) -> tuple[int, int]:
    """Maximum clique of a graph given as per-vertex neighbor bitmasks.

    Test oracle for the polynomial max-mutual search. Returns (size, vertex
    mask). Branch and bound: candidates are greedily colored, color classes
    bound the achievable clique size, branching runs from the highest color
    down so the bound prunes whole suffixes.
    """
    best_size, best_mask = 0, 0

    def color_order(cand: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(adj[v] | bit)
                rest &= ~bit
                out.append((v, color))
        return out

    def expand(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur_mask
            return
        for v, c in reversed(color_order(cand)):
            if cur_size + c <= best_size:
                return
            bit = 1 << v
            expand(cand & adj[v], cur_mask | bit, cur_size + 1)
            cand &= ~bit

    expand((1 << len(adj)) - 1, 0, 0)
    return best_size, best_mask


def max_mutual_exhaustive(d) -> int:
    """Largest pairwise-crossing set by subset enumeration. Oracle, m <= 16."""
    edges = d.graph.edges
    m = len(edges)
    if m > 16:
        raise ValueError("exhaustive oracle limited to m <= 16")
    # the scalar test, so the oracle shares no code with crossing_report
    crosses = {frozenset(p) for p in combinations(edges, 2) if edges_cross(d, *p)}
    best = 0
    for mask in range(1 << m):
        members = [edges[i] for i in range(m) if mask >> i & 1]
        if len(members) <= best:
            continue
        if all(frozenset(p) in crosses for p in combinations(members, 2)):
            best = len(members)
    return best


def scalar_crossing_graph(d):
    """Crossing graph as per-edge neighbor masks, from the scalar test alone."""
    edges = d.graph.edges
    adj = [0] * len(edges)
    for i, j in combinations(range(len(edges)), 2):
        if edges_cross(d, edges[i], edges[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def test_only_drawing_calls_the_scalar_crossing_test():
    # the other modules ask the chord kernel; edges_cross stays its scalar
    # reference
    callers = []
    for path in sorted(Path(okplanar.__file__).parent.glob("*.py")):
        if path.name == "drawing.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "edges_cross":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


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
        graph = crossing_graph(cs)
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


def test_max_mutual_vs_clique_oracle():
    # beyond the exhaustive oracle's m <= 16: sparse and dense drawings up to
    # n = 45 against branch and bound on the scalar crossing graph, for the
    # whole drawing and for the crossers of random chords
    rng = random.Random(83)
    walks = set()  # (p > q, short side is the outside arc) of every query
    for trial in range(60):
        n = rng.randrange(8, 46)
        density = rng.choice((0.05, 0.1, 0.2, 0.3))
        d = random_drawing(rng, n, int(density * n * (n - 1) / 2))
        adj = scalar_crossing_graph(d)
        assert crossing_report(d).max_mutual == max_clique_bitset(adj)[0], trial
        cs = drawing_chords(d)
        for _ in range(5):
            p, q = rng.sample(range(n), 2)
            cm = cs.crossers(p, q)
            members = [i for i in range(len(adj)) if cm >> i & 1]
            sub = [
                sum(1 << b for b, j in enumerate(members) if adj[i] >> j & 1)
                for i in members
            ]
            best = max_clique_bitset(sub)[0]
            walks.add((p > q, 2 * abs(q - p) > n))
            for need in range(best + 2):
                for a, b in ((p, q), (q, p)):
                    assert cs.mutual_through(a, b, cm, need) == (need <= best), (trial, a, b, need)
            assert cs.mutual_through(p, q, cm, -1)
            assert not cs.mutual_through(p, q, cm, cm.bit_count() + 1)
    assert walks == {(False, False), (False, True), (True, False), (True, True)}


def test_mutual_through_walks_either_side():
    # on 12 positions (1, 9) has the short outside arc 10, 11, 0, where
    # (3, 10), (5, 11), (0, 7) leave as three pairwise crossing chords;
    # (4, 8) has the short inside arc 5, 6, 7, where (5, 10), (6, 11), (0, 7)
    # leave pairwise crossing; (3, 6) is crossed by three chords, no two of
    # which cross, and (0, 1) by none
    cs = ChordSet.of(12, [(3, 10), (5, 11), (0, 7), (5, 10), (6, 11), (1, 9), (2, 4)])
    everyone = (1 << cs.m) - 1
    for p, q, best in ((1, 9, 3), (4, 8, 3), (3, 6, 1), (0, 1, 0)):
        for a, b in ((p, q), (q, p)):
            for need in range(-1, best + 3):
                assert cs.mutual_through(a, b, everyone, need) == (need <= best), (a, b, need)
    without = everyone & ~(1 << 2)  # every triangle above holds (0, 7)
    assert cs.mutual_through(1, 9, without, 2) and not cs.mutual_through(1, 9, without, 3)


def test_witness_is_greatest_largest_family():
    # among all largest pairwise-crossing edge sets, the witness is the one
    # whose edge-index mask is greatest (highest-index edge compared first)
    rng = random.Random(89)
    for _ in range(300):
        d = random_drawing(rng, rng.randrange(4, 11), rng.randrange(1, 15))
        adj = scalar_crossing_graph(d)
        m = len(adj)
        clique = [True] * (1 << m)
        best = (0, 0)
        for mask in range(1, 1 << m):
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            clique[mask] = clique[rest] and adj[top] & rest == rest
            if clique[mask]:
                best = max(best, (mask.bit_count(), mask))
        rep = crossing_report(d)
        index = {e: i for i, e in enumerate(d.graph.edges)}
        assert rep.max_mutual == best[0]
        assert sum(1 << index[e] for e in rep.witness_mutual) == best[1], d


def test_outer_k_planar_checker():
    assert in_class(identity_drawing(complete(4)), 1, "outer-planar")
    assert not in_class(identity_drawing(complete(5)), 1, "outer-planar")
    assert in_class(identity_drawing(cycle(7)), 0, "outer-planar")
    with pytest.raises(ValueError):
        in_class(identity_drawing(cycle(4)), -1, "outer-planar")


def test_outer_k_quasi_checker():
    assert in_class(identity_drawing(complete(5)), 3, "outer-quasi")
    assert not in_class(identity_drawing(complete(6)), 3, "outer-quasi")
    assert in_class(identity_drawing(build_graph(2, [(0, 1)])), 2, "outer-quasi")
    with pytest.raises(ValueError):
        in_class(identity_drawing(cycle(4)), 1, "outer-quasi")


def test_closed_checker():
    assert is_closed_drawing(identity_drawing(cycle(5)))
    assert not is_closed_drawing(make_drawing(cycle(5), [0, 2, 4, 1, 3]))
    assert is_closed_drawing(make_drawing(complete(4), [2, 0, 3, 1]))
    with pytest.raises(ValueError):
        is_closed_drawing(identity_drawing(build_graph(2, [(0, 1)])))


def refuses(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("k", range(-1, 4))
@pytest.mark.parametrize("variant", [*VARIANTS, "nope"])
def test_every_layer_refuses_what_resolve_class_refuses(variant, k, tmp_path, capsys):
    want = refuses(lambda: resolve_class(variant, k))
    quasi = refuses(lambda: resolve_class("outer-quasi", k))
    k4 = complete(4)
    for call in (lambda: refute(k4, k, variant), lambda: brute_force_recognize(k4, k, variant),
                 lambda: sat.encode(k4, k, variant), lambda: sat.recognize(k4, k, variant)):
        assert refuses(call) == want
    if VARIANTS.get(variant, "closed").startswith("closed"):  # "nope" too
        assert refuses(lambda: emit_formula(k, variant)) == want
    # the 6-cycle plus chord (0, 3), which has two vertices on each side
    d = identity_drawing(build_graph(6, [*cycle(6).edges, (0, 3)]))
    for call in (lambda: maximal_edge_count(6, k), lambda: frame_edges(6, k),
                 lambda: find_long_edge(d, k), lambda: build_levels(d, (0, 3), k)):
        assert refuses(call) == quasi
    path = tmp_path / "c6-chord.txt"
    path.write_text(format_drawing(d))
    for argv, refused in [
        (["check", str(path), "--k", str(k), "--variant", variant], want),
        (["recognize", str(path), "--k", str(k), "--variant", variant], want),
        (["mso2", "--k", str(k), "--variant", variant], want),
        (["levels", str(path), "--k", str(k)], quasi),
        (["saturate", "--n", "6", "--k", str(k)], quasi),
    ]:
        assert (main(argv) == 1) == refused, argv
        capsys.readouterr()


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
