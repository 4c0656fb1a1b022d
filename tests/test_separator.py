"""Balanced separator: case coverage, invariants, and a small-n oracle."""
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from okplanar.drawing import crossing_report, make_drawing
from okplanar.generators import grid, random_outer_k_planar
from okplanar.graphs import build_graph
from okplanar.separator import (
    Separation,
    balanced_separator,
    check_separation,
    recursive_decompose,
)
from oracles import grid_snake_order, induced_drawing


def cycle_plus(n, extra=()):
    edges = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    return make_drawing(build_graph(n, edges), range(n))


def assert_valid(d, sep):
    k = crossing_report(d).max_per_edge
    err = check_separation(d, k, sep)
    assert err is None, f"{sep.case_tag}: {err}"


def assert_separates(g, sep):
    """BFS oracle: with S removed, nothing in B - A is reachable from A - B."""
    s = sep.separator
    seen = set()
    stack = list(sep.a_side - sep.b_side)
    while stack:
        u = stack.pop()
        if u in seen or u in s:
            continue
        seen.add(u)
        stack.extend(g.adj[u])
    assert not (seen & (sep.b_side - sep.a_side)), sep.case_tag


def halving_chords_drawing(rng):
    """C_n plus 1-3 chords that cross the halving line (0, n//2).

    Each chord is drawn from the chords crossing the line, narrowed (most of
    the time) to those that share an end with an earlier chord and to those
    whose cut misses the cutting-edge window, then to the ones that hug the
    a side or the b side, picked by a coin. Uniform chords would make nearly
    every draw a cutting edge or a vacuous mutual crossing.
    """
    n = rng.randrange(5, 12) if rng.random() < 0.1 else rng.randrange(12, 40)
    h = n // 2
    lo_w, hi_w = -(-n // 3), min(2 * n // 3, n - 3)
    chords = []
    for _ in range(rng.randrange(1, 4)):
        cands = [(x, y) for x in range(1, h) for y in range(h + 1, n) if (x, y) not in chords]
        if chords and rng.random() < 0.7:
            ends = {e for c in chords for e in c}
            cands = [c for c in cands if c[0] in ends or c[1] in ends] or cands
        if rng.random() < 0.9:
            cands = [c for c in cands
                     if not any(lo_w <= s <= hi_w for s in (c[1] - c[0] - 1, n - 1 - c[1] + c[0]))
                     ] or cands
        hugs_b = rng.random() < 0.5
        cands = [c for c in cands if (2 * (c[1] - c[0] - 1) < n - 2) == hugs_b] or cands
        if cands:
            chords.append(rng.choice(cands))
    return cycle_plus(n, chords)


# hand-built drawings driving each branch of the case analysis
CASE_FIXTURES = [
    ("cutting-edge", 12, [(0, 6)]),
    ("mutually-crossing", 18, [(1, 16), (2, 17)]),
    ("single-crossing-edge", 24, [(8, 13), (9, 14), (10, 14)]),
    ("case1", 18, [(1, 17), (2, 16)]),
    ("case1'", 18, [(8, 10), (7, 11)]),
    ("case2-distinct", 18, [(1, 17), (8, 10)]),
    ("case2-shared", 36, [(9, 35), (9, 19)]),
]


@pytest.mark.parametrize("tag,n,extra", CASE_FIXTURES)
def test_case_fixture(tag, n, extra):
    d = cycle_plus(n, extra)
    sep = balanced_separator(d)
    assert sep.case_tag == tag
    assert_valid(d, sep)


# drawings whose separator holds an end of a crossing edge; either end
# would satisfy the invariants, so which one is covered is pinned here
COVER_FIXTURES = [
    ("cutting-edge", 6, [(1, 4), (2, 4), (2, 5)], [1, 2, 4]),
    ("mutually-crossing", 10, [(1, 9)], [0, 5, 9]),
    ("single-crossing-edge", 17, [(1, 15), (2, 16), (3, 16)], [0, 8, 15, 16]),
    ("case1", 22, [(1, 17), (1, 21), (2, 21)], [1, 11, 21]),
    ("case1'", 25, [(6, 13), (8, 14), (11, 13)], [0, 8, 13]),
    ("case2-distinct", 16, [(3, 15), (6, 10), (7, 11)], [3, 7, 10]),
]


@pytest.mark.parametrize("tag,n,extra,separator", COVER_FIXTURES)
def test_covered_ends_are_pinned(tag, n, extra, separator):
    d = cycle_plus(n, extra)
    sep = balanced_separator(d)
    assert (sep.case_tag, sorted(sep.separator)) == (tag, separator)
    assert_valid(d, sep)


def test_case1_prime_takes_the_line_that_balances():
    # intervals 8 and 14 sit one below and one above the window [9, 13];
    # the window rule prefers the line a-a_r, whose far side has 19 > 18
    # vertices, so the line a_r'-a is taken
    d = cycle_plus(27, [(7, 14), (12, 14)])
    sep = balanced_separator(d)
    assert sep.case_tag == "case1'"
    assert sep.witness["intervals"] == [8, 14] and sep.witness["line"] == [14, 0]
    assert_valid(d, sep)


def test_trivial_small():
    g = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    sep = balanced_separator(make_drawing(g, range(4)))
    assert sep.case_tag == "trivial-small"
    assert sep.a_side == sep.b_side == sep.separator == frozenset(range(4))


def test_single_line_crosser_is_vacuously_mutual():
    sep = balanced_separator(cycle_plus(18, [(1, 16)]))
    assert sep.case_tag == "mutually-crossing"


def test_cycle_nine_example():
    d = cycle_plus(9)
    sep = balanced_separator(d)
    assert len(sep.separator) <= 3
    assert len(sep.a_side - sep.b_side) <= 6
    assert len(sep.b_side - sep.a_side) <= 6
    assert_valid(d, sep)


def test_case2_shared_meets_bound_exactly():
    # k = 0 drawing whose separator uses all 2k+3 = 3 vertices
    d = cycle_plus(36, [(9, 35), (9, 19)])
    assert crossing_report(d).max_per_edge == 0
    sep = balanced_separator(d)
    assert sep.separator == frozenset({9, 19, 35})


def test_separator_really_separates():
    for seed in range(12):
        d = random_outer_k_planar(20, 2, seed=seed)
        assert_separates(d.graph, balanced_separator(d))


def test_check_separation_rejects_each_broken_invariant():
    # each mutation keeps the invariants checked before the one it breaks
    d = cycle_plus(12, [(0, 6)])
    sep = balanced_separator(d)
    a, b, s = sep.a_side, sep.b_side, sep.separator
    assert (sorted(a - b), sorted(b - a), sorted(s)) == ([1, 2, 3, 4, 5], [7, 8, 9, 10, 11], [0, 6])
    grown = s | {2, 3, 8, 9}
    mutations = [
        (replace(sep, a_side=a - {3}), "A and B do not cover all vertices"),
        (replace(sep, separator=s - {6}), "separator is not the intersection of the sides"),
        (replace(sep, a_side=a | grown, b_side=b | grown, separator=grown),
         "separator has 6 > 2k+3 = 3 vertices"),
        (replace(sep, a_side=frozenset(range(12)) - {9}, b_side=s | {9}),
         "exclusive sides 9/1 exceed ceil(2n/3) = 8"),
        (replace(sep, b_side=b - {6}, separator=s - {6}),
         "edge (6, 7) joins the two exclusive sides"),
    ]
    assert check_separation(d, 0, sep) is None
    assert [check_separation(d, 0, bad) for bad, _ in mutations] == [msg for _, msg in mutations]


def test_witness_mentions_scan_vertices():
    d = cycle_plus(18, [(1, 17), (8, 10)])
    sep = balanced_separator(d)
    for key in ("a", "b", "b_l", "b_l2", "a_r", "a_r2"):
        assert key in sep.witness


def test_random_corpus_invariants():
    rng = random.Random(4021)
    tags = set()
    for _ in range(60):
        n = rng.randrange(6, 36)
        k = rng.randrange(0, 5)
        d = random_outer_k_planar(n, k, seed=rng.randrange(1 << 30))
        sep = balanced_separator(d)
        assert_valid(d, sep)
        tags.add(sep.case_tag)
    assert "cutting-edge" in tags  # the corpus should not be degenerate


def test_restriction_never_raises_crossings():
    rng = random.Random(977)
    for _ in range(20):
        n = rng.randrange(8, 28)
        d = random_outer_k_planar(n, 3, seed=rng.randrange(1 << 30))
        parent_k = crossing_report(d).max_per_edge
        sep = balanced_separator(d)
        for side in (sep.a_side, sep.b_side):
            if len(side) < 2:
                continue
            child, _ = induced_drawing(d, side)
            assert crossing_report(child).max_per_edge <= parent_k


def test_separator_of_induced_vertex_sets():
    rng = random.Random(6029)
    for _ in range(40):
        n = rng.randrange(1, 40)
        d = random_outer_k_planar(n, rng.randrange(0, 4), seed=rng.randrange(1 << 30))
        subsets = [[], [rng.randrange(n)], list(range(n))]
        subsets += [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(4)]
        for vertices in subsets:
            assert_valid_induced(d, vertices, balanced_separator(d, vertices))
        assert balanced_separator(d, range(d.n)) == balanced_separator(d)


@pytest.mark.parametrize("vertices", [[0, -1], [0, 5], [7]])
def test_separator_rejects_vertices_outside_the_drawing(vertices):
    with pytest.raises(ValueError):
        balanced_separator(cycle_plus(5), vertices)


def test_sixty_vertex_runs():
    for seed in range(20):
        d = random_outer_k_planar(60, 2, seed=seed)
        k = crossing_report(d).max_per_edge
        sep = balanced_separator(d)
        assert len(sep.separator) <= 2 * k + 3 <= 7
        assert len(sep.a_side - sep.b_side) <= 40
        assert len(sep.b_side - sep.a_side) <= 40


def _components(g, banned):
    seen, out = set(banned), []
    for s in range(g.n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def optimum_separator_size(g):
    """Smallest S admitting a valid separation with sides <= ceil(2n/3)."""
    n = g.n
    bound = -(-2 * n // 3)
    for size in range(n + 1):
        for cand in combinations(range(n), size):
            sizes = [len(c) for c in _components(g, cand)]
            total = sum(sizes)
            reach = {0}
            for x in sizes:
                reach |= {r + x for r in reach}
            if any(total - bound <= r <= bound for r in reach):
                return size
    return n


def test_small_n_against_exhaustive_optimum():
    rng = random.Random(515)
    for _ in range(12):
        n = rng.randrange(5, 11)
        k = rng.randrange(0, 3)
        d = random_outer_k_planar(n, k, seed=rng.randrange(1 << 30))
        actual_k = crossing_report(d).max_per_edge
        sep = balanced_separator(d)
        size = len(sep.separator)
        best = optimum_separator_size(d.graph)
        assert best <= size <= 2 * actual_k + 3


def _local(sep, old_ids):
    """The separation in the ids of a sub-drawing whose vertex i is old_ids[i]."""
    new = {v: i for i, v in enumerate(old_ids)}
    to = lambda side: frozenset(new[v] for v in side)
    return Separation(to(sep.a_side), to(sep.b_side), to(sep.separator), sep.case_tag,
                      sep.witness, sep.k)


def assert_valid_induced(d, vertices, sep):
    """sep is a valid separation of the sub-drawing of d induced by vertices."""
    sub, old = induced_drawing(d, vertices)
    k = crossing_report(sub).max_per_edge
    err = check_separation(sub, k, _local(sep, old))
    assert err is None, f"{sep.case_tag}: {err}"


def _walk(d, node):
    """Check every node as a separation of its own induced sub-drawing."""
    assert node.vertices == induced_drawing(d, node.vertices)[1]  # boundary order
    assert node.n == len(node.vertices)
    if node.separation is not None:
        assert_valid_induced(d, node.vertices, node.separation)
    if node.children:
        sides = (node.separation.a_side, node.separation.b_side)
        for side, child in zip(sides, node.children):
            assert child.vertices == sorted(side, key=d.pos.__getitem__)
            _walk(d, child)
    else:
        assert node.leaf_reason is not None


def test_decompose_cycle_nine():
    d = cycle_plus(9)
    tree = recursive_decompose(d, 3)
    assert tree.depth() <= 3
    _walk(d, tree)

    def leaves(t):
        return [t] if not t.children else [x for c in t.children for x in leaves(c)]

    for leaf in leaves(tree):
        assert leaf.n <= 3 and leaf.leaf_reason == "size"


def test_decompose_single_leaf():
    d = cycle_plus(5)
    tree = recursive_decompose(d, 8)
    assert not tree.children and tree.leaf_reason == "size"
    assert tree.vertices == [0, 1, 2, 3, 4]


def test_decompose_grid_hamiltonian():
    g = grid(4, 4)
    d = make_drawing(g, grid_snake_order(4, 4))
    tree = recursive_decompose(d, 4)
    _walk(d, tree)


def test_decompose_rejects_bad_leaf_size():
    with pytest.raises(ValueError):
        recursive_decompose(cycle_plus(5), 0)


def test_tree_report_is_json_ready():
    d = cycle_plus(12, [(0, 6)])
    tree = recursive_decompose(d, 4)
    blob = json.dumps(tree.to_dict(), sort_keys=True)
    assert '"cutting-edge"' in blob
    # root witness speaks in original vertex ids
    assert json.loads(blob)["witness"]["edge"] == [0, 6]


def test_vertex_translation_in_nested_reports():
    # the root split of C_18 + chords puts vertex 17 in a child whose local
    # ids differ; the report must still name original vertices
    d = cycle_plus(18, [(1, 17), (2, 16)])
    tree = recursive_decompose(d, 5)
    seen_ids = set()

    def visit(nd):
        seen_ids.update(nd.get("vertices", []))
        for c in nd.get("children", []):
            visit(c)

    visit(tree.to_dict())
    assert seen_ids == set(range(18))


def _tags(node, out):
    if node.separation is not None:
        out[node.separation.case_tag] += 1
    for c in node.children:
        _tags(c, out)
    return out


def test_halving_line_corpus_reaches_every_case():
    rng = random.Random(2024)
    roots, nodes = Counter(), Counter()
    for _ in range(1000):
        d = halving_chords_drawing(rng)
        sep = balanced_separator(d)
        assert_valid(d, sep)
        assert_separates(d.graph, sep)
        roots[sep.case_tag] += 1
        tree = recursive_decompose(d, 3)
        _walk(d, tree)
        _tags(tree, nodes)
    # C_n plus a few chords reaches trivial-small only in sub-drawings
    for tag in ("cutting-edge", "mutually-crossing", "single-crossing-edge", "case1",
                "case1'", "case2-shared", "case2-distinct"):
        assert roots[tag] >= 5, (tag, roots)
    assert nodes["trivial-small"] >= 5, nodes
