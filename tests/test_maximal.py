"""Saturation, frame edges, hierarchical levels, and the replacement split."""

import json
import math
import random
from dataclasses import replace

import pytest

from okplanar.drawing import (
    ChordSet,
    crossing_report,
    drawing_chords,
    edges_cross,
    identity_drawing,
    make_drawing,
    positions_interleave,
)
from okplanar.generators import grid, random_outer_k_planar
from okplanar.graphs import build_graph
from okplanar.maximal import (
    LevelDecomposition,
    QuasiPlanarityError,
    build_levels,
    find_long_edge,
    frame_edges,
    is_maximal,
    levels_svg,
    maximal_edge_count,
    replacement_split,
    saturate,
    verify_level_properties,
)

from oracles import grid_snake_order, scan_is_maximal
from test_drawing import max_clique_bitset, scalar_crossing_graph


def complete_drawing(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return identity_drawing(build_graph(n, edges))


def cycle_drawing(n):
    return identity_drawing(build_graph(n, [(i, (i + 1) % n) for i in range(n)]))


# Ten boundary vertices around a long chord (0, 5), with the crossing edges
# falling into two levels: a seven-edge tree touching every vertex on both
# sides and a five-edge tree one step further down.
LEVEL_ONE = [(1, 9), (1, 8), (2, 8), (2, 7), (2, 6), (3, 6), (4, 6)]
LEVEL_TWO = [(2, 9), (3, 9), (3, 8), (4, 8), (4, 7)]


def two_level_fixture():
    return identity_drawing(build_graph(10, [(0, 5)] + LEVEL_ONE + LEVEL_TWO))


def long_edges(d, k):
    """Edges with at least k-1 vertices strictly on each side."""
    out = []
    for u, v in d.graph.edges:
        inside = abs(d.pos[u] - d.pos[v]) - 1
        if inside >= k - 1 and d.n - 2 - inside >= k - 1:
            out.append((u, v))
    return out


def reordered(ld, perm):
    """The same levels listed in the order perm."""
    return replace(
        ld,
        levels=tuple(ld.levels[i] for i in perm),
        l_sets=tuple(ld.l_sets[i] for i in perm),
        r_sets=tuple(ld.r_sets[i] for i in perm),
    )


def scalar_levels(d, long_edge, k):
    """build_levels' sweep on the scalar crossing test: (levels, leftover)."""
    a, b = sorted(long_edge)
    pa, n = d.pos[a], d.n
    span = (d.pos[b] - pa) % n
    left = [d.order[(pa + s) % n] for s in range(1, span)]
    right = {d.order[(pa - s) % n]: s for s in range(1, n - span)}
    remaining = {e for e in d.graph.edges if edges_cross(d, e, (a, b))}
    levels = []
    for _ in range(k - 2):
        if not remaining:
            break
        cur = []
        for vj in left:
            mine = sorted(
                (e for e in remaining if vj in e), key=lambda e: right[e[0] + e[1] - vj]
            )
            for e in mine:
                if not any(edges_cross(d, e, f) for f in cur):
                    cur.append(e)
                    remaining.discard(e)
        levels.append(tuple(cur))
    return tuple(levels), tuple(sorted(remaining))


def scalar_witnesses(ld, d):
    """(P1 witness, P2 witness) from the scalar crossing test; P2 searches
    one-edge-per-level tuples downward, memoising the dead ends."""
    on_left = {x: i for i, x in enumerate(ld.left)}
    on_right = {x: i for i, x in enumerate(ld.right)}

    def indices(e):
        x, y = e
        return (on_left[x], on_right[y]) if x in on_left else (on_left[y], on_right[x])

    def p1():
        for y in range(1, ld.t):
            for x in range(y):
                for e in ld.levels[y]:
                    ie, je = indices(e)
                    for f in ld.levels[x]:
                        kf, lf = indices(f)
                        if edges_cross(d, e, f) and not (ie > kf and je < lf):
                            return {"upper": list(e), "lower": list(f), "levels": [y + 1, x + 1]}
        return None

    failed = set()

    def extend_down(j, chosen):
        # one edge from each of levels j..1, pairwise crossing with chosen
        if j == 0:
            return True
        if (j, chosen) in failed:
            return False
        for f in ld.levels[j - 1]:
            if all(edges_cross(d, f, g) for g in chosen):
                if extend_down(j - 1, tuple(sorted(chosen + (f,)))):
                    return True
        failed.add((j, chosen))
        return False

    def p2():
        for i, lvl in enumerate(ld.levels, 1):
            for e in lvl:
                if not extend_down(i - 1, (e,)):
                    return {"edge": list(e), "level": i}
        return None

    return p1(), p2()


def test_maximal_edge_count_examples():
    assert maximal_edge_count(5, 3) == 10
    assert maximal_edge_count(10, 3) == 30
    assert maximal_edge_count(10, 2) == 17
    assert maximal_edge_count(12, 2) == 21
    assert maximal_edge_count(0, 2) == 0


def test_maximal_edge_count_branches_agree_at_boundary():
    for k in range(2, 7):
        n = 2 * k - 1
        assert maximal_edge_count(n, k) == math.comb(n, 2)
        assert 2 * (k - 1) * n - math.comb(2 * k - 1, 2) == math.comb(n, 2)


def test_maximal_edge_count_validates():
    with pytest.raises(ValueError):
        maximal_edge_count(5, 1)
    with pytest.raises(ValueError):
        maximal_edge_count(-1, 3)


def test_frame_edges_counts():
    assert len(frame_edges(10, 3)) == 20
    assert frame_edges(5, 3) == frozenset(
        (i, j) for i in range(5) for j in range(i + 1, 5)
    )
    assert frame_edges(8, 2) == frozenset(
        tuple(sorted((i, (i + 1) % 8))) for i in range(8)
    )
    for n in range(7, 14):
        for k in (2, 3, 4):
            if n >= 2 * k - 1:
                assert len(frame_edges(n, k)) == n * (k - 1)


def test_frame_edges_small_wraparound():
    assert frame_edges(1, 3) == frozenset()
    assert frame_edges(2, 4) == frozenset({(0, 1)})
    with pytest.raises(ValueError):
        frame_edges(0, 2)
    with pytest.raises(ValueError):
        frame_edges(5, 1)


def test_frame_edges_inside_every_saturation():
    for n, k in [(8, 2), (10, 3), (12, 4), (9, 3), (13, 2)]:
        sat = saturate(identity_drawing(build_graph(n, [])), k)
        assert frame_edges(n, k) <= set(sat.graph.edges)


def test_saturate_counts():
    for n, k, want in [(10, 3, 30), (5, 3, 10), (12, 2, 21)]:
        sat = saturate(identity_drawing(build_graph(n, [])), k)
        assert sat.graph.m == want == maximal_edge_count(n, k)
        assert is_maximal(sat, k)
    five = saturate(identity_drawing(build_graph(5, [])), 3)
    assert set(five.graph.edges) == frame_edges(5, 3)  # K_5


def test_saturate_is_idempotent():
    d = random_outer_k_planar(11, 1, seed=42)
    once = saturate(d, 3)
    twice = saturate(once, 3)
    assert once.graph.edges == twice.graph.edges
    assert once.order == twice.order


def test_saturate_keeps_input_edges_and_order():
    d = random_outer_k_planar(10, 0, seed=7)
    sat = saturate(d, 2)
    assert set(d.graph.edges) <= set(sat.graph.edges)
    assert sat.order == d.order


def test_saturate_rejects_out_of_class_input():
    with pytest.raises(QuasiPlanarityError) as err:
        saturate(complete_drawing(6), 3)
    witness = err.value.witness
    assert len(witness) == 3
    d = complete_drawing(6)
    for i in range(3):
        for j in range(i + 1, 3):
            assert edges_cross(d, witness[i], witness[j])


def test_saturation_count_is_start_independent():
    # every run lands exactly on the closed form, whatever the starting
    # drawing and circular order; the acceptance suite runs the wide version
    for n in range(8, 17, 2):
        for k in (2, 3, 4):
            for seed in (1, 2, 3):
                start = random_outer_k_planar(n, k - 2, seed * 991 + n + k)
                sat = saturate(start, k)
                assert sat.graph.m == maximal_edge_count(n, k), (n, k, seed)
                assert is_maximal(sat, k)


def scalar_is_maximal(d, k):
    """No absent chord joins without k pairwise crossing edges, by branch
    and bound on the scalar crossing graph of each one-chord extension."""
    present = set(d.graph.edges)
    for u in range(d.n):
        for v in range(u + 1, d.n):
            if (u, v) not in present:
                more = make_drawing(build_graph(d.n, [*d.graph.edges, (u, v)]), d.order)
                if max_clique_bitset(scalar_crossing_graph(more))[0] < k:
                    return False
    return True


def random_in_class(rng, n, k):
    """A random drawing with no k pairwise crossing edges: the chords of a
    random prefix of all pairs, in random order, each kept unless it would
    complete k pairwise crossing ones on the scalar crossing graph."""
    order = rng.sample(range(n), n)
    pos = {v: i for i, v in enumerate(order)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges, adj = [], []
    for u, v in pairs[: rng.randrange(len(pairs) // 2, len(pairs) + 1)]:
        row = sum(
            1 << i for i, (a, b) in enumerate(edges)
            if len({a, b, u, v}) == 4 and positions_interleave(pos[a], pos[b], pos[u], pos[v])
        )
        through = [i for i in range(len(edges)) if row >> i & 1]
        sub = [sum(1 << b for b, j in enumerate(through) if adj[i] >> j & 1) for i in through]
        if max_clique_bitset(sub)[0] < k - 1:
            bit = 1 << len(edges)
            for i in through:
                adj[i] |= bit
            edges.append((u, v))
            adj.append(row)
    return make_drawing(build_graph(n, edges), order)


def test_is_maximal_matches_scalar_oracle():
    # three kinds of in-class drawing on n <= 11 at k = 2..5: saturated
    # (from an empty or a random start), saturated minus one edge, and
    # random; every saturate output is maximal by the oracle too
    rng = random.Random(97)
    verdicts = []
    for k in range(2, 6):
        for _ in range(6):
            n = rng.randrange(max(4, 2 * k - 2), 12)
            start = make_drawing(build_graph(n, []), rng.sample(range(n), n))
            if rng.random() < 0.5:
                start = random_outer_k_planar(n, k - 2, seed=rng.randrange(1 << 30))
            sat = saturate(start, k)
            cut = rng.choice(sat.graph.edges)
            minus = make_drawing(build_graph(n, [e for e in sat.graph.edges if e != cut]), sat.order)
            for d in (sat, minus, random_in_class(rng, n, k)):
                verdicts.append(scalar_is_maximal(d, k))
                assert is_maximal(d, k) == verdicts[-1], (k, d.order, d.graph.edges)
    assert all(verdicts[0::3])  # every saturate output
    assert {True, False} <= set(verdicts[2::3])  # random drawings reach both


def test_is_maximal_matches_absent_chord_scan():
    # the edge-count certificate against the blocked query on every absent
    # chord, for every chord set on n <= 6 points in identity order
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            d = identity_drawing(build_graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))
            for k in (2, 3, 4):
                assert is_maximal(d, k) == scan_is_maximal(d, k), (n, d.graph.edges, k)


def full_pass_saturate(d, k):
    """saturate's greedy with no early stop: every absent chord is queried
    in saturate's candidate order. Returns the resulting edge tuple."""
    cs, n = drawing_chords(d), d.n
    present = set(cs.chords)
    cands = sorted(
        (min(q - p, n - (q - p)), p, q)
        for p in range(n) for q in range(p + 1, n) if (p, q) not in present
    )
    for _, p, q in cands:
        if not cs.mutual_through(p, q, -1, k - 1):
            cs.add(p, q)
    return build_graph(n, [(d.order[p], d.order[q]) for p, q in cs.chords]).edges


def test_saturate_matches_full_pass_greedy(monkeypatch):
    # stopping at maximal_edge_count leaves the output edge for edge as the
    # full pass makes it, from empty and from random outer (k-2)-planar
    # starts; and saturate asks no query after the one that fills the count
    answers = []
    query = ChordSet.mutual_through

    def recorded(cs, *args):
        answers.append(query(cs, *args))
        return answers[-1]

    monkeypatch.setattr(ChordSet, "mutual_through", recorded)
    rng = random.Random(25)
    for k in range(2, 7):
        for n in (1, 2 * k - 1, 2 * k, 13, 27, 40):
            starts = [
                identity_drawing(build_graph(n, [])),
                make_drawing(build_graph(n, []), rng.sample(range(n), n)),
                random_outer_k_planar(n, k - 2, seed=rng.randrange(1 << 30)),
                random_outer_k_planar(n, max(k - 3, 0), seed=rng.randrange(1 << 30)),
            ]
            for start in starts:
                answers.clear()
                sat = saturate(start, k)
                assert answers[-1:] == ([False] if sat.graph.m > start.graph.m else [])
                assert sat.graph.edges == full_pass_saturate(start, k), (n, k, start.order)
                assert sat.order == start.order


def test_find_long_edge_examples():
    assert find_long_edge(complete_drawing(5), 3) is None
    assert find_long_edge(cycle_drawing(8), 3) is None
    frame10 = identity_drawing(build_graph(10, sorted(frame_edges(10, 3))))
    e = find_long_edge(saturate(frame10, 3), 3)
    assert e is not None
    p, q = sorted(e)
    assert q - p - 1 >= 2 and 10 - 2 - (q - p - 1) >= 2


def test_find_long_edge_dichotomy_on_saturated_drawings():
    # None on a maximal drawing happens only for complete graphs on at most
    # 2k-1 vertices
    for n in range(4, 13):
        for k in (2, 3, 4, 5):
            sat = saturate(identity_drawing(build_graph(n, [])), k)
            e = find_long_edge(sat, k)
            if e is None:
                assert n <= 2 * k - 1
                assert sat.graph.m == math.comb(n, 2)
            else:
                assert n > 2 * k - 1


def test_build_levels_two_level_fixture():
    d = two_level_fixture()
    assert crossing_report(d).max_mutual == 3  # inside the outer 4-quasi class
    ld = build_levels(d, (0, 5), 4)
    assert ld.t == 2
    assert set(ld.levels[0]) == set(LEVEL_ONE)
    assert set(ld.levels[1]) == set(LEVEL_TWO)
    assert ld.left == (1, 2, 3, 4)
    assert ld.right == (9, 8, 7, 6)
    assert ld.l_sets == (frozenset({1, 2, 3, 4}), frozenset({2, 3, 4}))
    assert ld.r_sets == (frozenset({6, 7, 8, 9}), frozenset({7, 8, 9}))
    for lvl, ls, rs in zip(ld.levels, ld.l_sets, ld.r_sets):
        assert len(lvl) == len(ls) + len(rs) - 1  # each level is a tree
    report = verify_level_properties(ld, d)
    assert report["p1"]["pass"] and report["p2"]["pass"]
    assert report["connectivity"]["levels"] == [True, True]


def test_build_levels_no_crossing_edges():
    d = identity_drawing(
        build_graph(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 4)])
    )
    ld = build_levels(d, (0, 4), 3)
    assert ld.t == 0
    assert ld.levels == ()
    report = verify_level_properties(ld, d)
    assert report["p1"]["pass"] and report["p2"]["pass"] and report["pass"]


def test_build_levels_saturated_frame_graph():
    frame12 = identity_drawing(build_graph(12, sorted(frame_edges(12, 3))))
    sat = saturate(frame12, 3)
    e = find_long_edge(sat, 3)
    ld = build_levels(sat, e, 3)
    assert ld.t <= 1


def test_build_levels_rejects_out_of_class():
    with pytest.raises(QuasiPlanarityError) as err:
        build_levels(complete_drawing(6), (0, 3), 3)
    assert err.value.witness == ((2, 5),)


def test_build_levels_validates_arguments():
    d = cycle_drawing(8)
    with pytest.raises(ValueError):
        build_levels(d, (0, 3), 3)  # not an edge
    with pytest.raises(ValueError):
        build_levels(d, (0, 1), 3)  # an edge, but no room on one side
    with pytest.raises(ValueError):
        build_levels(d, (0, 1), 1)


def test_level_invariants_on_saturated_corpus():
    for n, k, seed in [
        (10, 3, 5), (12, 3, 6), (12, 4, 7), (14, 4, 8), (11, 2, 9),
        (13, 3, 10), (15, 4, 11), (16, 5, 12),
    ]:
        sat = saturate(random_outer_k_planar(n, k - 2, seed), k)
        e = find_long_edge(sat, k)
        if e is None:
            continue
        ld = build_levels(sat, e, k)
        assert ld.t <= k - 2
        crossing = {
            f for f in sat.graph.edges if edges_cross(sat, f, tuple(sorted(e)))
        }
        leveled = [f for lvl in ld.levels for f in lvl]
        assert set(leveled) == crossing and len(leveled) == len(crossing)
        for lvl in ld.levels:
            for i in range(len(lvl)):
                for j in range(i + 1, len(lvl)):
                    assert not edges_cross(sat, lvl[i], lvl[j])
        report = verify_level_properties(ld, sat)
        assert report["connectivity"]["required"]
        assert report["pass"], (n, k, seed, report)


def test_verify_reports_disconnected_level_without_failing():
    # dropping one leveled edge leaves the drawing non-maximal and the
    # rebuilt first level in two pieces; connectivity is then informational
    sat = saturate(identity_drawing(build_graph(12, [])), 3)
    edges = [e for e in sat.graph.edges if e != (1, 4)]
    assert len(edges) == sat.graph.m - 1
    d2 = identity_drawing(build_graph(12, edges))
    ld = build_levels(d2, (0, 3), 3)
    report = verify_level_properties(ld, d2)
    assert report["connectivity"]["required"] is False
    assert report["connectivity"]["levels"] == [False]
    assert report["p1"]["pass"] and report["p2"]["pass"]
    assert report["pass"]
    # an empty level has nothing to disconnect
    padded = verify_level_properties(replace(ld, levels=(*ld.levels, ())), d2)
    assert padded["connectivity"]["levels"] == [False, True]


def test_levels_match_scalar_oracle():
    # saturated, edge-dropped and out-of-class drawings; each level set is
    # verified as built and in a shuffled order
    rng = random.Random(101)
    p1_fails = p2_fails = rejected = 0
    for trial in range(150):
        n = rng.randrange(8, 25)
        k = rng.randrange(2, 7)
        if trial % 3 == 2:
            d = random_outer_k_planar(n, rng.randrange(k - 1, k + 3), trial)
        else:
            d = saturate(random_outer_k_planar(n, k - 2, trial), k)
            if trial % 3 == 1:
                drop = set(rng.sample(d.graph.edges, rng.randrange(1, 6)))
                kept = [e for e in d.graph.edges if e not in drop]
                d = make_drawing(build_graph(n, kept), d.order)
        candidates = long_edges(d, k)
        for e in rng.sample(candidates, min(2, len(candidates))):
            levels, leftover = scalar_levels(d, e, k)
            if leftover:
                with pytest.raises(QuasiPlanarityError) as err:
                    build_levels(d, e, k)
                assert err.value.witness == leftover, (trial, e)
                rejected += 1
                continue
            ld = build_levels(d, e, k)
            assert ld.levels == levels, (trial, e)
            for perm in (range(ld.t), rng.sample(range(ld.t), ld.t)):
                shown = reordered(ld, perm)
                report = verify_level_properties(shown, d)
                p1, p2 = scalar_witnesses(shown, d)
                assert report["p1"]["witness"] == p1, (trial, e, perm)
                assert report["p2"]["witness"] == p2, (trial, e, perm)
                p1_fails += p1 is not None
                p2_fails += p2 is not None
    assert p1_fails and p2_fails and rejected, (p1_fails, p2_fails, rejected)


def test_verify_rejects_malformed_levels():
    d = two_level_fixture()
    ld = build_levels(d, (0, 5), 4)
    merged = replace(ld, levels=(ld.levels[0] + ld.levels[1],))
    with pytest.raises(ValueError, match="crossing edges"):
        verify_level_properties(merged, d)
    for stray in ((0, 5), (1, 2)):  # the long edge itself; not an edge
        bad = replace(ld, levels=(ld.levels[0] + (stray,), ld.levels[1]))
        with pytest.raises(ValueError, match="not an edge crossing"):
            verify_level_properties(bad, d)


def test_verify_flags_misordered_levels():
    d = two_level_fixture()
    ld = build_levels(d, (0, 5), 4)
    swapped = LevelDecomposition(
        long_edge=ld.long_edge,
        k=ld.k,
        levels=(ld.levels[1], ld.levels[0]),
        left=ld.left,
        right=ld.right,
        l_sets=(ld.l_sets[1], ld.l_sets[0]),
        r_sets=(ld.r_sets[1], ld.r_sets[0]),
    )
    report = verify_level_properties(swapped, d)
    assert not report["p1"]["pass"]
    assert report["p1"]["witness"] is not None
    assert not report["pass"]


def test_replacement_vertex_relation_spec_instance():
    sat = saturate(identity_drawing(build_graph(12, [])), 3)
    e = find_long_edge(sat, 3)
    res = replacement_split(sat, e, 3)
    assert 12 == res.g1.n + res.g2.n - 4
    assert res.g1.graph.m == maximal_edge_count(res.g1.n, 3)
    assert res.g2.graph.m == maximal_edge_count(res.g2.n, 3)
    assert set(res.level_vertices_g1) == set(res.level_vertices_g2) == {1}


def test_replacement_matches_two_level_structure():
    sat = saturate(two_level_fixture(), 4)
    assert sat.graph.m == maximal_edge_count(10, 4)
    res = replacement_split(sat, (0, 5), 4)
    ld = build_levels(sat, (0, 5), 4)
    # g1 keeps the right side; each level-vertex covers all of its R_i
    assert res.g1.n == len(ld.right) + 4
    assert res.origin_g1[0] == 0
    assert res.origin_g1[3] == 5  # b lands after the two level slots
    new_of = {
        orig: nid for nid, orig in enumerate(res.origin_g1) if orig is not None
    }
    for i, rs in enumerate(ld.r_sets, 1):
        lv = res.level_vertices_g1[i]
        assert res.origin_g1[lv] is None
        assert {new_of[x] for x in rs} <= set(res.g1.graph.adj[lv])


def test_replacement_degenerate_no_crossings():
    sat = saturate(identity_drawing(build_graph(10, [])), 2)
    e = find_long_edge(sat, 2)
    res = replacement_split(sat, e, 2)
    assert res.crossing_edges == 0
    assert res.added_g1 == res.added_g2 == 0
    assert sat.n == res.g1.n + res.g2.n - 2
    assert sat.graph.m == res.g1.graph.m + res.g2.graph.m - 1


def test_replacement_relations_on_random_corpus():
    for n, k, seed in [
        (9, 2, 21), (10, 3, 22), (11, 4, 23), (12, 3, 24), (13, 4, 25),
        (14, 2, 26), (14, 5, 27), (16, 3, 28),
    ]:
        sat = saturate(random_outer_k_planar(n, k - 2, seed), k)
        e = find_long_edge(sat, k)
        if e is None:
            continue
        res = replacement_split(sat, e, k)
        assert sat.n == res.g1.n + res.g2.n - 2 * k + 2
        assert sat.graph.m == (
            res.g1.graph.m + res.g2.graph.m
            - (res.added_g1 + res.added_g2)
            + res.crossing_edges
            - 1
        )
        assert is_maximal(res.g1, k) and is_maximal(res.g2, k)
        assert res.g1.graph.m == maximal_edge_count(res.g1.n, k)
        assert res.g2.graph.m == maximal_edge_count(res.g2.n, k)


def test_replacement_rejects_non_maximal_input():
    with pytest.raises(QuasiPlanarityError):
        replacement_split(two_level_fixture(), (0, 5), 4)


def test_two_page_drawings_stay_below_three_mutual():
    # a drawing whose edges split into two crossing-free sets has no three
    # pairwise crossing edges; snake-ordered grids are the standard case
    for r, c in [(3, 3), (4, 4), (3, 5)]:
        g = grid(r, c)
        d = make_drawing(g, grid_snake_order(r, c))
        edges = list(g.edges)
        page = {}
        for s in range(len(edges)):
            if s in page:
                continue
            page[s] = 0
            stack = [s]
            while stack:
                x = stack.pop()
                for y in range(len(edges)):
                    if edges_cross(d, edges[x], edges[y]):
                        if y not in page:
                            page[y] = 1 - page[x]
                            stack.append(y)
                        else:
                            assert page[y] != page[x], "crossing graph not 2-colorable"
        assert crossing_report(d).max_mutual <= 2


def test_level_dump_and_svg():
    d = two_level_fixture()
    ld = build_levels(d, (0, 5), 4)
    dump = json.loads(json.dumps(ld.to_dict()))
    assert dump["t"] == 2
    assert dump["long_edge"] == [0, 5]
    assert len(dump["levels"][0]) == 7
    svg = levels_svg(d, ld)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("#2f9e44") == 7  # first level color, one line per edge
    assert svg.count("#9c36b5") == 5
