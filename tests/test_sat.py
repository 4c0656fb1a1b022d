"""CNF encodings: clause counts, class verdicts, oracle agreement, DIMACS text."""
from __future__ import annotations

import random
import sys
from hashlib import sha256
from itertools import chain, combinations, permutations, product
from math import comb

import pytest

from okplanar import cdcl, sat
from okplanar.cdcl import CdclSolver, SolverTimeout
from okplanar.cli import _PROP_ROWS, main
from okplanar.drawing import (
    is_closed_drawing,
    make_drawing,
)
from okplanar.generators import complete, complete_bipartite, grid, planar_3tree_levels
from okplanar.graphs import build_graph
from okplanar.io import format_graph
from okplanar.maximal import saturate
from okplanar.recognition import brute_force_recognize, check_refutation
from okplanar.sat import (
    EncodingTooLarge,
    MutualCrossingCap,
    decode_model,
    dimacs_text,
    emit_dimacs,
    encode,
    encode_closed,
    encode_crossing_links,
    encode_order_axioms,
    encode_outer_planar,
    encode_outer_quasi,
    parse_dimacs,
    recognize,
    search_order,
)

from oracles import in_class


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, n, max_m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, rng.sample(pairs, k=min(rng.randrange(0, max_m + 1), len(pairs))))


def test_order_axiom_counts():
    for n in range(1, 7):
        cnf, vm = encode_order_axioms(n)
        assert cnf.num_vars == comb(n, 2)
        # two 3-cycles per triple, vertex 0 first, and 1 before 2 from n = 3 on
        assert len(cnf.clauses) == 2 * comb(n, 3) + (n - 1) + (n >= 3)
    with pytest.raises(ValueError):
        encode_order_axioms(0)


def order_units(vm, order):
    """The literal "u before v" of each pair u < v, in variable order."""
    rank = {v: i for i, v in enumerate(order)}
    nb, n = vm.not_before, len(vm.not_before)
    return [nb[v][u] if rank[u] < rank[v] else nb[u][v] for u in range(n) for v in range(u + 1, n)]


def crossing_vars(vm):
    return sum(map(bool, chain.from_iterable(vm.neg_cross))) // 2


def reflection_classes(n):
    """The orders with vertex 0 first and vertex 1 before vertex 2."""
    for rest in permutations(range(1, n)):
        if n < 3 or rest.index(1) < rest.index(2):
            yield (0,) + rest


def test_order_axioms_models_are_the_reflection_classes():
    # exhaustive: the satisfying assignments are exactly these orders
    for n, expected in zip(range(1, 6), (1, 1, 1, 3, 12)):
        cnf, vm = encode_order_axioms(n)
        models = []
        for bits in product((False, True), repeat=cnf.num_vars):
            if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses):
                models.append([v if bits[v - 1] else -v for v in range(1, len(bits) + 1)])
        orders = list(reflection_classes(n))
        assert len(models) == len(orders) == expected
        assert sorted(models) == sorted(order_units(vm, o) for o in orders)


def test_crossing_link_counts():
    cases = [
        (build_graph(4, [(0, 1), (2, 3)]), 1),
        (build_graph(3, [(0, 1), (1, 2)]), 0),
        (complete(4), 3),
    ]
    for g, expected_y in cases:
        cnf, vm = encode_order_axioms(g.n)
        pre = len(cnf.clauses)
        encode_crossing_links(g, cnf, vm)
        assert crossing_vars(vm) == expected_y
        assert len(cnf.clauses) - pre == 8 * expected_y


def test_outer_planar_verdicts():
    assert recognize(complete(4), 1, "outer-planar").found is not None
    assert recognize(complete(4), 0, "outer-planar").found is None
    assert recognize(complete(5), 2, "outer-planar").found is not None
    assert recognize(complete(5), 1, "outer-planar").found is None
    for n in range(3, 9):
        assert recognize(cycle(n), 0, "outer-planar").found is not None
    # one vertex: an encoding with no variables, whose model is empty
    found = recognize(build_graph(1, []), 0, "outer-planar").found
    assert found is not None and list(found[0].order) == [0]
    with pytest.raises(ValueError):
        encode_outer_planar(complete(3), -1)
    with pytest.raises(ValueError, match="unknown engine"):
        recognize(complete(3), 1, "outer-planar", engine="exhaustive")
    # the timeout bounds the solve; brute force has none to bound
    with pytest.raises(ValueError, match="the brute engine takes none"):
        recognize(complete(4), 1, "outer-planar", engine="brute", timeout_s=5)
    # search_order, which skips the refutation, refuses the same pairings
    with pytest.raises(ValueError, match="the brute engine takes none"):
        search_order(complete(4), 1, "outer-planar", "brute", timeout_s=0.01)
    with pytest.raises(ValueError, match="unknown engine"):
        search_order(complete(3), 1, "outer-planar", "exhaustive")


def test_outer_quasi_verdicts():
    assert recognize(complete(5), 3, "outer-quasi").found is not None
    assert recognize(complete(6), 3, "outer-quasi").found is None
    assert recognize(complete_bipartite(4, 4), 3, "outer-quasi").found is not None
    assert recognize(complete_bipartite(3, 5), 3, "outer-quasi").found is None
    found = recognize(build_graph(1, []), 2, "outer-quasi").found
    assert found is not None and list(found[0].order) == [0]
    with pytest.raises(ValueError):
        encode_outer_quasi(complete(3), 1)


def test_closed_verdicts():
    assert recognize(cycle(6), 0, "closed-outer-planar").found is not None
    assert recognize(complete(4), 0, "closed-outer-planar").found is None
    assert recognize(complete(4), 1, "closed-outer-planar").found is not None
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for k in (0, 2, 4):
        assert recognize(p4, k, "closed-outer-planar").found is None


def test_closed_rejections():
    with pytest.raises(ValueError):
        encode_closed(build_graph(2, [(0, 1)]), 1, "outer-planar")
    # no shortcut for a disconnected graph: the encoding itself is UNSAT,
    # through the empty successor clause of isolated vertex 4 in the first
    isolated = build_graph(5, [(0, 1), (2, 3)])
    triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g in (isolated, triangles):
        cnf, _ = encode_closed(g, 1, "outer-planar")
        assert CdclSolver(cnf.num_vars, cnf.clauses).solve() is None
        text = dimacs_text(cnf)
        assert parse_dimacs(text) == (cnf.num_vars, cnf.clauses)
        assert ([] in cnf.clauses) == ("\n0\n" in text) == (g is isolated)
        # recognize answers with the refutation, search_order by solving
        assert recognize(g, 1, "closed-outer-planar").certificate == {"kind": "disconnected"}
        assert search_order(g, 1, "closed-outer-planar").found is None


def test_closed_encoding_refuses_a_closed_inner_variant():
    with pytest.raises(ValueError, match="unknown inner variant 'closed-outer-planar'"):
        encode_closed(cycle(4), 1, "closed-outer-planar")


def test_decoded_models_pass_checkers():
    rng = random.Random(101)
    for _ in range(12):
        g = random_graph(rng, rng.randrange(4, 7), 10)
        for variant, k in [("outer-planar", 1), ("outer-quasi", 3)]:
            r = recognize(g, k, variant).found
            if r is None:
                continue
            assert in_class(r[0], k, variant)


def test_decode_rejects_garbage_model():
    g = complete(4)
    cnf, vm = encode_outer_planar(g, 1)
    with pytest.raises(ValueError):
        decode_model([v if v % 3 == 0 else -v for v in range(1, cnf.num_vars + 1)], vm, g)


def test_oracle_agreement():
    rng = random.Random(202)
    for _ in range(20):
        n = rng.randrange(3, 8)
        g = random_graph(rng, n, 2 * n)
        for variant, ks in [
            ("outer-planar", (0, 1, 2)),
            ("outer-quasi", (2, 3)),
            ("closed-outer-planar", (0, 1)),
            ("closed-outer-quasi", (2, 3)),
        ]:
            for k in ks:
                sat_r = search_order(g, k, variant).found
                brute_r = brute_force_recognize(g, k, variant)
                assert (sat_r is None) == (brute_r is None), (g.edges, variant, k)


def test_three_vertex_graphs_agree_with_brute_force():
    # brute force reaches n = 3 through its general search, which must agree
    # with the encoding on every three-vertex graph
    pairs = [(0, 1), (0, 2), (1, 2)]
    for mask in range(8):
        g = build_graph(3, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for variant, k in [("outer-planar", 0), ("outer-quasi", 2),
                           ("closed-outer-planar", 0), ("closed-outer-quasi", 2)]:
            sat_r = search_order(g, k, variant).found
            brute_r = brute_force_recognize(g, k, variant)
            assert (sat_r is None) == (brute_r is None), (mask, variant)
            assert (sat_r is None) == (variant.startswith("closed") and mask != 7), (mask, variant)


def test_unsat_monotone_in_k():
    rng = random.Random(303)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(4, 7), 12)
        prev_sat = None
        for k in range(3, -1, -1):
            r = recognize(g, k, "outer-planar").found
            if prev_sat is False:
                assert r is None  # UNSAT at k+1 forces UNSAT at k
            prev_sat = r is not None


def quasi_threshold_no(n, k, seed):
    """A maximal outer k-quasi-planar graph plus one absent edge: a known NO."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    g = saturate(make_drawing(build_graph(n, []), order), k).graph
    extra = next(e for e in combinations(range(n), 2) if e not in g.edges)
    return build_graph(n, [*g.edges, extra])


@pytest.mark.parametrize("g,k,variant,engine,kind", [
    (complete(9), 8, "outer-planar", "sat", "degeneracy"),
    (complete(9), 8, "closed-outer-planar", "brute", "degeneracy"),
    (complete(10), 8, "outer-planar", "sat", "degeneracy"),
    (complete(10), 8, "outer-planar", "brute", "degeneracy"),
    (quasi_threshold_no(10, 3, 1), 3, "closed-outer-quasi", "sat", "edge-count"),
    # used to build 2M mutual-crossing clauses and fail on the clause cap
    (complete(25), 3, "outer-quasi", "sat", "edge-count"),
    # over the brute-force cap, and over the order-axiom cap: a NO, not a size error
    (complete(12), 2, "outer-planar", "brute", "degeneracy"),
    (complete(183), 2, "closed-outer-quasi", "sat", "edge-count"),
])
def test_refuted_instances_reach_no_engine(monkeypatch, g, k, variant, engine, kind):
    calls = []

    def counted(name):
        real = getattr(sat, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("encode", "CdclSolver", "brute_force_recognize"):
        monkeypatch.setattr(sat, name, counted(name))
    r = recognize(g, k, variant, engine=engine)
    assert calls == []
    assert r.found is None
    assert r.certificate["kind"] == kind
    check_refutation(g, k, variant, r.certificate)


def test_refuted_instance_still_emits_its_cnf(tmp_path):
    path = str(tmp_path / "k6.cnf")
    r = recognize(complete(6), 3, "outer-quasi", engine="brute", emit_cnf=path)
    assert r.certificate["kind"] == "edge-count"
    with open(path) as fh:
        assert fh.read() == dimacs_text(encode(complete(6), 3, "outer-quasi")[0])


def test_every_other_verdict_has_no_certificate():
    assert recognize(complete(5), 3, "outer-quasi").certificate is None
    assert recognize(complete_bipartite(3, 5), 2, "outer-planar").certificate is None
    assert search_order(complete(6), 3, "outer-quasi").certificate is None


def test_clause_cap_rejection(monkeypatch):
    # the count names the first subset over the cap, wherever the cap falls
    # above K9's 177 order-axiom clauses and below its 1,260 3-sets and 945 4-sets
    for cap, k in ((200, 3), (300, 3), (500, 4)):
        monkeypatch.setattr(sat, "CLAUSE_CAP", cap)
        with pytest.raises(EncodingTooLarge) as e:
            encode_outer_quasi(complete(9), k)
        assert e.value.count == cap + 1
        assert str(e.value) == (f"mutual-crossing clauses exceed cap {cap}: "
                                f"at least {cap + 1} size-{k} disjoint edge subsets")
    # the planar count is exact: K9 at k = 3 has 36 counters over 21
    # disjoint edges, 3 + 20 * 7 clauses each, and fits a cap of just that
    for variant in ("outer-planar", "closed-outer-planar"):
        monkeypatch.setattr(sat, "CLAUSE_CAP", 36 * 143)
        assert encode(complete(9), 3, variant)[0].clauses
        monkeypatch.setattr(sat, "CLAUSE_CAP", 36 * 143 - 1)
        with pytest.raises(EncodingTooLarge) as e:
            encode(complete(9), 3, variant)
        assert e.value.count == 36 * 143


def no_clauses(*args):
    raise AssertionError("encoding started")


def test_over_cap_quasi_encoding_is_refused_before_any_clause(monkeypatch, tmp_path):
    # K25 has 2,656,500 disjoint edge triples; the count stops past the cap
    monkeypatch.setattr(sat, "encode_order_axioms", no_clauses)
    with pytest.raises(EncodingTooLarge) as e:
        encode_outer_quasi(complete(25), 3)
    assert e.value.count == sat.CLAUSE_CAP + 1
    with pytest.raises(EncodingTooLarge):
        recognize(complete(25), 3, "outer-quasi", emit_cnf=str(tmp_path / "k25.cnf"))


def test_over_cap_planar_encoding_is_refused_before_any_clause(monkeypatch, tmp_path, capsys):
    # K20 at k = 81: 190 counters over 153 disjoint edges each, 81 + 152 * 163
    # clauses apiece; K35 at k = 5 is a refuted NO whose --emit-cnf is over
    monkeypatch.setattr(sat, "encode_order_axioms", no_clauses)
    for n, k, extra, predicted in ((20, 81, [], 4_722_830),
                                   (35, 5, ["--emit-cnf", str(tmp_path / "k35.cnf")], 3_452_190)):
        path = tmp_path / f"k{n}.txt"
        path.write_text(format_graph(complete(n)))
        assert main(["recognize", str(path), "--k", str(k), "--variant", "planar", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: per-edge crossing-cap clauses exceed cap "
                                     f"{sat.CLAUSE_CAP}: {predicted} predicted\n")
    assert not (tmp_path / "k35.cnf").exists()


def test_over_cap_link_block_is_refused_before_any_clause(monkeypatch, tmp_path, capsys):
    # 8 link clauses per endpoint-disjoint pair; neither graph is refuted,
    # and each edge has C(n - 2, 2) = k disjoint edges, so no counter is built
    monkeypatch.setattr(sat, "encode_order_axioms", no_clauses)
    for n, k, predicted in ((80, 3003, 37_957_920), (40, 703, 2_193_360)):
        path = tmp_path / f"k{n}.txt"
        path.write_text(format_graph(complete(n)))
        assert main(["recognize", str(path), "--k", str(k), "--variant", "planar"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: crossing-link clauses exceed cap "
                                     f"{sat.CLAUSE_CAP}: {predicted} predicted\n")


def test_no_k_set_walk_without_2k_endpoints(monkeypatch):
    # K16 at k = 9: 16 vertices hold no 9 disjoint edges, so neither the
    # count nor the cap, explicit or native, walks the (k-1)-sets
    callers = []
    real = sat._disjointness_masks

    def masks(edges):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(edges)

    monkeypatch.setattr(sat, "_disjointness_masks", masks)
    for variant in ("outer-quasi", "closed-outer-quasi"):
        found = recognize(complete(16), 9, variant).found  # re-checked by search_order
        assert found is not None and found[1].max_mutual <= 8
    assert set(callers) == {"_link_clauses", "encode_crossing_links"}


def test_k_set_walk_grows_only_completable_stems(monkeypatch):
    # K10 minus a perfect matching at k = 5: every 5-set of disjoint edges
    # is a perfect matching, and most disjoint 4-sets leave none to complete
    edges = tuple(e for e in complete(10).edges if e not in {(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)})
    k = 5
    partial = [c for r in range(k) for c in combinations(edges, r) if disjoint(*c)]
    k_sets = sum(disjoint(*c) for c in combinations(edges, k))
    expanded = []
    real = sat._bits

    def bits(mask):
        expanded.append(mask)
        return real(mask)

    monkeypatch.setattr(sat, "_bits", bits)
    stems = list(sat._disjoint_stems(edges, k))
    assert sum(cand.bit_count() for _, cand in stems) == k_sets == sat._count_k_sets(edges, k, k_sets)
    assert sat._count_k_sets(edges, k, 10) == 11  # the count stops once it passes stop
    assert all(cand for _, cand in stems)
    # the unpruned walk yielded every disjoint (k-1)-set and expanded every
    # smaller one
    assert len(stems) < sum(len(c) == k - 1 for c in partial)
    assert len(expanded) < sum(len(c) < k - 1 for c in partial)


def test_counter_prediction_matches_the_cap_block():
    cases = [(complete(n), k) for n in range(3, 10) for k in range(6)]
    cases += [(g, k) for g in (grid(5, 7), planar_3tree_levels(3)) for k in range(4)]
    for _, make, _, _ in _PROP_ROWS:
        cases += [(make(), k) for k in (0, 2, 5)]
    for g, k in cases:
        inner, ivm = encode_order_axioms(max(g.n, 1))
        encode_crossing_links(g, inner, ivm)
        built = len(encode_outer_planar(g, k)[0].clauses) - len(inner.clauses)
        assert sat._counter_clauses(g.edges, k) == built, (g.edges, k)
    for n in range(1, 17):
        assert sat._order_clauses(n) == len(encode_order_axioms(n)[0].clauses), n


def test_tables_match_the_dimacs_legend():
    # c ord U V VAR names x_{U,V}, the literal "V does not come before U";
    # c cross names y of two edges, whose row entries hold -y, and 0 where
    # edges touch; the header counts exactly the variables the clauses name
    variants = ("outer-planar", "outer-quasi", "closed-outer-planar", "closed-outer-quasi")
    for g in (complete(6), complete_bipartite(3, 3), grid(3, 4), planar_3tree_levels(2), cycle(7)):
        index = {e: i for i, e in enumerate(g.edges)}
        for variant in variants:
            for k in (0, 2) if variant.endswith("planar") else (2, 3):
                cnf, vm = encode(g, k, variant)
                ords = crosses = 0
                for line in dimacs_text(cnf).splitlines():
                    kind, *nums = line.split()[1:] if line.startswith("c ") else ("",)
                    if kind == "ord":
                        u, v, var = map(int, nums)
                        assert var == vm.not_before[v][u] == -vm.not_before[u][v]
                        ords += 1
                    elif kind == "cross":
                        i, j = index[tuple(map(int, nums[:2]))], index[tuple(map(int, nums[2:4]))]
                        assert int(nums[4]) == -vm.neg_cross[i][j] == -vm.neg_cross[j][i]
                        crosses += 1
                assert ords == comb(g.n, 2)
                assert crosses == crossing_vars(vm) == sum(
                    disjoint(e, f) for e, f in combinations(g.edges, 2))
                assert cnf.num_vars == max(abs(l) for c in cnf.clauses for l in c)


def cap_oracle_graphs(rng, k):
    """Random graphs with room for k pairwise disjoint edges."""
    for _ in range(6):
        n = rng.randint(2 * k, 2 * k + 2)
        pairs = list(combinations(range(n), 2))
        yield build_graph(n, rng.sample(pairs, min(len(pairs), rng.randint(n, 2 * n))))


def disjoint(*edges):
    return len({v for e in edges for v in e}) == 2 * len(edges)


def test_mutual_crossing_cap_matches_a_combinations_oracle():
    rng = random.Random(505)
    for k in range(2, 6):
        emitted = 0
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_quasi(g, k)
            expected = [[vm.neg_cross[i][j] for i, j in combinations(subset, 2)]
                        for subset in combinations(range(g.m), k)
                        if disjoint(*(g.edges[i] for i in subset))]
            start = len(cnf.clauses) - len(expected)
            assert start == len(encode_order_axioms(g.n)[0].clauses) + 8 * crossing_vars(vm)
            assert cnf.clauses[start:] == expected, (g.edges, k)
            emitted += len(expected)
        assert emitted > 0


def propagated(solver, assumed):
    """The literals unit propagation sets from assumed at level 1, or None
    on a conflict."""
    solver.trail_lim.append(0)
    for lit in assumed:
        solver._enqueue(lit, None)
    return None if solver._propagate() is not None else set(solver.trail)


def test_native_cap_propagates_what_the_block_propagates():
    rng = random.Random(707)
    forced = conflicts = 0
    for k in range(3, 6):
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_quasi(g, k)
            block = sat._mutual_cap_clauses(g.edges, k, vm.neg_cross)
            ys = [-nl for i, row in enumerate(vm.neg_cross) for nl in row[i + 1:] if nl]
            for _ in range(30):
                assumed = [y if rng.random() < 0.8 else -y
                           for y in rng.sample(ys, rng.randint(1, len(ys)))]
                explicit = propagated(CdclSolver(cnf.num_vars, [c[:] for c in block]), assumed)
                cap = MutualCrossingCap(g.edges, k, vm.neg_cross)
                native = propagated(CdclSolver(cnf.num_vars, [], cap), assumed)
                assert native == explicit, (g.edges, k, assumed)
                conflicts += explicit is None
                forced += explicit is not None and len(explicit) > len(assumed)
    assert forced > 0 and conflicts > 0


def test_native_cap_reasons_are_clauses_of_the_block():
    # each reason a propagation records is a clause of the block, forced
    # literal first; every conflict is one too
    rng = random.Random(808)
    for k in (3, 4):
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_quasi(g, k)
            block = {tuple(sorted(c)) for c in sat._mutual_cap_clauses(g.edges, k, vm.neg_cross)}
            cap = MutualCrossingCap(g.edges, k, vm.neg_cross)
            ys = [-nl for i, row in enumerate(vm.neg_cross) for nl in row[i + 1:] if nl]
            for _ in range(20):
                true = set(rng.sample(ys, rng.randint(1, len(ys))))
                lval = [-1] * (2 * cnf.num_vars + 1)
                for y in sorted(true):
                    lval[y], lval[-y] = 1, 0
                    for c in cap.propagate(y, lval):
                        assert tuple(sorted(c)) in block
                        assert all(lval[l] == 0 for l in c[1:]) and lval[c[0]] in (-1, 0)
                cap.backtrack(sorted(true))
                assert not any(cap.true)


def test_cap_block_goes_native_where_it_outweighs_the_links():
    # (graph, k, k-sets, link clauses): grid 5x6 holds 13,295 sets against
    # 8,464 links; grid 4x4 1,044 against 1,792; k = 2 has one unit per pair
    # against 8 links, and 16 vertices hold no 9 disjoint edges
    for g, k, native in ((grid(5, 6), 3, True), (grid(5, 6), 4, True), (grid(4, 4), 3, False),
                         (complete(6), 2, False), (complete(16), 9, False)):
        explicit, _ = encode_outer_quasi(g, k)
        cnf, vm = encode_outer_quasi(g, k, explicit_cap=False)
        sets = len(sat._mutual_cap_clauses(g.edges, k, vm.neg_cross))
        assert (sets > sat._link_clauses(g.edges)) == native
        if native:
            assert vm.cap_block == slice(len(cnf.clauses), len(cnf.clauses))
            assert explicit.clauses == cnf.clauses + sat._mutual_cap_clauses(g.edges, k, vm.neg_cross)
        else:
            assert vm.cap_block is None and cnf.clauses == explicit.clauses


def test_plain_quasi_solve_builds_no_cap_block(monkeypatch):
    monkeypatch.setattr(sat, "_mutual_cap_clauses", no_clauses)
    assert recognize(grid(5, 6), 3, "outer-quasi").found is not None
    assert recognize(grid(5, 6), 3, "closed-outer-quasi").found is not None
    assert recognize(quasi_threshold_no(16, 3, 1), 3, "outer-quasi").found is None


def test_emit_cnf_does_not_change_the_witness(tmp_path):
    for g, k, variant in ((grid(5, 6), 3, "outer-quasi"), (grid(5, 6), 3, "closed-outer-quasi"),
                          (grid(4, 4), 3, "outer-quasi")):
        plain = recognize(g, k, variant).found
        emitted = recognize(g, k, variant, emit_cnf=str(tmp_path / "f.cnf")).found
        assert plain[0].order == emitted[0].order, (g.edges, k, variant)


def test_recognize_agrees_with_solve_cnf_on_its_emitted_file(tmp_path, capsys):
    # the families matrix: the file holds the explicit cap block, which the
    # solve behind recognize leaves to the native cap
    for name, make, _, _ in _PROP_ROWS:
        path, cnf = tmp_path / f"{name}.txt", tmp_path / f"{name}.cnf"
        path.write_text(format_graph(make()))
        code = main(["recognize", str(path), "--k", "3", "--variant", "quasi", "--emit-cnf", str(cnf)])
        assert code in (0, 2) and main(["solve-cnf", str(cnf)]) == (10 if code == 0 else 20), name
        capsys.readouterr()


def test_per_edge_crossing_cap_matches_a_combinations_oracle():
    rng = random.Random(606)
    for k in range(2, 6):
        counted = 0
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_planar(g, k)
            oracle, ovm = encode_order_axioms(g.n)
            encode_crossing_links(g, oracle, ovm)
            for e, row in zip(g.edges, ovm.neg_cross):
                negs = [row[j] for j, f in enumerate(g.edges) if disjoint(e, f)]
                sat._seq_counter_le(oracle, ovm, negs, k, tag=f"cap{e[0]}-{e[1]}")
                counted += len(negs) > k
            assert (cnf.clauses, vm.aux) == (oracle.clauses, ovm.aux), (g.edges, k)
            assert cnf.num_vars == oracle.num_vars
        assert counted > 0


def test_order_axiom_block_is_refused_before_it_is_built(monkeypatch, tmp_path, capsys):
    # 2 C(n, 3) + (n - 1) + 1 clauses: 182 vertices predict 1,976,702 and
    # pass, 183 predict 2,009,645 and are the first refused, in every variant
    monkeypatch.setattr(sat, "encode_order_axioms", no_clauses)
    path = tmp_path / "p183.txt"
    path.write_text(format_graph(path_graph(183)))
    assert main(["recognize", str(path), "--k", "1", "--variant", "planar"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: order-axiom clauses exceed cap "
                                 f"{sat.CLAUSE_CAP}: 2009645 predicted\n")
    for g, k, variant in ((path_graph(183), 2, "outer-quasi"), (cycle(183), 0, "closed-outer-planar"),
                          (cycle(183), 2, "closed-outer-quasi")):
        with pytest.raises(EncodingTooLarge) as e:
            encode(g, k, variant)
        assert e.value.count == 2_009_645
    with pytest.raises(AssertionError, match="encoding started"):
        encode_outer_planar(path_graph(182), 1)


def test_brute_refusal_writes_no_cnf(tmp_path, capsys):
    path, cnf = tmp_path / "g34.txt", tmp_path / "g34.cnf"
    path.write_text(format_graph(grid(3, 4)))
    argv = ["recognize", str(path), "--k", "1", "--variant", "planar", "--engine", "brute"]
    assert main([*argv, "--emit-cnf", str(cnf)]) == 1
    assert capsys.readouterr().err == "error: n=12 exceeds brute-force cap 11\n"
    assert not cnf.exists()


def test_native_cap_block_is_counted_only_past_the_links(monkeypatch, tmp_path, capsys):
    # 3tree-4 at quasi k = 4: its 3,442,716 disjoint 4-sets are over the
    # cap, but the solve path never builds them and stops counting once they
    # pass the 51,240 link clauses; --emit-cnf builds them and is refused
    g = planar_3tree_levels(4)
    links = sat._link_clauses(g.edges)
    real = sat._disjoint_stems

    def stems(edges, k):
        seen = 0
        for stem in real(edges, k):
            assert seen <= links, "the k-set count went on past the link block"
            seen += stem[1].bit_count()
            yield stem

    monkeypatch.setattr(sat, "_disjoint_stems", stems)
    monkeypatch.setattr(sat, "_mutual_cap_clauses", no_clauses)
    found = recognize(g, 4, "outer-quasi").found  # re-checked by search_order
    assert found is not None and found[1].max_mutual == 3
    monkeypatch.setattr(sat, "_disjoint_stems", real)  # the explicit block's count goes on
    path, cnf = tmp_path / "3tree4.txt", tmp_path / "3tree4.cnf"
    path.write_text(format_graph(g))
    argv = ["recognize", str(path), "--k", "4", "--variant", "quasi", "--emit-cnf", str(cnf)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: mutual-crossing clauses exceed cap {sat.CLAUSE_CAP}: "
                                       f"at least {sat.CLAUSE_CAP + 1} size-4 disjoint edge subsets\n")
    assert not cnf.exists()


def test_dimacs_round_trip(tmp_path):
    cnf, vm = encode_outer_quasi(complete(5), 3)
    path = tmp_path / "k5.cnf"
    emit_dimacs(cnf, str(path))
    text = path.read_text()
    assert text.splitlines()[-1].endswith(" 0")
    nv, clauses = parse_dimacs(text)
    assert nv == cnf.num_vars and len(clauses) == len(cnf.clauses)
    header = [l for l in text.splitlines() if l.startswith("p ")][0]
    assert header == f"p cnf {cnf.num_vars} {len(cnf.clauses)}"
    # legend lines present
    assert any(l.startswith("c ord 0 1 ") for l in text.splitlines())
    assert any(l.startswith("c cross ") for l in text.splitlines())


def test_dimacs_trivial_formulas():
    from okplanar.sat import CnfFormula

    assert dimacs_text(CnfFormula(num_vars=0)) == "p cnf 0 0\n"
    f = CnfFormula(num_vars=1, clauses=[[1]])
    assert dimacs_text(f) == "p cnf 1 1\n1 0\n"


def assert_solver_contract(num_vars, clauses):
    """What CdclSolver adopts without repair: nonzero literals, no variable
    twice in a clause, and every variable in 1..num_vars."""
    for c in clauses:
        vs = set(map(abs, c))
        assert 0 not in c and len(vs) == len(c), c
        assert all(1 <= v <= num_vars for v in vs), (c, num_vars)


def test_parse_dimacs_repairs_untrusted_clauses():
    # a repeated literal merges in first-seen order, a clause holding x and
    # -x is dropped, the header's 2 rises to the 5 of a dropped clause, a
    # line holding only 0 is an empty clause, a clause may span lines, and
    # the final clause may lack its 0
    text = "c note\np cnf 2 6\n2 1 2 -3 0\n5 -5 0\n0\n1\n-2 0\n-1 -1 0\n-2 2 -2 0\n4 -1\n"
    num_vars, clauses = parse_dimacs(text)
    assert (num_vars, clauses) == (5, [[2, 1, -3], [], [1, -2], [-1], [4, -1]])
    assert_solver_contract(num_vars, clauses)
    assert parse_dimacs("p cnf 3 1\n1 -2 0\n") == (3, [[1, -2]])  # no repair needed
    assert parse_dimacs("") == (0, [])


def test_encoder_meets_the_solver_contract():
    for cnf in pinned_encodings():
        assert_solver_contract(cnf.num_vars, cnf.clauses)
    isolated = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])  # the empty clause
    variants = ("outer-planar", "outer-quasi", "closed-outer-planar", "closed-outer-quasi")
    for g in (complete(6), complete_bipartite(3, 3), grid(3, 3), planar_3tree_levels(2), isolated):
        for variant in variants:
            for k in (0, 1, 3) if variant.endswith("planar") else (2, 3):
                cnf = encode(g, k, variant)[0]
                assert_solver_contract(cnf.num_vars, cnf.clauses)


def test_search_order_refuses_a_witness_outside_the_class(monkeypatch, tmp_path, capsys):
    # each engine answers with a well-formed order whose drawing breaks one
    # rule of the class; every graph is in its class and survives refute,
    # so the solver finds a model and both engines reach the gate
    crossing_pair = build_graph(4, [(0, 2), (1, 3)])
    for g, variant, k, order, why in (
        (crossing_pair, "outer-planar", 0, (0, 1, 2, 3), "crosses edge"),
        (crossing_pair, "outer-quasi", 2, (0, 1, 2, 3), "mutually crossing"),
        (cycle(4), "closed-outer-planar", 4, (0, 2, 1, 3), "not closed"),
    ):
        bad = make_drawing(g, order)
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        argv = ["recognize", str(path), "--k", str(k), "--variant", variant]
        for engine, name in (("sat", "decode_model"), ("brute", "brute_force_recognize")):
            assert search_order(g, k, variant, engine).found is not None
            with monkeypatch.context() as m:
                m.setattr(sat, name, lambda *args: bad)
                with pytest.raises(ValueError, match=f"^{engine} engine witness .*{why}"):
                    search_order(g, k, variant, engine)
                assert main([*argv, "--engine", engine]) == 1
                out, err = capsys.readouterr()
                assert out == "" and err.startswith(f"error: {engine} engine witness ")
                assert why in err


def test_decode_rejects_a_cyclic_triple():
    # a 3-cycle ties scores, the one way a tournament fails to be an order
    for n in (3, 5):
        g = cycle(n)
        _, vm = encode_outer_planar(g, n)
        model = order_units(vm, range(n))
        model[vm.not_before[2][0] - 1] *= -1  # 0 before 1 before 2 before 0
        with pytest.raises(ValueError, match="tied rank counts"):
            decode_model(model, vm, g)


def connected_graph(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random spanning tree
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7}
    return build_graph(n, sorted(edges))


def test_boundary_block_matches_is_closed_drawing():
    # k = m makes the crossing cap vacuous, so only the boundary block decides
    rng = random.Random(404)
    orders = closed = 0
    for n in range(3, 7):
        for _ in range(10):
            g = connected_graph(rng, n)
            cnf, vm = encode_closed(g, len(g.edges), "outer-planar")
            for order in reflection_classes(n):
                units = [[l] for l in order_units(vm, order)]
                sat_ok = CdclSolver(cnf.num_vars, cnf.clauses + units).solve() is not None
                assert sat_ok == is_closed_drawing(make_drawing(g, order)), (g.edges, order)
                orders += 1
                closed += sat_ok
    assert (orders, closed) == (760, 253)


def pigeonhole(pigeons, holes):
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [[-var(p, h), -var(q, h)]
                for h in range(holes)
                for p in range(pigeons) for q in range(p + 1, pigeons)]
    return pigeons * holes, clauses


def test_solver_deadline_counts_conflicts_across_restarts(monkeypatch):
    # the clock is read once at the start and once per conflict; it passes
    # the deadline at conflict 100, after the first restart (64 conflicts)
    readings = []

    def clock():
        readings.append(None)
        return 0.0 if len(readings) <= 100 else 1.0

    monkeypatch.setattr(cdcl.time, "monotonic", clock)
    nv, clauses = pigeonhole(6, 5)  # about 170 conflicts to refute
    with pytest.raises(SolverTimeout, match="after 100 conflicts"):
        CdclSolver(nv, clauses).solve(timeout_s=0.5)
    monkeypatch.undo()
    assert CdclSolver(nv, clauses).solve() is None


def pinned_instances():
    """60 seeded instances, n = 5..11, all four variants, then 3tree-3."""
    rng = random.Random(3)
    variants = ("outer-planar", "outer-quasi", "closed-outer-planar", "closed-outer-quasi")
    for i in range(60):
        variant = variants[i % 4]
        n = 5 + (i // 4) % 7
        p = rng.uniform(0.4, 0.9)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # connected
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        k = rng.randint(1, 3) if variant.endswith("planar") else rng.randint(2, 4)
        yield build_graph(n, sorted(edges)), k, variant
    yield planar_3tree_levels(3), 3, "outer-quasi"


def pinned_encodings():
    for g, k, variant in pinned_instances():
        yield encode(g, k, variant)[0]


# (first 16 hex digits of the model's SHA-256 or None for UNSAT, final
# len(solver.clauses)); a faster solver must still walk the same search
PINNED_TRAJECTORIES = [
    ('376cd4b084d42690', 68), ('68f0870932dd5473', 140), ('8c5d41153e11a606', 255),
    (None, 125), ('b7b3e9a926127d2a', 314), ('097946ec61a1b16c', 232),
    ('b4a2dd23f3e249ce', 531), (None, 385), (None, 1132),
    (None, 398), (None, 1466), (None, 1193),
    (None, 1913), (None, 1344), (None, 2742),
    ('07e5a96fcfecf744', 804), (None, 2346), (None, 1320),
    (None, 2370), (None, 4228), (None, 6876),
    ('bb94f1c89db505c5', 3232), (None, 6404), (None, 6800),
    (None, 9596), (None, 3938), (None, 16911),
    ('6d2bf8b543c716f0', 8860), (None, 173), ('68f0870932dd5473', 140),
    ('aaba081155aebe43', 176), ('51dff4c9034b0aed', 118), (None, 441),
    ('850299ab23765042', 352), (None, 545), ('91c14ba31ca7d3f2', 493),
    (None, 1525), ('c0cb166d514445c5', 479), (None, 2098),
    ('45ad18fb04d038df', 1163), (None, 3404), (None, 1240),
    (None, 2270), ('94d3154d46ac9fef', 1388), (None, 2876),
    ('1f7373e7637f10c0', 2028), (None, 6288), (None, 2163),
    (None, 9927), (None, 4794), (None, 5593),
    ('b8ee0ec2111dcd04', 2112), (None, 5380), ('6439003c370a4440', 2738),
    (None, 9156), (None, 20212), ('a6f0c16af3a2f09e', 129),
    (None, 116), ('5bc9ea08c384cd3d', 190), ('e290d5afd57caf0d', 190),
    ('6d4a8b52f5371890', 10020),
]


def test_embedded_solver_trajectory_is_pinned():
    got = []
    for cnf in pinned_encodings():
        solver = CdclSolver(cnf.num_vars, cnf.clauses)
        model = solver.solve()
        digest = None if model is None else sha256(" ".join(map(str, model)).encode()).hexdigest()[:16]
        got.append((digest, len(solver.clauses)))
    assert got == PINNED_TRAJECTORIES


# the same for the quasi instances, solved with MutualCrossingCap for the
# cap block wherever k > 2 and the block holds a clause
PINNED_NATIVE_TRAJECTORIES = [
    ('68f0870932dd5473', 140), (None, 125), ('097946ec61a1b16c', 232),
    (None, 385), (None, 398), (None, 1103),
    (None, 1344), ('07e5a96fcfecf744', 799), (None, 1320),
    (None, 3287), ('2d7ab1d8810b15f0', 2425), (None, 4777),
    (None, 3938), ('03b4294ad09eed4b', 5549), ('68f0870932dd5473', 140),
    ('51dff4c9034b0aed', 118), ('850299ab23765042', 352), ('91c14ba31ca7d3f2', 493),
    ('c0cb166d514445c5', 448), ('45ad18fb04d038df', 1163), (None, 1240),
    ('94d3154d46ac9fef', 1355), ('1f7373e7637f10c0', 1760), (None, 2163),
    (None, 3361), ('b8ee0ec2111dcd04', 1842), ('6439003c370a4440', 2064),
    (None, 10938), (None, 116), ('e290d5afd57caf0d', 190),
    ('7b0bd887297ab25f', 6065),
]


def test_native_cap_trajectory_is_pinned():
    got = []
    for g, k, variant in pinned_instances():
        if variant.endswith("quasi"):
            cnf, vm = encode(g, k, variant)
            block = sat._mutual_cap_clauses(g.edges, k, vm.neg_cross) if k > 2 else []
            start = len(encode_order_axioms(g.n)[0].clauses) + 8 * crossing_vars(vm)
            assert cnf.clauses[start:start + len(block)] == block
            del cnf.clauses[start:start + len(block)]
            cap = MutualCrossingCap(g.edges, k, vm.neg_cross) if block else None
            solver = CdclSolver(cnf.num_vars, cnf.clauses, cap)
            model = solver.solve()
            digest = None if model is None else sha256(" ".join(map(str, model)).encode()).hexdigest()[:16]
            got.append((digest, len(solver.clauses)))
    assert got == PINNED_NATIVE_TRAJECTORIES


def test_solver_rejects_literal_zero():
    # 0 would index the watch list of the last variable's negation
    with pytest.raises(ValueError, match=r"literal 0 in clause \[0, 1\]"):
        CdclSolver(2, [[0, 1], [-1]])


def test_solver_adopts_the_callers_clause_lists():
    # each clause is held once: every list the solver stores is the caller's
    # own, units and the empty clause apart
    first, unit, twin, same, empty = [1, 2], [-1], [2, -3, 1], [2, -3, 1], []
    solver = CdclSolver(3, [first, unit, twin, same])
    assert [id(c) for c in solver.clauses] == [id(first), id(twin), id(same)]
    assert solver.units == [-1] and solver.ok
    assert not CdclSolver(3, [first, empty]).ok
    cnf = encode(planar_3tree_levels(3), 3, "outer-quasi")[0]
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    originals = [c for c in cnf.clauses if len(c) > 1]
    assert len(solver.clauses) == len(originals)
    assert all(kept is c for kept, c in zip(solver.clauses, originals))


def test_solver_rejects_a_variable_above_num_vars():
    # -3 would wrap to slot 2 * 2 + 1 - 3 = 2 and share literal 2's watches
    with pytest.raises(ValueError, match="variable 3 exceeds num_vars 2"):
        CdclSolver(2, [[3, 1]])
    with pytest.raises(ValueError, match="variable 3 exceeds num_vars 2"):
        CdclSolver(2, [[1, 2], [-3]])


def test_activity_rescale_keeps_branching_on_the_highest_activity():
    nv, clauses = pigeonhole(6, 5)
    solver = CdclSolver(nv, clauses)
    solver.act_inc = 1e99  # some activity passes 1e100 within a few conflicts
    decide, picks = solver._decide, []

    def checked_decide():
        free = [v for v in range(1, nv + 1) if solver.lval[v] < 0]
        lit = decide()
        if solver.act_inc < 1e90:  # rescaled
            best = max(free, key=lambda v: (solver.activity[v], -v))
            picks.append((abs(lit), best))
        return lit

    solver._decide = checked_decide
    assert solver.solve() is None
    assert picks and all(got == best for got, best in picks)
