"""CNF encodings: clause counts, class verdicts, oracle agreement, DIMACS text."""
from __future__ import annotations

import random
from hashlib import sha256
from itertools import combinations, permutations, product
from math import comb

import pytest

from okplanar import cdcl, sat
from okplanar.cdcl import CdclSolver, SolverTimeout
from okplanar.drawing import (
    is_closed_drawing,
    make_drawing,
)
from okplanar.generators import complete, complete_bipartite, planar_3tree_levels
from okplanar.graphs import build_graph
from okplanar.maximal import saturate
from okplanar.recognition import brute_force_recognize, check_refutation
from okplanar.sat import (
    EncodingTooLarge,
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
    rank = {v: i for i, v in enumerate(order)}
    return [var if rank[u] < rank[v] else -var for (u, v), var in vm.order_var.items()]


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
        assert len(vm.cross_var) == expected_y
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
    # over the brute-force cap, and over N_LIMIT: a NO, not a size error
    (complete(12), 2, "outer-planar", "brute", "degeneracy"),
    (complete(sat.N_LIMIT + 1), 2, "closed-outer-quasi", "sat", "edge-count"),
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
    for cap, k in ((10, 3), (100, 3), (500, 4)):
        monkeypatch.setattr(sat, "CLAUSE_CAP", cap)
        with pytest.raises(EncodingTooLarge) as e:
            encode_outer_quasi(complete(9), k)
        assert e.value.count == cap + 1
        assert str(e.value) == (f"mutual-crossing clauses exceed cap {cap}: "
                                f"at least {cap + 1} size-{k} disjoint edge subsets")


def test_over_cap_quasi_encoding_is_refused_before_any_clause(monkeypatch, tmp_path):
    # K25 has 2,656,500 disjoint edge triples; the count stops past the cap
    def no_clauses(*args):
        raise AssertionError("encoding started")

    monkeypatch.setattr(sat, "encode_order_axioms", no_clauses)
    with pytest.raises(EncodingTooLarge) as e:
        encode_outer_quasi(complete(25), 3)
    assert e.value.count == sat.CLAUSE_CAP + 1
    with pytest.raises(EncodingTooLarge):
        recognize(complete(25), 3, "outer-quasi", emit_cnf=str(tmp_path / "k25.cnf"))


def cap_oracle_graphs(rng, k):
    """Random graphs with room for k pairwise disjoint edges."""
    for _ in range(6):
        n = rng.randint(2 * k, 2 * k + 2)
        pairs = list(combinations(range(n), 2))
        yield build_graph(n, rng.sample(pairs, min(len(pairs), rng.randint(n, 2 * n))))


def neg_y(vm, e, f):
    return -vm.cross_var.get((e, f), vm.cross_var.get((f, e)))


def disjoint(*edges):
    return len({v for e in edges for v in e}) == 2 * len(edges)


def test_mutual_crossing_cap_matches_a_combinations_oracle():
    rng = random.Random(505)
    for k in range(2, 6):
        emitted = 0
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_quasi(g, k)
            expected = [[neg_y(vm, e, f) for e, f in combinations(subset, 2)]
                        for subset in combinations(g.edges, k) if disjoint(*subset)]
            start = len(cnf.clauses) - len(expected)
            assert start == len(encode_order_axioms(g.n)[0].clauses) + 8 * len(vm.cross_var)
            assert cnf.clauses[start:] == expected, (g.edges, k)
            emitted += len(expected)
        assert emitted > 0


def test_per_edge_crossing_cap_matches_a_combinations_oracle():
    rng = random.Random(606)
    for k in range(2, 6):
        counted = 0
        for g in cap_oracle_graphs(rng, k):
            cnf, vm = encode_outer_planar(g, k)
            oracle, ovm = encode_order_axioms(g.n)
            encode_crossing_links(g, oracle, ovm)
            for e in g.edges:
                lits = [-neg_y(ovm, e, f) for f in g.edges if disjoint(e, f)]
                sat._seq_counter_le(oracle, ovm, lits, k, tag=f"cap{e[0]}-{e[1]}")
                counted += len(lits) > k
            assert (cnf.clauses, vm.aux) == (oracle.clauses, ovm.aux), (g.edges, k)
        assert counted > 0


def test_n_limit_guardrail(monkeypatch):
    with pytest.raises(EncodingTooLarge):
        encode_outer_planar(build_graph(sat.N_LIMIT + 1, [(0, 1)]), 1)
    monkeypatch.setattr(sat, "N_LIMIT", 5)
    with pytest.raises(EncodingTooLarge):
        recognize(cycle(6), 0, "closed-outer-planar")
    assert recognize(cycle(5), 0, "closed-outer-planar").found is not None


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
    f = CnfFormula(num_vars=1)
    f.add([1])
    assert dimacs_text(f) == "p cnf 1 1\n1 0\n"


def test_decode_rejects_drawing_outside_the_class():
    # a well-formed order whose drawing breaks each rule of the class
    for g, variant, k, order, why in (
        (complete(4), "outer-planar", 0, (0, 1, 2, 3), "crosses edge"),
        (complete(4), "outer-quasi", 2, (0, 1, 2, 3), "mutually crossing"),
        (cycle(4), "closed-outer-planar", 4, (0, 2, 1, 3), "not closed"),
    ):
        cnf, vm = encode(g, k, variant)
        with pytest.raises(ValueError, match=why):
            decode_model(order_units(vm, order), vm, g)


def test_decode_rejects_a_cyclic_triple():
    # a 3-cycle ties scores, the one way a tournament fails to be an order
    for n in (3, 5):
        g = cycle(n)
        _, vm = encode_outer_planar(g, n)
        model = order_units(vm, range(n))
        model[vm.order_var[(0, 2)] - 1] *= -1  # 0 before 1 before 2 before 0
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


def pinned_encodings():
    """60 seeded encodings, n = 5..11, all four variants, then 3tree-3."""
    rng = random.Random(3)
    variants = ("outer-planar", "outer-quasi", "closed-outer-planar", "closed-outer-quasi")
    for i in range(60):
        variant = variants[i % 4]
        n = 5 + (i // 4) % 7
        p = rng.uniform(0.4, 0.9)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # connected
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        k = rng.randint(1, 3) if variant.endswith("planar") else rng.randint(2, 4)
        yield encode(build_graph(n, sorted(edges)), k, variant)[0]
    yield encode(planar_3tree_levels(3), 3, "outer-quasi")[0]


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


def test_solver_rejects_literal_zero():
    # 0 would index the watch list of the last variable's negation
    with pytest.raises(ValueError, match=r"literal 0 in clause \[0, 1\]"):
        CdclSolver(2, [[0, 1], [-1]])


def test_solver_adopts_the_callers_clause_lists():
    # each clause is held once: the solver stores the caller's list itself
    repeated, tautology, plain = [1, 1, 2], [1, -1, 3], [2, 3]
    solver = CdclSolver(3, [repeated, tautology, plain])
    assert solver.clauses == [[1, 2], [2, 3]]
    assert solver.clauses[1] is plain
    assert solver.clauses[0] is not repeated and repeated == [1, 1, 2]
    assert not any(c is tautology for c in solver.clauses)
    cnf = encode(planar_3tree_levels(3), 3, "outer-quasi")[0]
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    originals = [c for c in cnf.clauses if len(c) > 1]
    assert len(solver.clauses) == len(originals)
    assert all(kept is c for kept, c in zip(solver.clauses, originals))


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
