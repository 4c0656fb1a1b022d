"""Formula emission, rendering round-trips, and finite-model semantics."""

import hashlib
import json
import random
import re
from itertools import combinations

import networkx as nx
import pytest

from okplanar import mso2
from okplanar.cli import main
from okplanar.generators import complete
from okplanar.graphs import Graph, build_graph
from okplanar.mso2 import (
    FORMULA_NODE_CAP,
    SORTS,
    EmittedFormula,
    _conjuncts,
    _crossing,
    _cycle_set,
    _disconnected_edges,
    _formula_nodes,
    _guard_split,
    _hamiltonian,
    _miniscope,
    _reads_bit,
    _span,
    emit_formula,
    evaluate_formula,
    lint_formula,
    parse_sexpr,
    to_latex,
    to_sexpr,
)
from okplanar.recognition import brute_force_recognize


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])

CROSS_OPEN = "(exists vertex-set C"
HAM_OPEN = "(exists edge-set Fp"

COMBOS = [
    ("closed-outer-planar", 1),
    ("closed-outer-planar", 2),
    ("closed-outer-planar", 3),
    ("closed-outer-quasi", 2),
    ("closed-outer-quasi", 3),
]


def atlas_connected(n_max: int) -> list[Graph]:
    out = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 3 <= n <= n_max and nx.is_connected(G) and G.number_of_edges() <= 10:
            out.append(build_graph(n, [tuple(e) for e in G.edges()]))
    return out


def test_emit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        emit_formula(1, "closed-outer-quasi")
    with pytest.raises(ValueError):
        emit_formula(2, "outer-planar")


def test_variant_alias_canonicalizes():
    a = emit_formula(2, "closed-outer-quasi-planar")
    b = emit_formula(2, "closed-outer-quasi")
    assert a.variant == "closed-outer-quasi"
    assert a.sexpr == b.sexpr
    assert a.latex == b.latex


def test_planar_template_structure():
    # k+1 crossing blocks around one boundary-cycle subformula
    f = emit_formula(1, "closed-outer-planar")
    assert f.sexpr.count(CROSS_OPEN) == 2
    assert f.sexpr.count(HAM_OPEN) == 1
    f3 = emit_formula(3, "closed-outer-planar")
    assert f3.sexpr.count(CROSS_OPEN) == 4
    assert f3.sexpr.count(HAM_OPEN) == 1


def test_quasi_template_structure():
    # C(k,2) distinctness inequalities and as many crossing blocks
    f = emit_formula(3, "closed-outer-quasi")
    assert f.sexpr.count("(not (= e") == 3
    assert f.sexpr.count(CROSS_OPEN) == 3
    f2 = emit_formula(2, "closed-outer-quasi")
    assert f2.sexpr.count("(not (= e") == 1
    assert f2.sexpr.count(CROSS_OPEN) == 1


def test_emit_is_deterministic():
    for variant, k in COMBOS:
        a = emit_formula(k, variant)
        b = emit_formula(k, variant)
        assert a.sexpr == b.sexpr and a.latex == b.latex


def test_parse_pretty_parse_is_fixed_point():
    for variant, k in COMBOS + [("closed-outer-planar", 4), ("closed-outer-quasi", 4)]:
        f = emit_formula(k, variant)
        ast = parse_sexpr(f.sexpr)
        assert ast == f.ast
        assert to_sexpr(ast) == f.sexpr
        assert parse_sexpr(to_sexpr(ast)) == ast


def test_sexpr_at_the_node_cap_keeps_its_digests():
    # the largest formula each variant emits under FORMULA_NODE_CAP, pinned
    # to the digests of the text before the one-pass writer
    for variant, k, digest in (
        ("closed-planar", 193, "392158194021d94ae18a83058d30e8cffaa918d356cf9e778a623b03c6f50e45"),
        ("closed-quasi", 32, "7b14d8fa9943c65b4af78311bdbbc70ae1c64bd2bcc770de51dbba837aaa7a49"),
    ):
        assert hashlib.sha256(emit_formula(k, variant).sexpr.encode()).hexdigest() == digest, (variant, k)
    with pytest.raises(ValueError, match="unknown node head 'frobnicate'"):
        to_sexpr(("and", ("=", "x", "y"), ("frobnicate", "x")))


def ast_nodes(node) -> int:
    if not isinstance(node, tuple):
        return 0
    return 1 + sum(ast_nodes(c) for c in node[1:])


def test_node_count_closed_form_matches_the_emitted_ast():
    for variant in ("closed-outer-planar", "closed-outer-quasi"):
        for k in (*range(8), 15, 30):
            if variant.endswith("quasi") and k < 2:
                continue
            f = emit_formula(k, variant)
            assert _formula_nodes(k, variant) == ast_nodes(f.ast), (variant, k)


def test_emit_refuses_a_formula_above_the_node_cap_before_building_it(capsys, monkeypatch):
    def no_block(*args):
        raise AssertionError("built a crossing block")

    monkeypatch.setattr(mso2, "_crossing", no_block)
    for variant, canon in (("closed-planar", "closed-outer-planar"), ("closed-quasi", "closed-outer-quasi")):
        k = next(k for k in range(2, 1000) if _formula_nodes(k, canon) > FORMULA_NODE_CAP)
        assert _formula_nodes(k - 1, canon) <= FORMULA_NODE_CAP
        for bad in (k, 400):
            assert main(["mso2", "--k", str(bad), "--variant", variant]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"above FORMULA_NODE_CAP = {FORMULA_NODE_CAP}" in captured.err, captured.err


def normal_form(node) -> tuple:
    return _miniscope(node).node


def test_normal_form_of_the_planar_formula_nests_each_edge_in_the_last_disjunct():
    # each forall e_i moves inside the disjunct after (not crossing(e, e_(i-1))),
    # so a tuple of edges is extended only past pairs that cross; each block
    # stands in its own normal form, and the boundary's parts come cheapest first
    block = lambda node: to_sexpr(normal_form(node))
    expected = """
    (exists edge-set Estar
      (and
        {span}
        {cycle}
        (not {disconnected})
        (forall edge e
          (forall edge e1
            (implies
              (not (= e1 e))
              (or
                (not {e1})
                (forall edge e2
                  (implies
                    (and (not (= e2 e)) (not (= e1 e2)))
                    (or
                      (not {e2})
                      (forall edge e3
                        (implies
                          (and (not (= e3 e)) (not (= e1 e3)) (not (= e2 e3)))
                          (not {e3}))))))))))))
    """.format(span=block(_span("Estar")), cycle=block(_cycle_set("Estar")),
               disconnected=block(_disconnected_edges("Estar")),
               **{x: block(_crossing("Estar", "e", x)) for x in ("e1", "e2", "e3")})
    got = normal_form(emit_formula(2, "closed-planar").ast)
    assert parse_sexpr(to_sexpr(got)) == parse_sexpr(expected)


def test_normal_form_is_idempotent_and_keeps_free_names():
    rng = random.Random(77)
    formulas = [random_formula(rng, {}, 5) for _ in range(300)]
    formulas += [emit_formula(k, variant).ast for variant, k in COMBOS]
    for f in formulas:
        nf = normal_form(f)
        assert normal_form(nf) == nf, to_sexpr(f)
        for sub in subterms(f):
            assert free_names(normal_form(sub)) == free_names(sub), to_sexpr(sub)
        for q in subterms(nf):
            if q[0] in ("forall", "exists"):
                assert q[4] == free_names(q)


def test_parser_rejects_malformed_text():
    for bad in ["", "(", "(and)", "(in x)", "(in x", "(frobnicate x y)", "(= a b) (= c d)",
                "(exists vertex x", "(forall vertex", "(forall bag x (= x x))"]:
        with pytest.raises(ValueError):
            parse_sexpr(bad)


def test_lint_clean_on_emitted_grid():
    for variant in ("closed-outer-planar", "closed-outer-quasi"):
        for k in range(1, 5):
            if variant.endswith("quasi") and k < 2:
                continue
            assert lint_formula(emit_formula(k, variant).ast) == []


def test_lint_reports_violations():
    assert any("unbound" in v for v in lint_formula(("in", "x", "C")))
    assert any("unknown head" in v for v in lint_formula(("xor", ("=", "a", "a"))))
    bad_sort = ("exists", "vertex", "x", ("exists", "edge", "f", ("=", "x", "f")))
    assert any("sort" in v or "compares" in v for v in lint_formula(bad_sort))
    mixed = ("exists", "vertex-set", "A", ("exists", "edge-set", "F", ("subseteq", "A", "F")))
    assert any("mixes" in v for v in lint_formula(mixed))


def test_lint_refuses_malformed_nodes_and_the_evaluator_with_it():
    # a relation takes exactly two names: the evaluator reads only the first
    # two, so one with more or fewer must not get past lint
    for bad, msg in [
        (("=", "x"), "= arity 1"),
        (("exists", "vertex", "x", ("=", "x", "x", "x")), "= arity 3"),
        (("exists", "vertex", "x", ("exists", "vertex-set", "S", ("in", "x", "S", "S"))),
         "in arity 3"),
    ]:
        assert lint_formula(bad) == [msg]
        with pytest.raises(ValueError, match=msg):
            evaluate_formula(bad, cycle(4))
    eq = ("=", "x", "x")
    for bad, msg in [
        (("not", "x"), "malformed node 'x'"),
        (("exists", "vertex", "x"), "exists arity 2"),
        (("forall", "vertex-bag", "x", eq), "unknown sort 'vertex-bag'"),
        (("exists", "vertex", "x", ("and", eq)), "and with 1 children"),
        (("exists", "vertex", "x", ("or", eq)), "or with 1 children"),
        (("exists", "vertex", "x", ("not", eq, eq)), "not arity != 1"),
        (("exists", "vertex", "x", ("implies", eq)), "implies arity != 2"),
    ]:
        assert lint_formula(bad) == [msg]
    # a name that is not a string is a violation, not a TypeError
    for bad, msg in [
        (("=", ["x"], "x"), "= name ['x'] is not a string"),
        (("exists", "vertex", ["x"], eq), "exists name ['x'] is not a string"),
    ]:
        assert lint_formula(bad) == [msg]
        with pytest.raises(ValueError, match=re.escape(msg)):
            evaluate_formula(bad, cycle(4))


def test_latex_rendering_fragments():
    f = emit_formula(1, "closed-outer-planar")
    for frag in ["E^{*}", "\\forall", "\\exists", "\\wedge", "\\vee", "\\neq", "\\in", "I(", "e_{1}", "e_{2}"]:
        assert frag in f.latex
    assert "e_{3}" not in f.latex
    assert "Estar" not in f.latex


def test_to_dict_is_json_ready():
    f = emit_formula(2, "closed-outer-quasi")
    d = json.loads(json.dumps(f.to_dict()))
    assert d["k"] == 2
    assert d["variant"] == "closed-outer-quasi"
    assert d["sexpr"].startswith("(exists edge-set Estar")
    assert isinstance(f, EmittedFormula)


def test_hamiltonian_block_semantics():
    # the boundary-cycle subformula alone, closed under one quantifier
    ham = ("exists", "edge-set", "F", _hamiltonian("F"))
    assert lint_formula(ham) == []
    assert evaluate_formula(ham, cycle(5))
    assert evaluate_formula(ham, complete(4))
    assert not evaluate_formula(ham, build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not evaluate_formula(ham, star)
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not evaluate_formula(ham, two_triangles)
    bowtie = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert not evaluate_formula(ham, bowtie)


def test_sanity_spec_examples():
    c5 = cycle(5)
    k4 = complete(4)
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert evaluate_formula(emit_formula(1, "closed-outer-planar"), c5)
    assert evaluate_formula(emit_formula(1, "closed-outer-planar"), k4)
    assert not evaluate_formula(emit_formula(2, "closed-outer-quasi-planar"), k4)
    for variant, k in COMBOS:
        assert not evaluate_formula(emit_formula(k, variant), p3)


def test_evaluator_caps_rejected():
    big_n = build_graph(8, [])
    with pytest.raises(ValueError):
        evaluate_formula(emit_formula(1, "closed-outer-planar"), big_n)
    big_m = build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)][:11])
    with pytest.raises(ValueError):
        evaluate_formula(emit_formula(1, "closed-outer-planar"), big_m)
    with pytest.raises(ValueError):
        evaluate_formula(("in", "x", "C"), cycle(4))


def test_evaluator_refuses_a_formula_nested_too_deeply(monkeypatch):
    def chain(depth: int) -> tuple:
        # exists x0 (exists x1 (and (= x1 x0) (exists x2 (and (= x2 x1) ...))))
        node = ("=", f"x{depth}", f"x{depth - 1}")
        for i in range(depth, 0, -1):
            node = ("exists", "vertex", f"x{i}", node if i == depth else ("and", ("=", f"x{i}", f"x{i - 1}"), node))
        return ("exists", "vertex", "x0", node)

    one = build_graph(1, [])
    assert evaluate_formula(chain(200), one) is True
    assert evaluate_formula(emit_formula(191, "closed-planar"), cycle(4)) is True  # EVAL_MAX_DEPTH deep

    # past EVAL_MAX_DEPTH nested quantifiers the refusal comes before lint
    # and the normal form start
    def must_not_run(*args):
        raise AssertionError("a too-deep formula reached lint or the normal form")

    with monkeypatch.context() as m:
        m.setattr(mso2, "lint_formula", must_not_run)
        m.setattr(mso2, "_miniscope", must_not_run)
        for deep, g in [(chain(250), one), (emit_formula(192, "closed-planar"), cycle(4))]:
            with pytest.raises(ValueError, match=r"nests too deeply for the evaluator: quantifier depth \d+ > 201"):
                evaluate_formula(deep, g)

    # one quantifier under 1,000 nots passes the depth cap and trips the
    # recursion limit; a second call must not get past the handler either
    node = ("=", "x", "x")
    for _ in range(1000):
        node = ("not", node)
    for _ in range(2):
        with pytest.raises(ValueError, match="nests too deeply"):
            evaluate_formula(("exists", "vertex", "x", node), one)


def test_evaluator_compiles_a_formula_once_and_clears_its_memos_per_graph():
    # true iff n >= 2; its one set quantifier memoizes its answer under the
    # empty key, so a memo left from the previous graph would repeat it
    f = parse_sexpr("(exists vertex-set S (and (exists vertex x (in x S)) (exists vertex y (not (in y S)))))")
    mso2._program.cache_clear()
    assert [evaluate_formula(f, build_graph(n, [])) for n in (1, 2, 1, 3)] == [False, True, False, True]
    info = mso2._program.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_evaluator_rejects_ill_sorted_formulas():
    # f is an edge where I wants a vertex: no answer would mean anything
    bad = parse_sexpr("(forall edge f (exists edge e (and (I e f) (= e e))))")
    assert lint_formula(bad)
    with pytest.raises(ValueError, match="'f' has sort edge"):
        evaluate_formula(bad, cycle(4))


def test_memo_keeps_apart_subformulas_that_differ_in_names_or_sorts():
    # each pair of inner set quantifiers is equal up to which free name sits
    # where, or up to a sort; a memo key missing a free name's value, or
    # one entry serving both, would make it False
    differ = "(exists vertex-set U (and (subseteq U {}) (not (subseteq U {}))))"
    twins = [
        f"(exists vertex-set S (exists vertex-set T (and {differ.format('S', 'T')} "
        f"(not {differ.format('T', 'S')}))))",
        "(exists vertex-set S (and (forall vertex-set U (subseteq U S)) "
        "(not (forall vertex-set U (subseteq S U)))))",
        "(and (forall vertex-set U (exists vertex x (= x x))) "
        "(not (forall vertex-set U (exists edge x (= x x)))))",
    ]
    g = build_graph(2, [])
    for text in twins:
        f = parse_sexpr(text)
        assert naive_eval(f, g, {})
        assert evaluate_formula(f, g), text


def test_agreement_with_oracle_small_corpus():
    # every connected graph on up to five vertices, both variants
    for g in atlas_connected(5):
        for variant, k in COMBOS:
            got = evaluate_formula(emit_formula(k, variant), g)
            want = brute_force_recognize(g, k, variant) is not None
            assert got == want, (g.n, g.edges, variant, k)


def test_agreement_on_seeded_six_vertex_graphs():
    rng = random.Random(5208)
    pool = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for trial in range(6):
        g = build_graph(6, rng.sample(pool, rng.randint(6, 10)))
        for variant, k in [("closed-outer-planar", 2), ("closed-outer-quasi", 3)]:
            got = evaluate_formula(emit_formula(k, variant), g)
            want = brute_force_recognize(g, k, variant) is not None
            assert got == want, (g.edges, variant, k)


def test_closed_outer_zero_planar_agrees_with_oracle():
    # k = 0 is in the planar range: the formula says no two edges cross
    rng = random.Random(2600)
    formula = emit_formula(0, "closed-planar")
    verdicts = set()
    for trial in range(100):
        n = rng.randint(3, 6)
        pool = list(combinations(range(n), 2))
        g = build_graph(n, rng.sample(pool, rng.randint(n - 1, min(len(pool), 10))))
        want = brute_force_recognize(g, 0, "closed-outer-planar") is not None
        assert evaluate_formula(formula, g) == want, (g.n, g.edges)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_truth_is_monotone_in_k():
    rng = random.Random(917)
    pool = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for trial in range(5):
        g = build_graph(5, rng.sample(pool, rng.randint(5, 9)))
        if evaluate_formula(emit_formula(1, "closed-outer-planar"), g):
            assert evaluate_formula(emit_formula(2, "closed-outer-planar"), g)
        if evaluate_formula(emit_formula(2, "closed-outer-quasi"), g):
            assert evaluate_formula(emit_formula(3, "closed-outer-quasi"), g)


def test_cycle_is_closed_for_every_variant():
    for n in (4, 5, 6):
        g = cycle(n)
        for variant, k in COMBOS:
            assert evaluate_formula(emit_formula(k, variant), g)


# ---------------------------------------------------------------------------
# Differential test against a naive evaluator
# ---------------------------------------------------------------------------

SET_SORTS = ("vertex-set", "edge-set")
NAME_POOL = {"vertex": ("x", "y"), "edge": ("e", "f"), "vertex-set": ("S", "T"), "edge-set": ("F", "G")}
ELEM_OF = {"vertex-set": "vertex", "edge-set": "edge"}


def naive_eval(node, g: Graph, env: dict) -> bool:
    """Reference semantics: every quantifier over its whole domain, sets as
    frozensets, no memo and no guards."""
    head = node[0]
    if head in ("forall", "exists"):
        _, sort, name, body = node
        elems = range(g.n) if sort.startswith("vertex") else range(g.m)
        dom = elems
        if sort in SET_SORTS:
            dom = [frozenset(c) for r in range(len(elems) + 1) for c in combinations(elems, r)]
        hits = (naive_eval(body, g, {**env, name: val}) for val in dom)
        return any(hits) if head == "exists" else all(hits)
    if head in ("and", "or"):
        hits = (naive_eval(c, g, env) for c in node[1:])
        return all(hits) if head == "and" else any(hits)
    if head == "not":
        return not naive_eval(node[1], g, env)
    if head == "implies":
        return not naive_eval(node[1], g, env) or naive_eval(node[2], g, env)
    a, b = env[node[1]], env[node[2]]
    if head == "=":
        return a == b
    if head == "in":
        return a in b
    if head == "subseteq":
        return a <= b
    return b in g.edges[a]


def random_atom(rng: random.Random, scope: dict):
    atoms = []
    for a, sa in scope.items():
        for b, sb in scope.items():
            if sa == sb:
                atoms.append(("subseteq" if sa in SET_SORTS else "=", a, b))
            elif ELEM_OF.get(sb) == sa:
                atoms += [("in", a, b)] * 2
            elif (sa, sb) == ("edge", "vertex"):
                atoms.append(("I", a, b))
    return rng.choice(atoms)


def random_formula(rng: random.Random, scope: dict, depth: int):
    """A well-sorted formula whose free names all lie in scope. Set
    quantifiers often get guard-shaped bodies; the small name pools make
    shadowing common."""
    r = rng.random()
    if scope and (depth == 0 or r < 0.2):
        return random_atom(rng, scope)
    if not scope or r < 0.6:
        sort = rng.choice(SORTS)
        name = rng.choice(NAME_POOL[sort])
        head = rng.choice(("forall", "exists"))
        inner = {**scope, name: sort}
        if sort in SET_SORTS and rng.random() < 0.7:
            return (head, sort, name, guarded_body(rng, head, sort, name, inner, depth - 1))
        if sort not in SET_SORTS and rng.random() < 0.6:
            return (head, sort, name, element_guarded_body(rng, head, sort, name, inner, depth - 1))
        return (head, sort, name, random_formula(rng, inner, depth - 1))
    if r < 0.7:
        return ("not", random_formula(rng, scope, depth - 1))
    if r < 0.8:
        return ("implies", random_formula(rng, scope, depth - 1), random_formula(rng, scope, depth - 1))
    head = rng.choice(("and", "or"))
    return (head,) + tuple(random_formula(rng, scope, depth - 1) for _ in range(rng.randint(2, 3)))


def guarded_body(rng: random.Random, head: str, sort: str, s: str, scope: dict, depth: int):
    """exists: (and …); forall: (implies (and …) …). The conjuncts mix
    subseteq bounds, element foralls over s's element sort (guards or
    not), their negations and free-form parts, sometimes nested one and
    deeper."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.3:
            same = [t for t, st in scope.items() if st == sort]
            parts.append(("subseteq", s, rng.choice(same)))
        elif kind < 0.75:
            parts.append(element_forall(rng, ELEM_OF[sort], s, scope, max(depth - 1, 0)))
        elif kind < 0.85:
            parts.append(("not", element_forall(rng, ELEM_OF[sort], s, scope, max(depth - 1, 0))))
        else:
            parts.append(random_formula(rng, scope, max(depth - 1, 0)))
    if len(parts) > 2 and rng.random() < 0.5:
        parts = [parts[0], ("and",) + tuple(parts[1:])]
    hyp = ("and",) + tuple(parts) if len(parts) > 1 else parts[0]
    if head == "exists":
        return hyp
    return ("implies", hyp, random_formula(rng, scope, max(depth - 1, 0)))


def element_guarded_body(rng: random.Random, head: str, sort: str, x: str, scope: dict, depth: int):
    """exists: (and …); forall: mostly (implies (and …) …), sometimes the
    bare (and …), which has no guards. The conjuncts mix element guards
    on x, guard shapes hidden under not or or, and free-form parts."""
    shapes = element_guard_atoms(sort, x, scope)
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if shapes and kind < 0.55:
            parts.append(rng.choice(shapes))
        elif shapes and kind < 0.75:
            hidden = rng.choice(shapes)
            other = random_formula(rng, scope, max(depth - 1, 0))
            parts.append(("not", hidden) if kind < 0.65 else ("or", hidden, other))
        else:
            parts.append(random_formula(rng, scope, max(depth - 1, 0)))
    if len(parts) > 2 and rng.random() < 0.5:
        parts = [parts[0], ("and",) + tuple(parts[1:])]
    hyp = ("and",) + tuple(parts) if len(parts) > 1 else parts[0]
    if head == "exists" or rng.random() < 0.25:
        return hyp
    return ("implies", hyp, random_formula(rng, scope, max(depth - 1, 0)))


def element_guard_atoms(sort: str, x: str, scope: dict) -> list:
    """The guard shapes on element x over the other names in scope:
    (in x S), (I x v) or (I e x), (= x y), (= y x) and (not (= x y))."""
    out = []
    for y, sy in scope.items():
        if y == x:
            continue
        if sy == sort + "-set":
            out.append(("in", x, y))
        elif (sort, sy) == ("edge", "vertex"):
            out.append(("I", x, y))
        elif (sort, sy) == ("vertex", "edge"):
            out.append(("I", y, x))
        elif sy == sort:
            out += [("=", x, y), ("=", y, x), ("not", ("=", x, y))]
    return out


def element_forall(rng: random.Random, elem: str, s: str, scope: dict, depth: int):
    """(forall x χ) with χ often reading s as (in x s), or as (in y s)
    under an inner binder of y, which may rebind x itself. The other part
    of χ is often (in y T) for an outer set T, so the guard's outcome
    depends on a set bound further out."""
    x = rng.choice(NAME_POOL[elem])
    inner = {**scope, x: elem}
    chi = random_formula(rng, inner, depth)
    r = rng.random()
    if r < 0.7:
        y = x
        if r < 0.35:
            y = rng.choice(NAME_POOL[elem])
            inner = {**inner, y: elem}
        outer = [t for t, st in inner.items() if st == elem + "-set" and t != s]
        other = random_formula(rng, inner, depth)
        if outer and rng.random() < 0.4:
            other = ("in", y, rng.choice(outer))
        chi = (rng.choice(("and", "or", "implies")), ("in", y, s), other)
        if r < 0.35:
            chi = (rng.choice(("forall", "exists")), elem, y, chi)
    return ("forall", elem, x, chi)


def subterms(node):
    yield node
    if node[0] in ("forall", "exists"):
        yield from subterms(node[3])
    elif node[0] not in ("=", "in", "subseteq", "I"):
        for c in node[1:]:
            yield from subterms(c)


def free_names(node) -> set:
    if node[0] in ("forall", "exists"):
        return free_names(node[3]) - {node[2]}
    if node[0] in ("=", "in", "subseteq", "I"):
        return {node[1], node[2]}
    return set().union(*(free_names(c) for c in node[1:]))


def flat_parts(node, head: str) -> list:
    if node[0] != head:
        return [node]
    return [c for child in node[1:] for c in flat_parts(child, head)]


def miniscope_features(node, out: set):
    """Add to out a tag for each kind of part that the normal form moves out
    of quantifier node: a conjunct of exists or a disjunct of forall free of
    the bound name while another one is not, or a hypothesis conjunct of
    forall free of it while the body is not."""
    head, sort, name, body = node
    if name not in free_names(body):
        return
    if head == "exists":
        groups = [("exists conjunct", flat_parts(body, "and"))]
    elif body[0] == "implies":
        groups = [("forall hypothesis", flat_parts(body[1], "and")), ("forall disjunct", flat_parts(body[2], "or"))]
    else:
        groups = [("forall disjunct", flat_parts(body, "or"))]
    for tag, parts in groups:
        moved = [p for p in parts if name not in free_names(p)]
        if moved and (tag == "forall hypothesis" or len(moved) < len(parts)):
            out.add(tag + " moves")
            if sort == "edge":
                out.add("edge quantifier moves")
            if any(q[0] in ("forall", "exists") and q[2] == name for p in moved for q in subterms(p)):
                out.add("moved part rebinds the name")


def formula_features(node, scope: dict, out: set) -> set:
    """Add to out a tag for each guard-related or miniscoping shape node
    contains."""
    head = node[0]
    if head in ("forall", "exists"):
        _, sort, name, body = node
        miniscope_features(node, out)
        hyp, _ = _guard_split(node)
        if sort in SET_SORTS:
            if scope.get(name) == sort:
                out.add("shadowed set")
            if head == "forall" and body[0] == "implies":
                out.add("forall implies")
            for c in hyp:
                if c[0] == "subseteq" and c[1] == name:
                    out.add("subseteq guard")
                if c[0] == "forall" and c[1] == ELEM_OF[sort] and c[2] != name:
                    if _reads_bit(c[3], name, c[2]):
                        out.add("bit guard")
                        if any(scope.get(t) in SET_SORTS for t in free_names(c) - {name}):
                            out.add("bit guard reads outer set")
                    elif any(n[0] == "in" and n[2] == name and n[1] != c[2] for n in subterms(c[3])):
                        out.add("foreign (in y S)")
                    elif any(q[0] in ("forall", "exists") and q[2] == c[2] and ("in", c[2], name) in subterms(q[3])
                             for q in subterms(c[3])):
                        out.add("shadowed element")
        else:
            inner = {**scope, name: sort}
            shapes = element_guard_atoms(sort, name, inner)
            if head == "forall" and any(c in shapes for c in _conjuncts(body)):
                out.add("bare forall over guard shapes")
            for c in hyp:
                if c in shapes:
                    tag = {"in": "in", "=": "=", "not": "not ="}.get(c[0]) or ("I x v" if c[1] == name else "I e x")
                    out.add("element guard " + tag)
                    if name in scope:
                        out.add("shadowed element guard")
                if c[0] in ("not", "or") and any(h in shapes for h in c[1:]) and c not in shapes:
                    out.add("guard under " + c[0])
        formula_features(body, {**scope, name: sort}, out)
    elif head not in ("=", "in", "subseteq", "I"):
        if head == "and" and any(c[0] == "and" for c in node[1:]):
            out.add("nested and")
        for c in node[1:]:
            formula_features(c, scope, out)
    return out


def test_evaluator_matches_naive_on_random_formulas():
    rng = random.Random(4242)
    seen: set = set()
    for trial in range(600):
        f = random_formula(rng, {}, 5)
        assert lint_formula(f) == [], f
        features = formula_features(f, {}, set())
        seen |= features
        for n in range(1, 5):
            pool = list(combinations(range(n), 2))
            g = build_graph(n, rng.sample(pool, rng.randint(0, min(4, len(pool)))))
            assert evaluate_formula(f, g) == naive_eval(f, g, {}), (trial, g.n, g.edges, to_sexpr(f))
            if g.m == 0 and "edge quantifier moves" in features:
                seen.add("empty edge domain")
    assert seen >= {"shadowed set", "forall implies", "subseteq guard", "bit guard",
                    "foreign (in y S)", "shadowed element", "nested and",
                    "bit guard reads outer set", "element guard in", "element guard I x v",
                    "element guard I e x", "element guard =", "element guard not =",
                    "shadowed element guard", "guard under not", "guard under or",
                    "bare forall over guard shapes", "exists conjunct moves",
                    "forall hypothesis moves", "forall disjunct moves",
                    "moved part rebinds the name", "empty edge domain"}, seen
