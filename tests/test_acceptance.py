"""Top-level acceptance checks, one test per claim the package stands on.

Each test prints a single summary line; the pytest -v report gives the
pass/fail verdict per claim. Runtime budgets are asserted where a claim
carries one. The corpora are built once at module scope and shared.
"""
from __future__ import annotations

import io
import json
import math
import random
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest

from okplanar.bounds import (
    degeneracy,
    outer_k_planar_chromatic_bound,
    outer_k_planar_degeneracy_bound,
    verify_degeneracy_bound,
)
from okplanar.cli import _PROP_ROWS, main, schema_path
from okplanar.drawing import crossing_report, edges_cross, make_drawing
from okplanar.generators import complete, random_outer_k_planar
from okplanar.graphs import build_graph, induced_subgraph, is_connected
from okplanar.maximal import (
    build_levels,
    find_long_edge,
    maximal_edge_count,
    replacement_split,
    saturate,
    verify_level_properties,
)
from okplanar.mso2 import emit_formula, evaluate_formula
from okplanar.recognition import (
    brute_force_recognize,
    check_refutation,
    refute,
)
from okplanar.sat import search_order

from oracles import largest_clique_in_class

# lazily built shared corpora, with the build time charged to the budget
# of whichever claim touches them first
_cache: dict = {}


def saturated_corpus() -> tuple[list, float]:
    """1350 saturated drawings: (n, k) in {8..16} x {2, 3, 4}, 50 starts each.

    Half the starts are empty graphs on a shuffled circular order, half are
    random nonempty in-class drawings; the saturated edge count must not
    depend on either.
    """
    if "saturated" not in _cache:
        t0 = time.monotonic()
        rng = random.Random(240817)
        out = []
        for n in range(8, 17):
            for k in (2, 3, 4):
                for s in range(50):
                    if s % 2:
                        d = random_outer_k_planar(n, k - 2, seed=rng.randrange(1 << 30))
                    else:
                        order = list(range(n))
                        rng.shuffle(order)
                        d = make_drawing(build_graph(n, []), order)
                    out.append((saturate(d, k), n, k))
        _cache["saturated"] = (out, time.monotonic() - t0)
    return _cache["saturated"]


def separator_corpus() -> tuple[list, float]:
    """500 seeded random drawings, n in {15..120}, generator k in {0..4}."""
    if "separator" not in _cache:
        t0 = time.monotonic()
        rng = random.Random(60517)
        out = []
        for _ in range(500):
            n = rng.randrange(15, 121)
            k = rng.randrange(0, 5)
            out.append((random_outer_k_planar(n, k, seed=rng.randrange(1 << 30)), k))
        _cache["separator"] = (out, time.monotonic() - t0)
    return _cache["separator"]


def test_recognition_matrix_named_families():
    # the end-to-end SAT verdict table for outer 3-quasi-planarity on the
    # named families, run through the CLI so the repro path is the tested
    # path; the 3-tree rows depend on the pinned level convention and are
    # reported without gating. No 23-vertex instance appears: the recorded
    # constructions pin no graph of that size, so none is claimed.
    t0 = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["repro", "props"])
    elapsed = time.monotonic() - t0
    doc = json.loads(buf.getvalue())
    jsonschema = pytest.importorskip("jsonschema")
    with open(schema_path("repro")) as fh:
        jsonschema.validate(doc, json.load(fh))
    rows = {r["name"]: r for r in doc["rows"]}
    assert set(rows) == {
        "K5", "K44", "grid44", "K6", "K35", "3tree-3-levels", "3tree-4-levels",
    }
    for name, want in [("K5", True), ("K44", True), ("grid44", True),
                       ("K6", False), ("K35", False)]:
        assert rows[name]["in_class"] is want, name
        assert not rows[name]["definition_sensitive"]
    for name in ("3tree-3-levels", "3tree-4-levels"):
        assert rows[name]["definition_sensitive"]
        assert rows[name]["pass"]  # reported under the pinned convention
    assert code == 0 and doc["pass"]
    assert elapsed < 60, f"matrix took {elapsed:.1f}s"
    print(f"PASS families matrix: 7/7 rows as expected in {elapsed:.1f}s")


def test_largest_complete_graph_per_k():
    # computed by exhaustive search, then compared with the closed form
    t0 = time.monotonic()
    got = {k: largest_clique_in_class(k) for k in (0, 1, 2, 3, 4, 6)}
    elapsed = time.monotonic() - t0
    for k, n in got.items():
        assert n == math.isqrt(4 * k + 1) + 2, (k, n)
    assert [got[k] for k in (0, 1, 2, 3, 4, 6)] == [3, 4, 5, 5, 6, 7]
    assert elapsed < 30, f"search took {elapsed:.1f}s"
    print(f"PASS largest complete graphs: {got} in {elapsed:.1f}s")


def cycle_plus(n, extra=()):
    edges = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    return make_drawing(build_graph(n, edges), range(n))


# deterministic drawings driving every branch of the case analysis; the
# random corpus below is too dense to leave the cutting-edge case often,
# and can never reach trivial-small (needs n <= 2k+3)
CASE_DRAWINGS = [
    ("trivial-small", lambda: make_drawing(complete(4), range(4))),
    ("cutting-edge", lambda: cycle_plus(12, [(0, 6)])),
    ("mutually-crossing", lambda: cycle_plus(18, [(1, 16), (2, 17)])),
    ("single-crossing-edge", lambda: cycle_plus(24, [(8, 13), (9, 14), (10, 14)])),
    ("case1", lambda: cycle_plus(18, [(1, 17), (2, 16)])),
    ("case1'", lambda: cycle_plus(18, [(8, 10), (7, 11)])),
    ("case2-distinct", lambda: cycle_plus(18, [(1, 17), (8, 10)])),
    ("case2-shared", lambda: cycle_plus(36, [(9, 35), (9, 19)])),
]


def _assert_separation_invariants(d, sep):
    from okplanar.separator import balanced_separator  # noqa: F401 (import site)

    n = d.n
    k = crossing_report(d).max_per_edge
    a_only = sep.a_side - sep.separator
    b_only = sep.b_side - sep.separator
    assert sep.a_side | sep.b_side == frozenset(range(n))
    assert sep.a_side & sep.b_side == sep.separator
    assert len(sep.separator) <= 2 * k + 3
    assert len(a_only) <= math.ceil(2 * n / 3)
    assert len(b_only) <= math.ceil(2 * n / 3)
    for u, v in d.graph.edges:  # direct scan, no helper in the loop
        assert not (u in a_only and v in b_only)
        assert not (u in b_only and v in a_only)


def test_separator_invariants_over_random_corpus():
    from okplanar.separator import balanced_separator

    corpus, build_s = separator_corpus()
    t0 = time.monotonic()
    tags: dict[str, int] = {}
    for d, k_gen in corpus:
        assert crossing_report(d).max_per_edge <= k_gen  # generator contract
        sep = balanced_separator(d)
        tags[sep.case_tag] = tags.get(sep.case_tag, 0) + 1
        _assert_separation_invariants(d, sep)
    for tag, build in CASE_DRAWINGS:
        sep = balanced_separator(build())
        assert sep.case_tag == tag, (tag, sep.case_tag)
        _assert_separation_invariants(build(), sep)
        tags[tag] = tags.get(tag, 0) + 1
    elapsed = build_s + (time.monotonic() - t0)
    missing = {t for t, _ in CASE_DRAWINGS} - set(tags)
    assert not missing, missing
    assert sum(tags.values()) >= 500
    assert elapsed < 120, f"separator suite took {elapsed:.1f}s"
    print(f"PASS separators: 508 drawings, tags {tags} in {elapsed:.1f}s")


def test_saturation_count_is_order_independent():
    corpus, build_s = saturated_corpus()
    t0 = time.monotonic()
    assert len(corpus) == 9 * 3 * 50
    for full, n, k in corpus:
        want = n * (n - 1) // 2 if n <= 2 * k - 1 else 2 * (k - 1) * n - math.comb(2 * k - 1, 2)
        assert full.graph.m == want == maximal_edge_count(n, k), (n, k)
    elapsed = build_s + (time.monotonic() - t0)
    assert elapsed < 120, f"saturation suite took {elapsed:.1f}s"
    print(f"PASS saturation: {len(corpus)} runs hit the exact count in {elapsed:.1f}s")


def test_levels_and_replacement_on_saturated_corpus():
    corpus, _ = saturated_corpus()
    t0 = time.monotonic()
    n_long = 0
    for d, n, k in corpus:
        long_edge = find_long_edge(d, k)
        if long_edge is None:
            continue
        n_long += 1
        ld = build_levels(d, long_edge, k)
        crossing = sorted(e for e in d.graph.edges if edges_cross(d, e, long_edge))
        assert ld.t <= k - 2
        assert sorted(e for lvl in ld.levels for e in lvl) == crossing
        for lvl in ld.levels:  # each level crossing-free
            for i in range(len(lvl)):
                for j in range(i + 1, len(lvl)):
                    assert not edges_cross(d, lvl[i], lvl[j])
        assert verify_level_properties(ld, d)["pass"], (n, k)
        res = replacement_split(d, long_edge, k)
        assert res.crossing_edges == len(crossing)
        assert d.n == res.g1.n + res.g2.n - (2 * k - 2)
        assert d.graph.m == (res.g1.graph.m + res.g2.graph.m
                             - (res.added_g1 + res.added_g2)
                             + res.crossing_edges - 1)
    assert n_long == len(corpus)  # every instance here has a long edge
    print(f"PASS levels/replacement: {n_long} instances in {time.monotonic() - t0:.1f}s")


def test_degeneracy_and_coloring_bounds_on_corpora():
    sep_corpus, _ = separator_corpus()
    sat_corpus, _ = saturated_corpus()
    t0 = time.monotonic()
    by_k: dict[int, list] = {}
    for d, k_gen in sep_corpus:
        by_k.setdefault(k_gen, []).append(d)
    for k, group in sorted(by_k.items()):
        summary, _ = verify_degeneracy_bound(group, k)  # raises on violation
        assert summary["max_degeneracy"] <= math.isqrt(4 * k + 1) + 1
        assert summary["max_colors"] <= math.isqrt(4 * k + 1) + 2
    checked = len(sep_corpus)
    for d, _, _ in sat_corpus:
        k_eff = crossing_report(d).max_per_edge
        res = degeneracy(d.graph)
        assert res.degeneracy <= math.isqrt(4 * k_eff + 1) + 1
        assert res.num_colors <= math.isqrt(4 * k_eff + 1) + 2
        checked += 1
    for k in (0, 1, 2):  # tightness: the largest in-class complete graph
        b = outer_k_planar_chromatic_bound(k)
        assert b == outer_k_planar_degeneracy_bound(k) + 1
        assert brute_force_recognize(complete(b), k, "outer-planar") is not None
        assert degeneracy(complete(b)).num_colors == b
    print(f"PASS bounds: {checked} instances within both bounds "
          f"in {time.monotonic() - t0:.1f}s")


def oracle_corpus() -> list:
    """2,400 (graph, variant, k) pairs with both engines' verdicts.

    200 seeded graphs, n in 4..8, at most 14 edges, in twelve variant and k
    combinations. The SAT verdict comes from search_order, which skips the
    refutation pre-pass, so every NO pair still reaches the solver.
    """
    if "oracle" not in _cache:
        rng = random.Random(88231)
        graphs = []
        while len(graphs) < 200:
            n = rng.randrange(4, 9)
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            m = rng.randrange(0, min(len(pool), 14) + 1)
            graphs.append(build_graph(n, rng.sample(pool, m)))
        combos = ([("outer-planar", k) for k in range(4)]
                  + [("outer-quasi", k) for k in (2, 3)]
                  + [("closed-outer-planar", k) for k in range(4)]
                  + [("closed-outer-quasi", k) for k in (2, 3)])
        _cache["oracle"] = [
            (g, variant, k, brute_force_recognize(g, k, variant) is not None,
             search_order(g, k, variant, engine="sat").found is not None)
            for g in graphs for variant, k in combos
        ]
    return _cache["oracle"]


def test_sat_and_brute_verdicts_agree():
    t0 = time.monotonic()
    corpus = oracle_corpus()
    for g, variant, k, brute, via_sat in corpus:
        assert brute == via_sat, (g.n, sorted(g.edges), variant, k)
    assert len(corpus) == 2400
    print(f"PASS oracle equivalence: {len(corpus)} verdict pairs agree "
          f"in {time.monotonic() - t0:.1f}s")


def _tampered(g, cert):
    """Certificates a sound checker must reject, each made by one edit."""
    if cert["kind"] == "disconnected":
        return []
    if cert["kind"] == "cut-vertex":
        # the smallest vertex whose removal leaves the graph connected
        keep = next(w for w in range(g.n)
                    if is_connected(induced_subgraph(g, [v for v in range(g.n) if v != w])[0]))
        return [{**cert, "vertex": keep}]
    inside = set(cert["vertices"])
    if cert["kind"] == "degeneracy":
        # a neighbour of a minimum-degree vertex: dropping it lowers the minimum
        low = min(inside, key=lambda v: len(g.adj[v] & inside))
        drop = min(g.adj[low] & inside)
    else:  # edge-count: any vertex with an edge inside drops the count
        drop = min(v for v in inside if g.adj[v] & inside)
    return [{**cert, "vertices": sorted(inside - {drop})},
            {**cert, "bound": cert["bound"] + 1},
            {**cert, "bound": cert["bound"] - 1}]


def test_refutations_are_sound_and_checked():
    # every certificate that refute issues backs a NO of both engines,
    # passes check_refutation, and stops passing after a one-place edit
    t0 = time.monotonic()
    refuted, no, kinds = Counter(), Counter(), Counter()
    for g, variant, k, brute, via_sat in oracle_corpus():
        no[variant] += not brute
        cert = refute(g, k, variant)
        if cert is None:
            continue
        assert not brute and not via_sat, (g.n, sorted(g.edges), variant, k, cert)
        check_refutation(g, k, variant, cert)
        for bad in _tampered(g, cert):
            with pytest.raises(ValueError):
                check_refutation(g, k, variant, bad)
        refuted[variant] += 1
        kinds[cert["kind"]] += 1
    assert no == {"closed-outer-planar": 673, "closed-outer-quasi": 332,
                  "outer-planar": 139, "outer-quasi": 66}
    assert refuted == {"closed-outer-planar": 615, "closed-outer-quasi": 326,
                       "outer-planar": 70, "outer-quasi": 56}
    assert set(kinds) == {"disconnected", "cut-vertex", "degeneracy", "edge-count"}
    # the families matrix: only K6 is refuted, and both engines agree
    families = {name: make() for name, make, _, _ in _PROP_ROWS}
    hits = {name for name, g in families.items() if refute(g, 3, "outer-quasi") is not None}
    assert hits == {"K6"}
    cert = refute(families["K6"], 3, "outer-quasi")
    check_refutation(families["K6"], 3, "outer-quasi", cert)
    assert brute_force_recognize(families["K6"], 3, "outer-quasi") is None
    assert search_order(families["K6"], 3, "outer-quasi").found is None
    print(f"PASS refutations: {sum(refuted.values())} of {sum(no.values())} NO verdicts "
          f"refuted, none false, in {time.monotonic() - t0:.1f}s")


def test_formula_evaluator_matches_recognition():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    corpus = []
    for G in graph_atlas_g():
        n, m = G.number_of_nodes(), G.number_of_edges()
        if 3 <= n <= 6 and m <= 10 and nx.is_connected(G):
            relabel = {v: i for i, v in enumerate(G.nodes())}
            corpus.append(build_graph(n, [(relabel[u], relabel[v]) for u, v in G.edges()]))
    assert len(corpus) == 123
    combos = ([("closed-outer-planar", k) for k in (1, 2, 3)]
              + [("closed-outer-quasi", k) for k in (2, 3)])
    formulas = {(v, k): emit_formula(k, v) for v, k in combos}
    t0 = time.monotonic()
    checked = 0
    for g in corpus:
        for variant, k in combos:
            logical = evaluate_formula(formulas[(variant, k)], g)
            search = brute_force_recognize(g, k, variant) is not None
            assert logical == search, (g.n, sorted(g.edges), variant, k)
            checked += 1
    assert checked == 615
    print(f"PASS formula fidelity: {checked} evaluations agree "
          f"in {time.monotonic() - t0:.1f}s")


def test_formula_evaluator_matches_recognition_on_seven_vertices():
    """Every connected 7-vertex atlas graph with 6 to 8 edges: paths,
    trees and sparse cycles, where the spanning-cycle block is sharpest."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    corpus = []
    for G in graph_atlas_g():
        if G.number_of_nodes() == 7 and 6 <= G.number_of_edges() <= 8 and nx.is_connected(G):
            corpus.append(build_graph(7, [tuple(e) for e in G.edges()]))
    assert len(corpus) == 111
    combos = ([("closed-outer-planar", k) for k in (1, 2, 3)]
              + [("closed-outer-quasi", k) for k in (2, 3)])
    formulas = {(v, k): emit_formula(k, v) for v, k in combos}
    t0 = time.monotonic()
    checked = 0
    for g in corpus:
        for variant, k in combos:
            logical = evaluate_formula(formulas[(variant, k)], g)
            search = brute_force_recognize(g, k, variant) is not None
            assert logical == search, (sorted(g.edges), variant, k)
            checked += 1
    assert checked == 555
    print(f"PASS formula fidelity, n = 7: {checked} evaluations agree "
          f"in {time.monotonic() - t0:.1f}s")
