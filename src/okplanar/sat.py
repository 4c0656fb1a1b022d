"""CNF encodings of convex-drawing classes, and recognize for both engines.

A satisfying assignment of the order variables x_{u,v} ("u before v") is a
linear order of the vertices; reading it as the clockwise circular order
loses nothing, because cutting a circular order anywhere preserves every
chord interleaving. Crossing variables y_{e,f} are one-directional
(interleaving forces y true); both consumers only penalize true y's, so a
spuriously-true y can always be flipped false and soundness holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from . import ENGINES
from .cdcl import CdclSolver
from .drawing import (
    ConvexDrawing,
    CrossingReport,
    _bits,
    class_violation,
    crossing_report,
    make_drawing,
    resolve_class,
)
from .graphs import Graph
from .recognition import brute_force_recognize, check_refutation, refute

Edge = tuple[int, int]

# the one size rule: each block an encoding builds is predicted and refused above this
CLAUSE_CAP = 2_000_000


class EncodingTooLarge(Exception):
    def __init__(self, msg: str, count: int):
        super().__init__(msg)
        self.count = count


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)


@dataclass
class VarMap:
    """The literals the clauses read; new_var counts in cnf.num_vars.

    not_before[a][b] is the literal "a does not come before b": -x_{a,b}
    for a < b and x_{b,a} for a > b, where x_{u,v} is "u before v".
    neg_cross[i][j], filled by encode_crossing_links, is -y for the
    endpoint-disjoint edges i and j of g.edges and 0 where they touch.
    cap_block is the slice of cnf.clauses for the cap block the solver is to
    enforce with MutualCrossingCap, empty if it was left out; else None.
    """
    cnf: CnfFormula
    not_before: list[list[int]]
    neg_cross: list[list[int]] = field(default_factory=list)
    cap_block: slice | None = None
    succ_var: dict[tuple[int, int], int] = field(default_factory=dict)
    aux: list[tuple[str, int]] = field(default_factory=list)

    def new_var(self) -> int:
        self.cnf.num_vars += 1
        return self.cnf.num_vars

    def new_aux(self, tag: str) -> int:
        v = self.new_var()
        self.aux.append((tag, v))
        return v


def encode_order_axioms(n: int) -> tuple[CnfFormula, VarMap]:
    """One variable per pair u < v; no cyclic triple; 0 first, 1 before 2.

    Every assignment is a tournament, and a tournament without 3-cycles is
    a linear order. Reflection keeps 0 first and swaps 1 with 2, so the unit
    x_{1,2} keeps one order of each mirror pair and loses no drawing.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cnf = CnfFormula(num_vars=0)
    nb = [[0] * n for _ in range(n)]
    vm = VarMap(cnf, nb)
    for u in range(n):
        for v in range(u + 1, n):
            x = vm.new_var()
            nb[u][v], nb[v][u] = -x, x
    cnf.comments.append("c block order-transitivity")
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):  # no cycle u, v, w and none u, w, v
                cnf.clauses.append([nb[u][v], nb[v][w], nb[w][u]])
                cnf.clauses.append([nb[v][u], nb[w][v], nb[u][w]])
    cnf.comments.append("c block anchor-vertex-0-first")
    for v in range(1, n):
        cnf.clauses.append([nb[v][0]])
    if n >= 3:
        cnf.comments.append("c block reflection-1-before-2")
        cnf.clauses.append([nb[2][1]])
    cnf.comments += (f"c ord {u} {v} {nb[v][u]}" for u in range(n) for v in range(u + 1, n))
    return cnf, vm


def encode_crossing_links(g: Graph, cnf: CnfFormula, vm: VarMap) -> None:
    """One y per endpoint-disjoint edge pair; every interleaving forces it.

    The schema (x_{a,b} and x_{b,c} and x_{c,d}) -> y is instantiated for all
    8 alternating arrangements of the four endpoints; any single orientation
    alone would let mirrored crossings slip through undetected.
    """
    not_before = vm.not_before
    cnf.comments.append("c block crossing-detect")
    edges = g.edges
    neg = vm.neg_cross = [[0] * len(edges) for _ in edges]
    for i, mask in enumerate(_disjointness_masks(edges)):
        u, u2 = edges[i]
        for j in _bits(mask >> (i + 1) << (i + 1)):  # each pair once, i < j
            y = vm.new_var()
            neg[i][j] = neg[j][i] = -y
            v, v2 = edges[j]
            for a, c in ((u, u2), (u2, u)):
                na, nc = not_before[a], not_before[c]
                for b, d in ((v, v2), (v2, v)):
                    nb = not_before[b]
                    cnf.clauses.append([na[b], nb[c], nc[d], y])
                    cnf.clauses.append([nb[a], na[d], not_before[d][c], y])
            cnf.comments.append(f"c cross {u} {u2} {v} {v2} {y}")


def _seq_counter_le(cnf: CnfFormula, vm: VarMap, negs: list[int], k: int, tag: str) -> None:
    """Sequential counter: at most k of the literals negated in negs are
    true. Its k + (len(negs) - 1)(2k + 1) clauses, or len(negs) at k = 0,
    are what _counter_clauses predicts. Each counter row is negated once."""
    if len(negs) <= k:
        return
    clauses = cnf.clauses
    if k == 0:
        clauses += ([nl] for nl in negs)
        return
    row = [vm.new_aux(tag) for _ in range(k)]
    nrow = [-s for s in row]
    clauses.append([negs[0], row[0]])
    for j in range(1, k):
        clauses.append([nrow[j]])
    for nl in negs[1:]:
        nprev = nrow
        row = [vm.new_aux(tag) for _ in range(k)]
        nrow = [-s for s in row]
        clauses.append([nl, row[0]])
        clauses.append([nprev[0], row[0]])
        for j in range(1, k):
            clauses.append([nl, nprev[j - 1], row[j]])
            clauses.append([nprev[j], row[j]])
        clauses.append([nl, nprev[k - 1]])


def encode_outer_planar(g: Graph, k: int) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order crosses every edge at most k times."""
    resolve_class("outer-planar", k)
    _check_cap("order-axiom", _order_clauses(g.n))
    _check_cap("per-edge crossing-cap", _counter_clauses(g.edges, k))
    _check_cap("crossing-link", _link_clauses(g.edges))
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block per-edge-crossing-cap")
    for e, row in zip(g.edges, vm.neg_cross):
        _seq_counter_le(cnf, vm, [nl for nl in row if nl], k, tag=f"cap{e[0]}-{e[1]}")
    cnf.comments += (f"c aux {tag} {var}" for tag, var in vm.aux)
    return cnf, vm


def encode_outer_quasi(g: Graph, k: int, explicit_cap: bool = True) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order has no k pairwise-crossing edges.

    explicit_cap=False leaves the cap block to MutualCrossingCap where it
    holds more clauses than the link block: it then sets the memory, and
    below that watched clauses propagate faster than the constraint. At
    k = 2 it never does, with one unit per pair against 8 links. That block
    is never built: CLAUSE_CAP spares it, and its count stops past the links.
    """
    resolve_class("outer-quasi", k)
    _check_cap("order-axiom", _order_clauses(g.n))
    links = _link_clauses(g.edges)
    sets = _count_k_sets(g.edges, k, CLAUSE_CAP if explicit_cap else min(links, CLAUSE_CAP))
    if explicit_cap:
        _check_cap("mutual-crossing", sets, f"at least {sets} size-{k} disjoint edge subsets")
    _check_cap("crossing-link", links)
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block mutual-crossing-cap")
    start, native = len(cnf.clauses), sets > links
    if explicit_cap or not native:
        cnf.clauses += _mutual_cap_clauses(g.edges, k, vm.neg_cross)
    vm.cap_block = slice(start, len(cnf.clauses)) if native else None
    return cnf, vm


def _disjointness_masks(edges: tuple[Edge, ...]) -> list[int]:
    """Per edge, the mask of the edges sharing no endpoint with it.

    The one edge-disjointness relation of the encodings: it drives the
    crossing links, the per-edge caps and the k-subset enumeration.
    """
    n = 1 + max((v for e in edges for v in e), default=0)
    touching = [0] * n
    for i, (u, v) in enumerate(edges):
        touching[u] |= 1 << i
        touching[v] |= 1 << i
    everyone = (1 << len(edges)) - 1
    return [everyone & ~(touching[u] | touching[v]) for u, v in edges]


def _order_clauses(n: int) -> int:
    """encode_order_axioms(n)'s clauses: 2 per triple, n - 1 anchors, 1 reflection."""
    return n * (n - 1) * (n - 2) // 3 + max(n - 1, 0) + (n >= 3)


def _counter_clauses(edges: tuple[Edge, ...], k: int) -> int:
    """The clauses of the per-edge crossing caps at k, in closed form from
    each edge's count d of disjoint edges; a counter over d <= k is empty."""
    total = 0
    for mask in _disjointness_masks(edges):
        d = mask.bit_count()
        if d > k:
            total += k + (d - 1) * (2 * k + 1) if k else d
    return total


def _link_clauses(edges: tuple[Edge, ...]) -> int:
    """8 per endpoint-disjoint pair; each pair is in two masks."""
    return 4 * sum(mask.bit_count() for mask in _disjointness_masks(edges))


def _check_cap(block: str, total: int, detail: str = "") -> None:
    if total > CLAUSE_CAP:
        detail = detail or f"{total} predicted"
        raise EncodingTooLarge(f"{block} clauses exceed cap {CLAUSE_CAP}: {detail}", count=total)


def _disjoint_stems(edges: tuple[Edge, ...], k: int):
    """Per (k-1)-set of pairwise disjoint edges, in lexicographic order of
    edge indices: the set and the mask of the later edges disjoint from
    all of it, which complete it to the k-sets of the mutual-crossing cap.
    A set that no edge completes is not yielded: the walk stops where fewer
    candidates are left than edges missing. Without 2k endpoints no k-set
    exists, and the walk does not start."""
    if len({v for e in edges for v in e}) < 2 * k:
        return iter(())
    after = [mask >> (i + 1) << (i + 1) for i, mask in enumerate(_disjointness_masks(edges))]

    def grow(cand: int, chosen: tuple[int, ...]):
        if cand.bit_count() < k - len(chosen):
            return
        if len(chosen) == k - 1:
            yield chosen, cand
            return
        for i in _bits(cand):
            yield from grow(cand & after[i], (*chosen, i))

    return grow((1 << len(edges)) - 1, ())


def _count_k_sets(edges: tuple[Edge, ...], k: int, stop: int) -> int:
    """The k-sets of pairwise disjoint edges, one cap clause each, counted
    only until the count passes stop: a larger count reads stop + 1."""
    total = 0
    for _, cand in _disjoint_stems(edges, k):
        total += cand.bit_count()
        if total > stop:
            return stop + 1
    return total


def _mutual_cap_clauses(edges: tuple[Edge, ...], k: int, neg: list[list[int]]) -> list[list[int]]:
    """Per k-set of pairwise disjoint edges, in lexicographic order of edge
    indices: not all its pairs cross, listed as itertools.combinations does."""
    return [[neg[i][j] for i, j in combinations((*chosen, d), 2)]
            for chosen, cand in _disjoint_stems(edges, k) for d in _bits(cand)]


class MutualCrossingCap:
    """The cap block as a CdclSolver constraint, for k >= 3. When y_ab is
    propagated, each k-set of pairwise disjoint edges holding edges a and b
    whose other pairs are true, or all but one unassigned pair, yields its
    clause of the block, with that pair's literal first: a conflict or the
    reason forcing it. Unit propagation on the block reaches the same fixpoint.
    """

    def __init__(self, edges: tuple[Edge, ...], k: int, neg_cross: list[list[int]]):
        self.k, self.neg = k, neg_cross
        self.disjoint = _disjointness_masks(edges)
        self.true = [0] * len(edges)  # per edge, the edges of its propagated true y's
        self.literals = {-nl: (a, b) for a, row in enumerate(neg_cross)  # y -> its edges
                         for b, nl in enumerate(row) if nl and a < b}

    def propagate(self, y: int, lval: list[int]) -> list[list[int]]:
        a, b = self.literals[y]
        true = self.true
        ta = true[a] = true[a] | 1 << b
        tb = true[b] = true[b] | 1 << a
        found: list[list[int]] = []
        self._grow(lval, found, [a, b], self.disjoint[a] & self.disjoint[b], ta & tb, ta ^ tb, 0)
        return found

    def _grow(self, lval, found, members, cand, at0, at1, miss) -> None:
        """Complete members to k-sets from cand, the edges disjoint from all
        of them; at0 / at1 mask the edges whose pairs with all members / all
        but one are true, miss is the one unassigned pair's literal, or 0."""
        k, neg, true = self.k, self.neg, self.true
        pool = cand & (at0 if miss else at0 | at1)
        if pool.bit_count() < k - len(members):
            return
        for c in _bits(pool):
            missed = miss
            if not at0 >> c & 1:
                for m in members:
                    if not true[m] >> c & 1:
                        break
                missed = neg[m][c]
                if lval[-missed] >= 0:  # false, or true and not yet propagated
                    continue
            if len(members) + 1 < k:
                tc = true[c]
                self._grow(lval, found, members + [c], cand & self.disjoint[c] & -(2 << c),
                           at0 & tc, at1 & tc | at0 & ~tc, missed)
                continue
            clause = [neg[i][j] for i, j in combinations(sorted(members + [c]), 2)]
            if missed:
                clause.remove(missed)
                clause.insert(0, missed)
            found.append(clause)

    def backtrack(self, undone: list[int]) -> None:
        true = self.true
        for a, b in filter(None, map(self.literals.get, undone)):
            true[a] &= ~(1 << b)
            true[b] &= ~(1 << a)


def encode_closed(g: Graph, k: int, variant: str,
                  explicit_cap: bool = True) -> tuple[CnfFormula, VarMap]:
    """Inner encoding plus a Hamiltonian boundary via successor variables."""
    if g.n < 3:
        raise ValueError("closed variants need n >= 3")
    if variant.startswith("closed"):
        raise ValueError(f"unknown inner variant {variant!r}")
    cnf, vm = encode(g, k, variant, explicit_cap)
    # No cap check: this block's n + 2m(n - 1) - deg(0) clauses pass CLAUSE_CAP at
    # n <= 182 (the order-axiom limit) only if m >= 5,525, and then encode has
    # refused the 8 link clauses of each of at least 14.2M disjoint edge pairs.
    n = g.n
    not_before = vm.not_before
    cnf.comments.append("c block boundary-successor")
    # s_{u,v} on each directed edge: v follows u, or u is last when v = 0.
    # Each vertex needs one, and the order fixes who follows whom, so every
    # boundary step is an edge without at-most-one or predecessor clauses.
    for u, v in g.edges:
        vm.succ_var[(u, v)] = vm.new_var()
        vm.succ_var[(v, u)] = vm.new_var()
    s = vm.succ_var
    for u in range(n):
        # an isolated vertex has no successor edge: its empty clause is UNSAT
        cnf.clauses.append([s[(u, v)] for v in sorted(g.adj[u])])
    for (u, v), var in s.items():
        nvar, nu = -var, not_before[u]
        if v:
            cnf.clauses.append([nvar, not_before[v][u]])
        for w in range(n):
            if w != u and w != v:  # nothing between u and v; nothing after u
                cnf.clauses.append([nvar, nu[w], not_before[w][v]] if v else [nvar, nu[w]])
    for (u, v), var in s.items():
        cnf.comments.append(f"c succ {u} {v} {var}")
    return cnf, vm


def encode(g: Graph, k: int, variant: str, explicit_cap: bool = True) -> tuple[CnfFormula, VarMap]:
    """The encoding of any variant name; closed ones wrap their open one.
    explicit_cap reaches encode_outer_quasi only."""
    variant = resolve_class(variant, k)
    if variant.startswith("closed-"):
        return encode_closed(g, k, variant.removeprefix("closed-"), explicit_cap)
    if variant == "outer-planar":
        return encode_outer_planar(g, k)
    return encode_outer_quasi(g, k, explicit_cap)


def dimacs_text(f: CnfFormula) -> str:
    lines = list(f.comments)
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for c in f.clauses:
        lines.append(" ".join(map(str, [*c, 0])))
    return "\n".join(lines) + "\n"


def emit_dimacs(f: CnfFormula, path: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(dimacs_text(f))
    except OSError as exc:
        raise OSError(f"cannot write DIMACS to {path}: {exc}") from exc


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """The variable count and clauses of DIMACS text, repaired to the form
    CdclSolver requires; ValueError names a malformed line."""
    num_vars = 0
    lits: list[int] = []
    for no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        try:
            if line.startswith("p"):
                num_vars = int(line.split()[2])
            else:
                lits += map(int, line.split())
        except (IndexError, ValueError):
            raise ValueError(f"DIMACS line {no} is malformed: {line!r}") from None
    if lits and lits[-1]:
        lits.append(0)  # a final clause without its 0 is still read
    clauses, cur = [], []
    for v in lits:
        if v:
            cur.append(v)
            continue
        vs = set(map(abs, cur))
        if len(vs) < len(cur):  # a variable repeats: merge repeated literals
            cur = list(dict.fromkeys(cur))
        if len(vs) == len(cur):  # else it holds x and -x: always true, dropped
            clauses.append(cur)
        cur = []
    return max(num_vars, max(map(abs, lits), default=0)), clauses  # a header may undercount


def decode_model(model: list[int], vm: VarMap, g: Graph) -> ConvexDrawing:
    """The drawing whose order the model's x-relation ranks.

    The pair variables make every model a tournament, and distinct scores
    make it a linear order (Landau): they are then 0..n-1, the top scorer
    precedes all others, and the rest is again such a tournament. Class
    membership is not checked here; search_order re-checks every witness.
    """
    true_vars = {l for l in model if l > 0}
    n = g.n
    wins = [0] * n
    for v, before_v in enumerate(vm.not_before):
        for u in range(v):  # before_v[u] is x_{u,v}
            wins[u if before_v[u] in true_vars else v] += 1
    if len(set(wins)) != n:
        raise ValueError("model violates the order axioms: tied rank counts")
    return make_drawing(g, sorted(range(n), key=lambda u: -wins[u]))


class Recognition(NamedTuple):
    """found: (witness drawing, its crossing report), None if not in class;
    search_order has re-checked the witness against the class.
    certificate: the checked refutation behind a NO answered without a
    search (see recognition.refute), else None."""

    found: tuple[ConvexDrawing, CrossingReport] | None
    certificate: dict | None = None


def recognize(g: Graph, k: int, variant: str, engine: str = "sat",
              timeout_s: float | None = None, emit_cnf: str | None = None) -> Recognition:
    """Is there a circular order whose drawing is in the class?

    A NO that recognition.refute proves in linear time is answered with its
    certificate, re-checked by check_refutation, before either engine runs;
    emit_cnf still gets its DIMACS file. Every other instance goes to
    search_order. timeout_s bounds the sat engine's solve, so it is refused
    with the brute engine, whose enumeration has no deadline.
    """
    variant = resolve_class(variant, k)
    _check_engine(engine, timeout_s)
    certificate = refute(g, k, variant)
    if certificate is None:
        return search_order(g, k, variant, engine, timeout_s, emit_cnf)
    check_refutation(g, k, variant, certificate)
    if emit_cnf:
        emit_dimacs(encode(g, k, variant)[0], emit_cnf)
    return Recognition(None, certificate)


def _check_engine(engine: str, timeout_s: float | None) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}")
    if engine == "brute" and timeout_s is not None:
        raise ValueError("timeout_s bounds the sat engine's solve; the brute engine takes none")


def search_order(g: Graph, k: int, variant: str, engine: str = "sat",
                 timeout_s: float | None = None, emit_cnf: str | None = None) -> Recognition:
    """The engines behind recognize, with no refutation first.

    The sat engine encodes, solves with the embedded CdclSolver (timeout_s
    bounds the solve only) and decodes; the brute engine enumerates orders.
    The encoding is built once, only when the sat engine runs or emit_cnf
    names a DIMACS file to write. The solver adopts the encoding's lists
    unrepaired and reorders them, so the file is written before the solve.
    A cap block the encoder hands to MutualCrossingCap (vm.cap_block) is
    dropped from the solve also when emit_cnf writes it, so the witness
    does not depend on emit_cnf.
    An unknown engine, or a timeout_s with the brute engine, is refused as
    in recognize.

    This is the one witness gate: a drawing from either engine is re-checked
    with class_violation, and one outside the class raises ValueError, so
    an encoder or search bug cannot smuggle a bad witness through.
    """
    variant = resolve_class(variant, k)
    _check_engine(engine, timeout_s)
    if engine == "brute":  # refuses over its cap before a file is written
        d = brute_force_recognize(g, k, variant)
    if engine == "sat" or emit_cnf:
        cnf, vm = encode(g, k, variant, explicit_cap=bool(emit_cnf))
        if emit_cnf:
            emit_dimacs(cnf, emit_cnf)
    if engine == "sat":
        cap = None
        if vm.cap_block is not None:
            del cnf.clauses[vm.cap_block]
            cap = MutualCrossingCap(g.edges, k, vm.neg_cross)
        # test for None: an encoding with no variables has the empty model []
        model = CdclSolver(cnf.num_vars, cnf.clauses, cap).solve(timeout_s=timeout_s)
        d = None if model is None else decode_model(model, vm, g)
    if d is None:
        return Recognition(None)
    rep = crossing_report(d)
    violation = class_violation(d, rep, k, variant)
    if violation is not None:
        raise ValueError(f"{engine} engine witness {violation}")
    return Recognition((d, rep))
