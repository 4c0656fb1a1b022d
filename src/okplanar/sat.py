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

# size guards: order axioms grow cubically in n; the quasi cap counts clauses
N_LIMIT = 80
CLAUSE_CAP = 2_000_000


class EncodingTooLarge(Exception):
    def __init__(self, msg: str, count: int):
        super().__init__(msg)
        self.count = count


@dataclass
class VarMap:
    n: int
    order_var: dict[tuple[int, int], int] = field(default_factory=dict)
    cross_var: dict[tuple[Edge, Edge], int] = field(default_factory=dict)
    succ_var: dict[tuple[int, int], int] = field(default_factory=dict)
    aux: list[tuple[str, int]] = field(default_factory=list)
    num_vars: int = 0
    variant: str | None = None
    k: int | None = None

    def before(self, u: int, v: int) -> int:
        """The literal "u before v"; only the pair u < v owns a variable."""
        return self.order_var[(u, v)] if u < v else -self.order_var[(v, u)]

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_aux(self, tag: str) -> int:
        v = self.new_var()
        self.aux.append((tag, v))
        return v


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)


def encode_order_axioms(n: int) -> tuple[CnfFormula, VarMap]:
    """One variable per pair u < v; no cyclic triple; 0 first, 1 before 2.

    Every assignment is a tournament, and a tournament without 3-cycles is
    a linear order. Reflection keeps 0 first and swaps 1 with 2, so the unit
    x_{1,2} keeps one order of each mirror pair and loses no drawing.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    vm = VarMap(n=n)
    cnf = CnfFormula(num_vars=0)
    for u in range(n):
        for v in range(u + 1, n):
            vm.order_var[(u, v)] = vm.new_var()
    x = vm.order_var
    nx = {pair: -var for pair, var in x.items()}  # one negated literal per pair
    cnf.comments.append("c block order-transitivity")
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(v + 1, n):
                cnf.clauses.append([nx[(u, v)], nx[(v, w)], x[(u, w)]])
                cnf.clauses.append([x[(u, v)], x[(v, w)], nx[(u, w)]])
    cnf.comments.append("c block anchor-vertex-0-first")
    for v in range(1, n):
        cnf.clauses.append([x[(0, v)]])
    if n >= 3:
        cnf.comments.append("c block reflection-1-before-2")
        cnf.clauses.append([x[(1, 2)]])
    cnf.num_vars = vm.num_vars
    for (u, v), var in x.items():
        cnf.comments.append(f"c ord {u} {v} {var}")
    return cnf, vm


def encode_crossing_links(g: Graph, cnf: CnfFormula, vm: VarMap) -> None:
    """One y per endpoint-disjoint edge pair; every interleaving forces it.

    The schema (x_{a,b} and x_{b,c} and x_{c,d}) -> y is instantiated for all
    8 alternating arrangements of the four endpoints; any single orientation
    alone would let mirrored crossings slip through undetected.
    """
    # not_before[a][b] = -x_{a,b}, one int per ordered pair for every clause
    not_before = [[0] * vm.n for _ in range(vm.n)]
    for (a, b), var in vm.order_var.items():
        not_before[a][b], not_before[b][a] = -var, var
    cnf.comments.append("c block crossing-detect")
    edges = g.edges
    pairs = [
        (edges[i], edges[j])
        for i, mask in enumerate(_disjointness_masks(edges))
        for j in _bits(mask & ~((1 << (i + 1)) - 1))  # each pair once, i < j
    ]
    for e, f in pairs:
        y = vm.new_var()
        vm.cross_var[(e, f)] = y
        u, u2 = e
        v, v2 = f
        for a, c in ((u, u2), (u2, u)):
            na, nc = not_before[a], not_before[c]
            for b, d in ((v, v2), (v2, v)):
                nb = not_before[b]
                cnf.clauses.append([na[b], nb[c], nc[d], y])
                cnf.clauses.append([nb[a], na[d], not_before[d][c], y])
    cnf.num_vars = vm.num_vars
    for (e, f), var in vm.cross_var.items():
        cnf.comments.append(f"c cross {e[0]} {e[1]} {f[0]} {f[1]} {var}")


def _seq_counter_le(cnf: CnfFormula, vm: VarMap, lits: list[int], k: int, tag: str) -> None:
    """Sequential counter: at most k of lits are true; the caller syncs cnf.num_vars."""
    m = len(lits)
    if m <= k:
        return
    if k == 0:
        for l in lits:
            cnf.clauses.append([-l])
        return
    s = [[vm.new_aux(tag) for _ in range(k)] for _ in range(m)]
    cnf.clauses.append([-lits[0], s[0][0]])
    for j in range(1, k):
        cnf.clauses.append([-s[0][j]])
    for i in range(1, m):
        cnf.clauses.append([-lits[i], s[i][0]])
        cnf.clauses.append([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            cnf.clauses.append([-lits[i], -s[i - 1][j - 1], s[i][j]])
            cnf.clauses.append([-s[i - 1][j], s[i][j]])
        cnf.clauses.append([-lits[i], -s[i - 1][k - 1]])


def encode_outer_planar(g: Graph, k: int) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order crosses every edge at most k times."""
    resolve_class("outer-planar", k)
    _check_size(g)
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block per-edge-crossing-cap")
    edges = g.edges
    for e, row, mask in zip(edges, _neg_cross_matrix(edges, vm), _disjointness_masks(edges)):
        _seq_counter_le(cnf, vm, [-row[j] for j in _bits(mask)], k, tag=f"cap{e[0]}-{e[1]}")
    cnf.num_vars = vm.num_vars
    vm.variant, vm.k = "outer-planar", k
    _aux_comments(cnf, vm)
    return cnf, vm


def encode_outer_quasi(g: Graph, k: int) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order has no k pairwise-crossing edges."""
    resolve_class("outer-quasi", k)
    _check_size(g)
    _check_mutual_cap(g.edges, k)
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block mutual-crossing-cap")
    cnf.clauses += _mutual_cap_clauses(g.edges, k, _neg_cross_matrix(g.edges, vm))
    vm.variant, vm.k = "outer-quasi", k
    _aux_comments(cnf, vm)
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


def _neg_cross_matrix(edges: tuple[Edge, ...], vm: VarMap) -> list[list[int]]:
    """-y_{e,f} indexed by the two edges' positions; 0 where they touch."""
    index = {e: i for i, e in enumerate(edges)}
    neg = [[0] * len(edges) for _ in edges]
    for (e, f), y in vm.cross_var.items():
        neg[index[e]][index[f]] = neg[index[f]][index[e]] = -y
    return neg


def _disjoint_stems(edges: tuple[Edge, ...], k: int):
    """Per (k-1)-set of pairwise disjoint edges, in lexicographic order of
    edge indices: the set and the mask of the later edges disjoint from
    all of it, which complete it to the k-sets of the mutual-crossing cap."""
    after = [mask >> (i + 1) << (i + 1) for i, mask in enumerate(_disjointness_masks(edges))]

    def grow(cand: int, chosen: tuple[int, ...]):
        if len(chosen) == k - 1:
            yield chosen, cand
            return
        for i in _bits(cand):
            yield from grow(cand & after[i], (*chosen, i))

    return grow((1 << len(edges)) - 1, ())


def _check_mutual_cap(edges: tuple[Edge, ...], k: int) -> None:
    """Count the k-sets of pairwise disjoint edges, stopping past
    CLAUSE_CAP, so an over-cap encoding is refused before it is built."""
    total = 0
    for _, cand in _disjoint_stems(edges, k):
        total += cand.bit_count()
        if total > CLAUSE_CAP:
            raise EncodingTooLarge(
                f"mutual-crossing clauses exceed cap {CLAUSE_CAP}: "
                f"at least {CLAUSE_CAP + 1} size-{k} disjoint edge subsets",
                count=CLAUSE_CAP + 1,
            )


def _mutual_cap_clauses(edges: tuple[Edge, ...], k: int, neg: list[list[int]]) -> list[list[int]]:
    """Per k-set of pairwise disjoint edges, in lexicographic order of edge
    indices: not all its pairs cross, listed as itertools.combinations does.

    Each stem fixes a template that holds its own pairs and one slot per
    stem edge for that edge's pair with the last edge d; a clause is a copy
    of the template with the slots filled from the stem edges' rows.
    """
    clauses = []
    for chosen, cand in _disjoint_stems(edges, k):
        template, slots = [], []
        for p, i in enumerate(chosen):
            row = neg[i]
            template += [row[j] for j in chosen[p + 1:]]
            slots.append((len(template), row))
            template.append(0)
        for d in _bits(cand):
            clause = template[:]
            for at, row in slots:
                clause[at] = row[d]
            clauses.append(clause)
    return clauses


def encode_closed(g: Graph, k: int, variant: str) -> tuple[CnfFormula, VarMap]:
    """Inner encoding plus a Hamiltonian boundary via successor variables."""
    if g.n < 3:
        raise ValueError("closed variants need n >= 3")
    if variant.startswith("closed"):
        raise ValueError(f"unknown inner variant {variant!r}")
    cnf, vm = encode(g, k, variant)
    n = g.n
    x = vm.before
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
        if v:
            cnf.clauses.append([-var, x(u, v)])
        for w in range(n):
            if w != u and w != v:  # nothing between u and v; nothing after u
                cnf.clauses.append([-var, -x(u, w), -x(w, v)] if v else [-var, x(w, u)])
    cnf.num_vars = vm.num_vars
    for (u, v), var in s.items():
        cnf.comments.append(f"c succ {u} {v} {var}")
    vm.variant = "closed-" + variant
    return cnf, vm


def encode(g: Graph, k: int, variant: str) -> tuple[CnfFormula, VarMap]:
    """The encoding of any variant name; closed ones wrap their open one."""
    variant = resolve_class(variant, k)
    if variant.startswith("closed-"):
        return encode_closed(g, k, variant.removeprefix("closed-"))
    if variant == "outer-planar":
        return encode_outer_planar(g, k)
    return encode_outer_quasi(g, k)


def _check_size(g: Graph) -> None:
    if g.n > N_LIMIT:
        raise EncodingTooLarge(f"n={g.n} exceeds the limit {N_LIMIT}", count=g.n)


def _aux_comments(cnf: CnfFormula, vm: VarMap) -> None:
    for tag, var in vm.aux:
        cnf.comments.append(f"c aux {tag} {var}")


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


def decode_model(
    model: list[int], vm: VarMap, g: Graph
) -> tuple[ConvexDrawing, CrossingReport]:
    """Order the vertices by the x-relation and re-verify the property.

    The pair variables make every model a tournament, and distinct scores
    make it a linear order (Landau): they are then 0..n-1, the top scorer
    precedes all others, and the rest is again such a tournament.
    The re-verification runs the actual drawing checkers, so an encoder bug
    cannot smuggle a bad witness through.
    """
    true_vars = {l for l in model if l > 0}
    n = g.n
    wins = [0] * n
    for (u, v), var in vm.order_var.items():
        wins[u if var in true_vars else v] += 1
    if len(set(wins)) != n:
        raise ValueError("model violates the order axioms: tied rank counts")
    ranked = sorted(range(n), key=lambda u: -wins[u])
    d = make_drawing(g, ranked)
    rep = crossing_report(d)
    if vm.variant is not None:
        violation = class_violation(d, rep, vm.k, vm.variant)
        if violation is not None:
            raise ValueError(f"decoded drawing {violation}")
    return d, rep


class Recognition(NamedTuple):
    """found: (witness drawing, its crossing report), None if not in class.
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
    An unknown engine, or a timeout_s with the brute engine, is refused as
    in recognize.
    """
    _check_engine(engine, timeout_s)
    if engine == "sat" or emit_cnf:
        cnf, vm = encode(g, k, variant)
        if emit_cnf:
            emit_dimacs(cnf, emit_cnf)
    if engine == "brute":
        d = brute_force_recognize(g, k, variant)
        return Recognition(None if d is None else (d, crossing_report(d)))
    # test for None: an encoding with no variables has the empty model []
    model = CdclSolver(cnf.num_vars, cnf.clauses).solve(timeout_s=timeout_s)
    return Recognition(None if model is None else decode_model(model, vm, g))
