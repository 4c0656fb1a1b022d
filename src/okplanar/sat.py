"""CNF encodings of convex-drawing classes over linear-order variables.

A satisfying assignment of the order variables x_{u,v} ("u before v") is a
linear order of the vertices; reading it as the clockwise circular order
loses nothing, because cutting a circular order anywhere preserves every
chord interleaving. Crossing variables y_{e,f} are one-directional
(interleaving forces y true); both consumers only penalize true y's, so a
spuriously-true y can always be flipped false and soundness holds.
"""
from __future__ import annotations

import os
import subprocess
import tempfile
from dataclasses import dataclass, field

from .cdcl import CdclSolver
from .drawing import (
    ConvexDrawing,
    CrossingReport,
    _bits,
    crossing_report,
    is_closed_drawing,
    make_drawing,
)
from .graphs import Graph, is_connected
from .recognition import canonical_variant

Edge = tuple[int, int]

DEFAULT_N_LIMIT = 80
DEFAULT_CLAUSE_CAP = 2_000_000

ENV_SOLVER = "OKP_SAT_SOLVER"


class TriviallyUnsat(Exception):
    """Encoding short-circuit: the instance is unsatisfiable by inspection."""


class EncodingTooLarge(Exception):
    def __init__(self, msg: str, count: int):
        super().__init__(msg)
        self.count = count


class SolverError(Exception):
    pass


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

    def add(self, clause: list[int]) -> None:
        if not clause:
            raise ValueError("empty clause at generation time")
        self.clauses.append(clause)


def encode_order_axioms(n: int) -> tuple[CnfFormula, VarMap]:
    """Linear-order variables with transitivity, antisymmetry, vertex 0 first."""
    if n < 1:
        raise ValueError("need n >= 1")
    vm = VarMap(n=n)
    cnf = CnfFormula(num_vars=0)
    for u in range(n):
        for v in range(n):
            if u != v:
                vm.order_var[(u, v)] = vm.new_var()
    x = vm.order_var
    cnf.comments.append("c block order-transitivity")
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if u != v and v != w and u != w:
                    cnf.add([-x[(u, v)], -x[(v, w)], x[(u, w)]])
    cnf.comments.append("c block order-antisymmetry")
    for u in range(n):
        for v in range(u + 1, n):
            cnf.add([x[(u, v)], x[(v, u)]])
            cnf.add([-x[(u, v)], -x[(v, u)]])
    cnf.comments.append("c block anchor-vertex-0-first")
    for v in range(1, n):
        cnf.add([x[(0, v)]])
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
    x = vm.order_var
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
            for b, d in ((v, v2), (v2, v)):
                cnf.add([-x[(a, b)], -x[(b, c)], -x[(c, d)], y])
                cnf.add([-x[(b, a)], -x[(a, d)], -x[(d, c)], y])
    cnf.num_vars = vm.num_vars
    for (e, f), var in vm.cross_var.items():
        cnf.comments.append(f"c cross {e[0]} {e[1]} {f[0]} {f[1]} {var}")


def _seq_counter_le(cnf: CnfFormula, vm: VarMap, lits: list[int], k: int, tag: str) -> None:
    """Sequential counter: at most k of lits are true."""
    m = len(lits)
    if m <= k:
        return
    if k == 0:
        for l in lits:
            cnf.add([-l])
        return
    s = [[vm.new_aux(tag) for _ in range(k)] for _ in range(m)]
    cnf.add([-lits[0], s[0][0]])
    for j in range(1, k):
        cnf.add([-s[0][j]])
    for i in range(1, m):
        cnf.add([-lits[i], s[i][0]])
        cnf.add([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            cnf.add([-lits[i], -s[i - 1][j - 1], s[i][j]])
            cnf.add([-s[i - 1][j], s[i][j]])
        cnf.add([-lits[i], -s[i - 1][k - 1]])
    cnf.num_vars = vm.num_vars


def _y_for(vm: VarMap, e: Edge, f: Edge) -> int:
    if (e, f) in vm.cross_var:
        return vm.cross_var[(e, f)]
    return vm.cross_var[(f, e)]


def encode_outer_planar(
    g: Graph, k: int, n_limit: int = DEFAULT_N_LIMIT, allow_large: bool = False
) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order crosses every edge at most k times."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_size(g, n_limit, allow_large)
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block per-edge-crossing-cap")
    edges = g.edges
    for e, mask in zip(edges, _disjointness_masks(edges)):
        lits = [_y_for(vm, e, edges[j]) for j in _bits(mask)]
        _seq_counter_le(cnf, vm, lits, k, tag=f"cap{e[0]}-{e[1]}")
    vm.variant, vm.k = "outer-planar", k
    _aux_comments(cnf, vm)
    return cnf, vm


def encode_outer_quasi(
    g: Graph,
    k: int,
    n_limit: int = DEFAULT_N_LIMIT,
    allow_large: bool = False,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> tuple[CnfFormula, VarMap]:
    """SAT iff some circular order has no k pairwise-crossing edges."""
    if k < 2:
        raise ValueError("quasi variants need k >= 2")
    _check_size(g, n_limit, allow_large)
    cnf, vm = encode_order_axioms(max(g.n, 1))
    encode_crossing_links(g, cnf, vm)
    cnf.comments.append("c block mutual-crossing-cap")
    for count, subset in enumerate(_disjoint_subsets(g.edges, k), 1):
        if count > clause_cap:
            raise EncodingTooLarge(
                f"mutual-crossing clauses exceed cap {clause_cap}: "
                f"at least {count} size-{k} disjoint edge subsets",
                count=count,
            )
        cnf.add([-_y_for(vm, subset[i], subset[j])
                 for i in range(k) for j in range(i + 1, k)])
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


def _disjoint_subsets(edges: tuple[Edge, ...], k: int):
    """Yield all k-subsets of pairwise endpoint-disjoint edges."""
    masks = _disjointness_masks(edges)
    m = len(edges)

    def rec(start_mask: int, chosen: list[int]):
        if len(chosen) == k:
            yield [edges[i] for i in chosen]
            return
        mask = start_mask
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            yield from rec(start_mask & masks[i] & ~((1 << (i + 1)) - 1), chosen + [i])

    full = (1 << m) - 1
    yield from rec(full, [])


def encode_closed(
    g: Graph,
    k: int,
    variant: str,
    n_limit: int = DEFAULT_N_LIMIT,
    allow_large: bool = False,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> tuple[CnfFormula, VarMap]:
    """Inner encoding plus a Hamiltonian boundary via successor variables."""
    if g.n < 3:
        raise ValueError("closed variants need n >= 3")
    if not is_connected(g):
        raise TriviallyUnsat("closed drawing impossible: graph is disconnected")
    if variant.startswith("closed"):
        raise ValueError(f"unknown inner variant {variant!r}")
    cnf, vm = encode(g, k, variant, n_limit, allow_large, clause_cap)
    n = g.n
    x = vm.order_var
    cnf.comments.append("c block boundary-successor")
    for u in range(n):
        for v in range(n):
            if u != v:
                vm.succ_var[(u, v)] = vm.new_var()
    s = vm.succ_var
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                cnf.add([-s[(u, v)]])
                cnf.add([-s[(v, u)]])
    for u in range(n):
        cnf.add([s[(u, v)] for v in range(n) if v != u])  # some successor
        cnf.add([s[(v, u)] for v in range(n) if v != u])  # some predecessor
        for v in range(n):
            for w in range(v + 1, n):
                if v != u and w != u:
                    cnf.add([-s[(u, v)], -s[(u, w)]])
                    cnf.add([-s[(v, u)], -s[(w, u)]])
    # successor = next in the linear order; wrap successor returns to vertex 0
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if v == 0:
                for w in range(n):
                    if w != u and w != 0:
                        cnf.add([-s[(u, 0)], x[(w, u)]])
            else:
                cnf.add([-s[(u, v)], x[(u, v)]])
                for w in range(n):
                    if w != u and w != v:
                        cnf.add([-s[(u, v)], -x[(u, w)], -x[(w, v)]])
    cnf.num_vars = vm.num_vars
    for (u, v), var in s.items():
        cnf.comments.append(f"c succ {u} {v} {var}")
    vm.variant = "closed-" + variant
    return cnf, vm


def encode(
    g: Graph,
    k: int,
    variant: str,
    n_limit: int = DEFAULT_N_LIMIT,
    allow_large: bool = False,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> tuple[CnfFormula, VarMap]:
    """The encoding of any variant name; closed ones wrap their open one."""
    variant = canonical_variant(variant)
    if variant.startswith("closed-"):
        inner = variant.removeprefix("closed-")
        return encode_closed(g, k, inner, n_limit, allow_large, clause_cap)
    if variant == "outer-planar":
        return encode_outer_planar(g, k, n_limit, allow_large)
    return encode_outer_quasi(g, k, n_limit, allow_large, clause_cap)


def _check_size(g: Graph, n_limit: int, allow_large: bool) -> None:
    if g.n > n_limit and not allow_large:
        raise EncodingTooLarge(
            f"n={g.n} exceeds the default limit {n_limit} "
            f"(cubic clause growth); pass allow_large to override",
            count=g.n,
        )


def _aux_comments(cnf: CnfFormula, vm: VarMap) -> None:
    for tag, var in vm.aux:
        cnf.comments.append(f"c aux {tag} {var}")


def dimacs_text(f: CnfFormula) -> str:
    lines = list(f.comments)
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for c in f.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


def emit_dimacs(f: CnfFormula, path: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(dimacs_text(f))
    except OSError as exc:
        raise OSError(f"cannot write DIMACS to {path}: {exc}") from exc


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    num_vars = 0
    clauses = []
    cur: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            v = int(tok)
            if v == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(v)
    if cur:
        clauses.append(cur)
    return num_vars, clauses


def solve(
    f: CnfFormula,
    solver: str | None = None,
    timeout_s: float | None = None,
) -> list[int] | None:
    """Model (signed DIMACS literals) or None for UNSAT.

    Runs the executable named by `solver` or $OKP_SAT_SOLVER when configured,
    speaking the SAT-competition conventions (exit 10/20, "s ..." verdict,
    "v ..." model lines); otherwise falls back to the embedded solver.
    """
    solver = solver or os.environ.get(ENV_SOLVER)
    if not solver:
        return CdclSolver(f.num_vars, f.clauses).solve(timeout_s=timeout_s)
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as fh:
        fh.write(dimacs_text(f))
        path = fh.name
    try:
        try:
            proc = subprocess.run(
                [solver, path],
                capture_output=True,
                text=True,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise SolverError(f"solver timed out after {timeout_s}s") from exc
        except OSError as exc:
            raise SolverError(f"cannot run solver {solver!r}: {exc}") from exc
        out = proc.stdout
        if proc.returncode == 20 or "s UNSATISFIABLE" in out:
            return None
        if proc.returncode == 10 or "s SATISFIABLE" in out:
            model = []
            for line in out.splitlines():
                if line.startswith("v"):
                    model += [int(t) for t in line[1:].split() if int(t) != 0]
            if not model:
                raise SolverError("solver reported SAT but gave no v-lines")
            return model
        raise SolverError(
            f"unrecognized solver output (exit {proc.returncode}): "
            f"{out[:500]}{proc.stderr[:500]}"
        )
    finally:
        os.unlink(path)


def decode_model(
    model: list[int], vm: VarMap, g: Graph
) -> tuple[ConvexDrawing, CrossingReport]:
    """Order the vertices by the x-relation and re-verify the property.

    The re-verification runs the actual drawing checkers, so an encoder bug
    cannot smuggle a bad witness through.
    """
    true_vars = {l for l in model if l > 0}
    n = g.n
    if n == 0:
        return make_drawing(g, []), crossing_report(make_drawing(g, []))
    before = {u: 0 for u in range(n)}
    for (u, v), var in vm.order_var.items():
        if var in true_vars:
            before[u] += 1
    ranked = sorted(range(n), key=lambda u: -before[u])
    if len({before[u] for u in range(n)}) != n:
        raise ValueError("model violates the order axioms: tied rank counts")
    for i in range(n):
        for j in range(i + 1, n):
            if vm.order_var[(ranked[i], ranked[j])] not in true_vars:
                raise ValueError("model violates transitivity of the order")
    d = make_drawing(g, ranked)
    rep = crossing_report(d)
    variant, k = vm.variant, vm.k
    if variant is None:
        return d, rep
    if variant.startswith("closed"):
        if not is_closed_drawing(d):
            raise ValueError("decoded drawing is not closed: boundary gap")
    if variant.endswith("quasi"):
        if rep.max_mutual > k - 1:
            raise ValueError(
                f"decoded drawing has {rep.max_mutual} mutually crossing edges: "
                f"{rep.witness_mutual}"
            )
    else:
        if rep.max_per_edge > k:
            worst = max(rep.per_edge, key=rep.per_edge.get)
            raise ValueError(
                f"decoded drawing crosses edge {worst} "
                f"{rep.per_edge[worst]} > {k} times"
            )
    return d, rep


def sat_recognize(
    g: Graph,
    k: int,
    variant: str,
    solver: str | None = None,
    timeout_s: float | None = None,
    n_limit: int = DEFAULT_N_LIMIT,
    allow_large: bool = False,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> tuple[ConvexDrawing, CrossingReport] | None:
    """End-to-end: encode, solve, decode. None means not in the class."""
    try:
        cnf, vm = encode(g, k, variant, n_limit, allow_large, clause_cap)
    except TriviallyUnsat:
        return None
    model = solve(cnf, solver=solver, timeout_s=timeout_s)
    if model is None:
        return None
    return decode_model(model, vm, g)
