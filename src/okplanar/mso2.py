"""Monadic second-order formulas for the closed drawing classes.

A graph is closed outer k-planar (k-quasi-planar) when some Hamiltonian
cycle, used as the boundary of a convex drawing, keeps every edge to at
most k crossings (keeps every k edges from mutually crossing). Both
properties are expressible with quantifiers over vertices, edges, vertex
sets and edge sets plus the four relations =, membership, subset and
incidence. This module emits those formulas fully expanded, parses and
pretty-prints the S-expression rendering, lints the primitive vocabulary,
renders a LaTeX-like form, and evaluates well-sorted formulas on tiny
graphs by enumerating assignments: every quantifier runs over only the
values its own guard conjuncts allow (see _Compiled).

The S-expression grammar is documented in docs/formulas.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Callable, NamedTuple

from .drawing import resolve_class
from .graphs import Graph

SORTS = ("vertex", "edge", "vertex-set", "edge-set")

# element sort of each set sort, for lint-time membership checks
_ELEM_OF = {"vertex-set": "vertex", "edge-set": "edge"}

EVAL_MAX_N = 7
EVAL_MAX_M = 10
FORMULA_NODE_CAP = 60_000  # closed-quasi k = 30 has 49,679 nodes; k = 33 is refused


# ---------------------------------------------------------------------------
# AST constructors. Nodes are plain tuples:
#   ("forall"|"exists", sort, name, body)
#   ("and"|"or", child, child, ...)        two or more children
#   ("not", child) ("implies", lhs, rhs)
#   ("=", a, b) ("in", x, S) ("subseteq", S, T) ("I", e, v)
# Relation arguments are variable names (strings).
# ---------------------------------------------------------------------------


def _all(*children):
    return ("and",) + children if len(children) > 1 else children[0]


def _any(*children):
    return ("or",) + children if len(children) > 1 else children[0]


def _no(child):
    return ("not", child)


def _if(lhs, rhs):
    return ("implies", lhs, rhs)


def _eq(a: str, b: str):
    return ("=", a, b)


def _ne(a: str, b: str):
    return ("not", ("=", a, b))


def _in(x: str, s: str):
    return ("in", x, s)


def _sub(s: str, t: str):
    return ("subseteq", s, t)


def _inc(e: str, v: str):
    return ("I", e, v)


def _ex(sort: str, name: str, body):
    return ("exists", sort, name, body)


def _fa(sort: str, name: str, body):
    return ("forall", sort, name, body)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _cycle_set(f: str):
    """Every vertex touched by an edge of f has exactly two f-edges at it."""
    at_u = lambda name: _all(_in(name, f), _inc(name, "u"))
    exactly_two = _ex(
        "edge",
        "f1",
        _all(
            _in("f1", f),
            _inc("f1", "u"),
            _ex(
                "edge",
                "f2",
                _all(
                    _ne("f1", "f2"),
                    _in("f2", f),
                    _inc("f2", "u"),
                    _fa("edge", "f3", _if(at_u("f3"), _any(_eq("f3", "f1"), _eq("f3", "f2")))),
                ),
            ),
        ),
    )
    return _fa("vertex", "u", _if(_ex("edge", "f0", at_u("f0")), exactly_two))


def _disconnected_edges(f: str):
    """Some nonempty proper part of f shares no vertex with the rest of f."""
    return _ex(
        "edge-set",
        "Fp",
        _all(
            _sub("Fp", f),
            _ex("edge", "f4", _in("f4", "Fp")),
            _ex("edge", "f5", _all(_in("f5", f), _no(_in("f5", "Fp")))),
            _no(
                _ex(
                    "vertex",
                    "w",
                    _ex(
                        "edge",
                        "f6",
                        _all(
                            _in("f6", "Fp"),
                            _inc("f6", "w"),
                            _ex(
                                "edge",
                                "f7",
                                _all(_in("f7", f), _no(_in("f7", "Fp")), _inc("f7", "w")),
                            ),
                        ),
                    ),
                )
            ),
        ),
    )


def _span(f: str):
    return _fa("vertex", "u", _ex("edge", "f8", _all(_in("f8", f), _inc("f8", "u"))))


def _hamiltonian(f: str):
    """f is the edge set of a spanning cycle: all degrees two, one piece,
    every vertex covered."""
    return _all(_all(_cycle_set(f), _no(_disconnected_edges(f))), _span(f))


def _disconnected_vertices(u: str, f: str):
    """Some nonempty proper w of u has no f-edge leaving w inside u."""
    return _ex(
        "vertex-set",
        "W",
        _all(
            _sub("W", u),
            _ex("vertex", "w1", _in("w1", "W")),
            _ex("vertex", "w2", _all(_in("w2", u), _no(_in("w2", "W")))),
            _no(
                _ex(
                    "edge",
                    "f9",
                    _all(
                        _in("f9", f),
                        _ex(
                            "vertex",
                            "x1",
                            _all(
                                _in("x1", "W"),
                                _inc("f9", "x1"),
                                _ex(
                                    "vertex",
                                    "x2",
                                    _all(_in("x2", u), _no(_in("x2", "W")), _inc("f9", "x2")),
                                ),
                            ),
                        ),
                    ),
                )
            ),
        ),
    )


def _connected(u: str, f: str):
    return _no(_disconnected_vertices(u, f))


def _vertex_partition(a: str, b: str, c: str):
    return _fa(
        "vertex",
        "p",
        _all(
            _any(_in("p", a), _in("p", b), _in("p", c)),
            _no(_all(_in("p", a), _in("p", b))),
            _no(_all(_in("p", a), _in("p", c))),
            _no(_all(_in("p", b), _in("p", c))),
        ),
    )


def _crossing(estar: str, e: str, ei: str):
    """Edges e and ei cross on the boundary cycle estar.

    Removing the two endpoints of e (pinned as C) cuts the cycle into two
    arcs; the quantifier asks for a split of the rest into nonempty
    boundary-connected sides A and B with no boundary edge between them,
    which forces A and B to be exactly those arcs. The pair crosses when
    ei has one endpoint on each side. The partition quantifier is
    existential: demanding the crossing for some valid split is what chord
    interleaving means, and the two arc assignments are the only splits.
    """
    pin_c = _fa("vertex", "x", _all(_if(_inc(e, "x"), _in("x", "C")), _if(_in("x", "C"), _inc(e, "x"))))
    # a guard of A: the evaluator enumerates only subsets of V minus C
    a_avoids_c = _fa("vertex", "y", _if(_in("y", "A"), _no(_in("y", "C"))))
    no_boundary_edge_between = _no(
        _ex(
            "edge",
            "f10",
            _all(
                _in("f10", estar),
                _ex(
                    "vertex",
                    "x3",
                    _all(
                        _in("x3", "A"),
                        _inc("f10", "x3"),
                        _ex("vertex", "x4", _all(_in("x4", "B"), _inc("f10", "x4"))),
                    ),
                ),
            ),
        )
    )
    ei_splits = _ex(
        "vertex",
        "a2",
        _all(
            _in("a2", "A"),
            _inc(ei, "a2"),
            _ex("vertex", "b2", _all(_in("b2", "B"), _inc(ei, "b2"))),
        ),
    )
    inner_b = _ex(
        "vertex-set",
        "B",
        _all(
            _vertex_partition("A", "B", "C"),
            _ex("vertex", "b1", _in("b1", "B")),
            _connected("B", estar),
            no_boundary_edge_between,
            ei_splits,
        ),
    )
    inner_a = _ex(
        "vertex-set",
        "A",
        _all(a_avoids_c, _ex("vertex", "a1", _in("a1", "A")), _connected("A", estar), inner_b),
    )
    return _ex("vertex-set", "C", _all(pin_c, inner_a))


def _planar_body(k: int):
    names = [f"e{i}" for i in range(1, k + 2)]
    hyp = _all(
        *[_ne(x, "e") for x in names],
        *[_ne(x, y) for x, y in combinations(names, 2)],
    )
    disj = _any(*[_no(_crossing("Estar", "e", x)) for x in names])
    body = _if(hyp, disj)
    for x in reversed(names):
        body = _fa("edge", x, body)
    return _fa("edge", "e", body)


def _quasi_body(k: int):
    names = [f"e{i}" for i in range(1, k + 1)]
    hyp = _all(*[_ne(x, y) for x, y in combinations(names, 2)])
    disj = _any(*[_no(_crossing("Estar", x, y)) for x, y in combinations(names, 2)])
    body = _if(hyp, disj)
    for x in reversed(names):
        body = _fa("edge", x, body)
    return body


@dataclass(frozen=True)
class EmittedFormula:
    """A class formula in both renderings, plus the AST it came from."""

    k: int
    variant: str
    sexpr: str
    latex: str
    ast: tuple = field(repr=False, compare=False, default=())

    def to_dict(self) -> dict:
        return {"k": self.k, "variant": self.variant, "sexpr": self.sexpr, "latex": self.latex}


def _formula_nodes(k: int, canon: str) -> int:
    """The AST node count of the closed-class formula: Estar and its and, 54
    for the boundary, the edge foralls and implies, 2 per inequality, 112 per
    negated crossing block, and an and and an or over two or more of those."""
    quasi = canon.endswith("quasi")
    names = k if quasi else k + 1
    pairs = names * (names - 1) // 2
    ineqs, blocks = (pairs, pairs) if quasi else (names + pairs, names)
    return 57 + names + (not quasi) + 2 * ineqs + (ineqs > 1) + 112 * blocks + (blocks > 1)


def emit_formula(k: int, variant: str) -> EmittedFormula:
    """Build the closed-class formula for (k, variant), fully expanded.

    The planar variant (k >= 0) quantifies an edge e plus k+1 distinct others,
    at least one of which must not cross e; the quasi variant (k >= 2)
    quantifies k distinct edges, at least one pair of which must not cross.
    Refused before any node is built: a k that resolve_class refuses, and a
    formula of more than FORMULA_NODE_CAP nodes.
    """
    canon = resolve_class(variant, k)
    if not canon.startswith("closed"):
        raise ValueError(f"unknown closed variant {variant!r}")
    if (nodes := _formula_nodes(k, canon)) > FORMULA_NODE_CAP:
        raise ValueError(f"{canon} k={k} has {nodes} formula nodes, above FORMULA_NODE_CAP = {FORMULA_NODE_CAP}")
    body = _quasi_body(k) if canon.endswith("quasi") else _planar_body(k)
    ast = _ex("edge-set", "Estar", _all(_hamiltonian("Estar"), body))
    return EmittedFormula(k=k, variant=canon, sexpr=to_sexpr(ast), latex=to_latex(ast), ast=ast)


# ---------------------------------------------------------------------------
# S-expression rendering and parsing
# ---------------------------------------------------------------------------

_QUANT = ("forall", "exists")
_RELS = ("=", "in", "subseteq", "I")


def _leaf_line(node) -> str | None:
    """The one-line text of a relation or a negated relation, else None."""
    if node[0] == "not" and node[1][0] in _RELS:
        return f"(not {_leaf_line(node[1])})"
    return "(" + " ".join(node) + ")" if node[0] in _RELS else None


def to_sexpr(node) -> str:
    """Deterministic pretty-printer; parse(to_sexpr(ast)) == ast. Each
    line is written once, so the cost is linear in the text."""
    lines: list[str] = []

    def write(node, pad: str) -> None:
        if (leaf := _leaf_line(node)) is not None:
            lines.append(pad + leaf)
            return
        head = node[0]
        if head in _QUANT:  # a normal-form quantifier's fifth field is not printed
            lines.append(f"{pad}({head} {node[1]} {node[2]}")
            kids = node[3:4]
        elif head in ("and", "or", "implies", "not"):
            lines.append(f"{pad}({head}")
            kids = node[1:]
        else:
            raise ValueError(f"unknown node head {head!r}")
        for kid in kids:
            write(kid, pad + "  ")
        lines[-1] += ")"

    write(node, "")
    return "\n".join(lines)


def parse_sexpr(text: str) -> tuple:
    """Parse one S-expression formula into the tuple AST."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse_node() -> tuple:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise ValueError(f"expected '(' at token {pos}")
        pos += 1
        if pos >= len(tokens):
            raise ValueError("unexpected end of input")
        head = tokens[pos]
        pos += 1
        if head in _QUANT:
            if pos + 1 >= len(tokens):
                raise ValueError(f"truncated {head}")
            sort, name = tokens[pos], tokens[pos + 1]
            if sort not in SORTS:
                raise ValueError(f"unknown sort {sort!r}")
            pos += 2
            body = parse_node()
            node = (head, sort, name, body)
        elif head in ("and", "or"):
            children = []
            while pos < len(tokens) and tokens[pos] == "(":
                children.append(parse_node())
            if len(children) < 2:
                raise ValueError(f"{head} needs at least two children")
            node = (head,) + tuple(children)
        elif head == "not":
            node = ("not", parse_node())
        elif head == "implies":
            node = ("implies", parse_node(), parse_node())
        elif head in _RELS:
            if pos + 1 >= len(tokens):
                raise ValueError(f"truncated {head}")
            node = (head, tokens[pos], tokens[pos + 1])
            pos += 2
        else:
            raise ValueError(f"unknown head {head!r}")
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError(f"expected ')' at token {pos}")
        pos += 1
        return node

    node = parse_node()
    if pos != len(tokens):
        raise ValueError("trailing tokens after formula")
    return node


# ---------------------------------------------------------------------------
# LaTeX-like rendering
# ---------------------------------------------------------------------------

_LATEX_NAMES = {"Estar": "E^{*}", "Fp": "F'"}


def _latex_var(name: str) -> str:
    if name in _LATEX_NAMES:
        return _LATEX_NAMES[name]
    base = name.rstrip("0123456789")
    if base != name and base:
        return f"{base}_{{{name[len(base):]}}}"
    return name


def _latex_atom(node) -> str | None:
    head = node[0]
    if head == "=":
        return f"{_latex_var(node[1])} = {_latex_var(node[2])}"
    if head == "in":
        return f"{_latex_var(node[1])} \\in {_latex_var(node[2])}"
    if head == "subseteq":
        return f"{_latex_var(node[1])} \\subseteq {_latex_var(node[2])}"
    if head == "I":
        return f"I({_latex_var(node[1])}, {_latex_var(node[2])})"
    if head == "not" and node[1][0] == "=":
        return f"{_latex_var(node[1][1])} \\neq {_latex_var(node[1][2])}"
    return None


def to_latex(node) -> str:
    atom = _latex_atom(node)
    if atom is not None:
        return atom
    head = node[0]
    if head in _QUANT:
        sym = "\\forall" if head == "forall" else "\\exists"
        names = [node[2]]
        body = node[3]
        while body[0] == head:
            names.append(body[2])
            body = body[3]
        quant = f"({sym} {', '.join(_latex_var(x) for x in names)})"
        return f"{quant}[{to_latex(body)}]"
    if head in ("and", "or"):
        sym = " \\wedge " if head == "and" else " \\vee "
        return sym.join(_latex_wrap(c) for c in node[1:])
    if head == "implies":
        return f"{_latex_wrap(node[1])} \\rightarrow {_latex_wrap(node[2])}"
    if head == "not":
        return f"\\neg {_latex_wrap(node[1])}"
    raise ValueError(f"unknown node head {head!r}")


def _latex_wrap(node) -> str:
    atom = _latex_atom(node)
    if atom is not None:
        return atom
    if node[0] in _QUANT:
        return to_latex(node)
    return f"({to_latex(node)})"


# ---------------------------------------------------------------------------
# Primitive lint
# ---------------------------------------------------------------------------


def lint_formula(node) -> list[str]:
    """Check the AST stays inside the primitive vocabulary.

    Allowed: quantifiers over the four sorts, the four relations with
    sort-correct arguments, the four connectives, every variable a string
    bound by an enclosing quantifier. Returns a list of violations, empty if
    clean.
    """
    out: list[str] = []

    def var_sort(scope: dict, name: str, want: tuple, where: str):
        got = scope.get(name)
        if got is None:
            out.append(f"unbound variable {name!r} in {where}")
        elif got not in want:
            out.append(f"{where}: {name!r} has sort {got}, wanted one of {want}")

    def walk(n, scope: dict):
        if not isinstance(n, tuple) or not n:
            out.append(f"malformed node {n!r}")
            return
        head = n[0]
        if head in _QUANT:
            if len(n) != 4:
                out.append(f"{head} arity {len(n) - 1}")
                return
            if n[1] not in SORTS:
                out.append(f"unknown sort {n[1]!r}")
                return
            if not isinstance(n[2], str):
                out.append(f"{head} name {n[2]!r} is not a string")
                return
            walk(n[3], {**scope, n[2]: n[1]})
        elif head in ("and", "or"):
            if len(n) < 3:
                out.append(f"{head} with {len(n) - 1} children")
            for c in n[1:]:
                walk(c, scope)
        elif head == "not":
            if len(n) != 2:
                out.append("not arity != 1")
                return
            walk(n[1], scope)
        elif head == "implies":
            if len(n) != 3:
                out.append("implies arity != 2")
                return
            walk(n[1], scope)
            walk(n[2], scope)
        elif head in _RELS and len(n) != 3:
            out.append(f"{head} arity {len(n) - 1}")
        elif head in _RELS and (bad := [a for a in n[1:] if not isinstance(a, str)]):
            out.extend(f"{head} name {a!r} is not a string" for a in bad)
        elif head == "=":
            var_sort(scope, n[1], ("vertex", "edge"), "=")
            var_sort(scope, n[2], ("vertex", "edge"), "=")
            if scope.get(n[1]) and scope.get(n[2]) and scope[n[1]] != scope[n[2]]:
                out.append(f"= compares {scope[n[1]]} with {scope[n[2]]}")
        elif head == "in":
            s = scope.get(n[2])
            var_sort(scope, n[2], ("vertex-set", "edge-set"), "in")
            if s in _ELEM_OF:
                var_sort(scope, n[1], (_ELEM_OF[s],), "in")
            else:
                var_sort(scope, n[1], ("vertex", "edge"), "in")
        elif head == "subseteq":
            var_sort(scope, n[1], ("vertex-set", "edge-set"), "subseteq")
            var_sort(scope, n[2], ("vertex-set", "edge-set"), "subseteq")
            if scope.get(n[1]) and scope.get(n[2]) and scope[n[1]] != scope[n[2]]:
                out.append(f"subseteq mixes {scope[n[1]]} and {scope[n[2]]}")
        elif head == "I":
            var_sort(scope, n[1], ("edge",), "I")
            var_sort(scope, n[2], ("vertex",), "I")
        else:
            out.append(f"unknown head {head!r}")

    walk(node, {})
    return out


# ---------------------------------------------------------------------------
# Finite-model evaluation
# ---------------------------------------------------------------------------


def _conjuncts(node) -> list:
    """The conjuncts of node, with nested ands flattened."""
    if node[0] != "and":
        return [node]
    return [c for child in node[1:] for c in _conjuncts(child)]


class _Part(NamedTuple):
    """A normal-form node, its free names, the (set, element) quantifiers
    nested in it, and the parts of its children."""

    node: tuple
    free: frozenset
    cost: tuple
    kids: tuple


def _parts(p: _Part, head: str) -> tuple:
    return p.kids if p.node[0] == head else (p,)


def _make(head: str, kids) -> _Part:
    cost = (sum(k.cost[0] for k in kids), sum(k.cost[1] for k in kids))
    return _Part((head, *[k.node for k in kids]), frozenset().union(*[k.free for k in kids]), cost, tuple(kids))


def _join(head: str, parts) -> _Part:
    """The head node over parts, nested heads flattened, cheapest first."""
    flat = sorted([c for p in parts for c in _parts(p, head)], key=lambda p: p.cost)
    return flat[0] if len(flat) == 1 else _make(head, flat)


def _bind(head: str, sort: str, x: str, body: _Part) -> _Part:
    """The quantifier node; its fifth field holds its free names."""
    free, sets = body.free - {x}, sort in _ELEM_OF
    return _Part((head, sort, x, body.node, free), free, (body.cost[0] + sets, body.cost[1] + (not sets)), (body,))


def _miniscope(node) -> _Part:
    """node in the normal form that evaluate_formula states and compiles."""
    head = node[0]
    if head in _RELS:
        return _Part(node, frozenset(node[1:]), (0, 0), ())
    if head in ("and", "or"):
        return _join(head, map(_miniscope, node[1:]))
    if head not in _QUANT:
        return _make(head, [_miniscope(c) for c in node[1:]])
    sort, x, body = node[1], node[2], _miniscope(node[3])
    hyp, concl = body.kids if head == "forall" and body.node[0] == "implies" else (None, body)
    op = "and" if head == "exists" else "or"
    hs, ds = _parts(hyp, "and") if hyp else (), _parts(concl, op)  # H1 + H2, and A + B or D1 + D2
    out_h, in_h = [p for p in hs if x not in p.free], [p for p in hs if x in p.free]
    out_d, in_d = [p for p in ds if x not in p.free], [p for p in ds if x in p.free]
    if not in_d:  # B or D2 would be empty: the whole of it stays inside
        out_d, in_d = [], [concl]
    if not (out_h or out_d):
        return _bind(head, sort, x, body)
    inner = _make("implies", (_join("and", in_h), _join(op, in_d))) if in_h else _join(op, in_d)
    got = _join(op, [*out_d, _bind(head, sort, x, inner)])
    return _make("implies", (_join("and", out_h), got)) if out_h else got


def _guard_split(node) -> tuple[list, tuple | None]:
    """The guard candidates of a quantifier, the conjuncts of φ in exists v φ
    or of H in forall v (implies H ψ), nested ands flattened; and ψ, None
    for exists. A forall of any other shape has no candidates."""
    head, body = node[0], node[3]
    if head == "exists":
        return _conjuncts(body), None
    if body[0] == "implies":
        return _conjuncts(body[1]), body[2]
    return [], body


def _reads_bit(node, s: str, x) -> bool:
    """True when node reads set s only as (in x s) for the x bound outside
    it, so for a fixed x its truth depends on one bit of s. Inner binders
    of s hide it; inner binders of x make every later (in x s) foreign."""
    head = node[0]
    if head in _QUANT:
        if node[2] == s:
            return True
        return _reads_bit(node[3], s, None if node[2] == x else x)
    if head in _RELS:
        return node == ("in", x, s) or s not in node[1:]
    return all(_reads_bit(c, s, x) for c in node[1:])


def _conj(cs: tuple) -> Callable:
    if not cs:
        return lambda env: True
    if len(cs) == 1:
        return cs[0]

    def ev_and(env, cs=cs):
        for c in cs:
            if not c(env):
                return False
        return True

    return ev_and


@cache
def _bit_table(width: int) -> list[tuple[int, ...]]:
    """Per mask below 2**width, its set bits in ascending order. The caps
    bound width, so the cache stays small."""
    return [tuple(i for i in range(width) if mask >> i & 1) for mask in range(1 << width)]


class _Compiled:
    """Compiles a miniscoped AST into closures over one shared environment.

    Vertices are 0..n-1; edges are indexed into g.edges; sets are bitmasks.
    Every quantifier visits only the values its guards allow (see
    _element_quantifier and _set_quantifier). Each set quantifier owns its
    memo tables, keyed by the values of the free names it reads.
    """

    def __init__(self, g: Graph):
        self.inc_mask = [1 << u | 1 << v for u, v in g.edges]
        self.edges_at = [0] * g.n
        for i, (u, v) in enumerate(g.edges):
            self.edges_at[u] |= 1 << i
            self.edges_at[v] |= 1 << i
        self.full = {"vertex": (1 << g.n) - 1, "edge": (1 << g.m) - 1}
        self.bit_table = _bit_table(max(g.n, g.m))
        self.nslots = 0

    def compile(self, node) -> Callable:
        fn = self._build(node, {})
        env = [0] * self.nslots
        return lambda: fn(env)

    def _slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def _rest(self, rest: list, then, scope: dict) -> Callable:
        """The per-value test the guards leave: the other conjuncts, -> ψ."""
        test = _conj(tuple(self._build(c, scope) for c in rest))
        if then is None:
            return test
        t = self._build(then, scope)
        if not rest:
            return t
        return lambda env, h=test, t=t: not h(env) or t(env)

    def _element_guard(self, c, x: str, scope: dict) -> Callable | None:
        """The mask of values of x that guard c allows, as a function of
        the environment; None when c is no guard."""
        head = c[0]
        neg = head == "not" and c[1][0] == "="
        if neg:
            c, head = c[1], "="
        if head == "=" and x in c[1:] and c[1] != c[2]:
            y = scope[c[2] if c[1] == x else c[1]]
            if neg:
                return lambda env: ~(1 << env[y])
            return lambda env: 1 << env[y]
        if head == "in" and c[1] == x:
            s = scope[c[2]]
            return lambda env: env[s]
        if head == "I" and c[1] == x:
            v, at = scope[c[2]], self.edges_at
            return lambda env: at[env[v]]
        if head == "I" and c[2] == x:
            e, inc = scope[c[1]], self.inc_mask
            return lambda env: inc[env[e]]
        return None

    def _element_quantifier(self, node, scope: dict) -> Callable:
        """exists x φ or forall x φ over vertices or edges.

        The guards are (in x S), (I x v) for an edge x, (I e x) for a
        vertex x, (= x y) and (not (= x y)), the other name bound outside
        x. x runs in ascending order over the values they all allow; any
        other value falsifies a guard and decides nothing. The guards are
        not re-evaluated on the values visited.
        """
        head, sort, x = node[:3]
        slot = self._slot()
        masks, rest = [], []
        conj, then = _guard_split(node)
        for c in conj:
            m = self._element_guard(c, x, scope)
            if m is None:
                rest.append(c)
            else:
                masks.append(m)
        test = self._rest(rest, then, {**scope, x: slot})
        full, bits = self.full[sort], self.bit_table
        want = head == "exists"

        def ev(env):
            mask = full
            for m in masks:
                mask &= m(env)
            for v in bits[mask]:
                env[slot] = v
                if test(env) == want:
                    return want
            return not want

        return ev

    def _set_quantifier(self, node, scope: dict) -> Callable:
        """exists S φ or forall S φ over a set sort.

        Of the guard candidates (see _guard_split) these are guards:
        - (subseteq S T), T bound outside, gives S ⊆ T;
        - (forall x χ), x of S's element sort and χ reading S only as
          (in x S), is tried per element x with x out of S and in S. The
          outcomes force x out of S, into S, or leave it free.
        Every set outside the resulting interval lo ⊆ S ⊆ hi falsifies a
        guard, so only the sets in it are visited, and the guards are not
        re-evaluated on them. The interval is memoized on the values of
        the free names the guards read, the result on those of every free
        name, each in a table of this quantifier's own.
        """
        head, sort, s, _, free = node
        slot = self._slot()
        inner = {**scope, s: slot}
        want = head == "exists"
        uppers, bits, guards, rest = [], [], [], []
        conj, then = _guard_split(node)
        for c in conj:
            if c[0] == "subseteq" and c[1] == s and c[2] != s:
                uppers.append(scope[c[2]])
            elif c[0] == "forall" and c[1] == _ELEM_OF[sort] and c[2] != s and _reads_bit(c[3], s, c[2]):
                xs = self._slot()
                bits.append((xs, self.bit_table[self.full[c[1]]], self._build(c[3], {**inner, c[2]: xs})))
            else:
                rest.append(c)
                continue
            guards.append(c)
        test = self._rest(rest, then, inner)
        full = self.full[_ELEM_OF[sort]]
        read = frozenset().union(*(c[4] if c[0] == "forall" else c[1:] for c in guards))
        key_slots = [scope[x] for x in free]
        bound_slots = [scope[x] for x in free & read]
        memo, bounds_memo = {}, {}

        def interval(env):
            """(lo, hi & ~lo), or None when no set passes the guards."""
            lo, hi = 0, full
            for t in uppers:
                hi &= env[t]
            for xs, dom, chi in bits:
                for v in dom:
                    env[xs] = v
                    bit = 1 << v
                    env[slot] = 0
                    out_ok = chi(env)
                    env[slot] = bit
                    if not chi(env):
                        if not out_ok:
                            return None
                        hi &= ~bit
                    elif not out_ok:
                        lo |= bit
            return None if lo & ~hi else (lo, hi & ~lo)

        def scan(env):
            key = tuple(env[t] for t in bound_slots)
            if key not in bounds_memo:
                bounds_memo[key] = interval(env)
            got = bounds_memo[key]
            if got is None:
                return not want
            lo, span = got
            sub = 0
            while True:
                env[slot] = lo | sub
                if test(env) == want:
                    return want
                if sub == span:
                    return not want
                sub = (sub - span) & span  # next submask of span, ascending

        def ev(env):
            key = tuple(env[t] for t in key_slots)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = scan(env)
            return hit

        return ev

    def _build(self, node, scope: dict) -> Callable:
        head = node[0]
        if head in _QUANT:
            if node[1] in _ELEM_OF:
                return self._set_quantifier(node, scope)
            return self._element_quantifier(node, scope)
        if head == "and":
            return _conj(tuple(self._build(c, scope) for c in node[1:]))
        if head == "or":
            cs = tuple(self._build(c, scope) for c in node[1:])

            def ev_or(env, cs=cs):
                for c in cs:
                    if c(env):
                        return True
                return False

            return ev_or
        if head == "not":
            c = self._build(node[1], scope)
            return lambda env, c=c: not c(env)
        if head == "implies":
            a = self._build(node[1], scope)
            b = self._build(node[2], scope)
            return lambda env, a=a, b=b: (not a(env)) or b(env)
        sa, sb = scope[node[1]], scope[node[2]]
        if head == "=":
            return lambda env, sa=sa, sb=sb: env[sa] == env[sb]
        if head == "in":
            return lambda env, sa=sa, sb=sb: (env[sb] >> env[sa]) & 1 == 1
        if head == "subseteq":
            return lambda env, sa=sa, sb=sb: env[sa] & ~env[sb] == 0
        if head == "I":
            inc = self.inc_mask
            return lambda env, sa=sa, sb=sb, inc=inc: (inc[env[sa]] >> env[sb]) & 1 == 1
        raise ValueError(f"unknown node head {head!r}")


def evaluate_formula(formula, g: Graph) -> bool:
    """Evaluate a closed formula on g by enumeration.

    A formula that lint_formula flags is refused with a ValueError naming
    the violations. The rest is miniscoped bottom-up (_miniscope), with x
    free in none of A, H1, D1: exists x (A and B) becomes A and exists x B,
    forall x (H1 and H2 -> D1 or D2) becomes H1 -> (D1 or forall x (H2 ->
    D2)), and forall x (D1 or D2) becomes D1 or forall x D2. B, H2 -> D2 and
    D2 keep a part, so each holds over empty domains too. Every and and or
    is flattened and stable-sorted by (nested set quantifiers, nested
    element quantifiers). A guard mentions its own variable and never
    moves, so every quantifier still visits only the values its guards
    allow (see _Compiled). Exact for any well-sorted formula. The Estar scan
    is still 2^m, so models beyond n <= 7, m <= 10 are refused: this only
    certifies that emitted text means what it should. A formula nested
    too deeply for Python's recursion limit is refused with a ValueError.
    """
    ast = formula.ast if isinstance(formula, EmittedFormula) else formula
    if g.n > EVAL_MAX_N:
        raise ValueError(f"evaluator cap n <= {EVAL_MAX_N}, got n={g.n}")
    if g.m > EVAL_MAX_M:
        raise ValueError(f"evaluator cap m <= {EVAL_MAX_M}, got m={g.m}")
    try:
        problems = lint_formula(ast)
        if problems:
            raise ValueError("formula fails lint: " + "; ".join(problems))
        return _Compiled(g).compile(_miniscope(ast).node)()
    except RecursionError:
        raise ValueError("formula nests too deeply for the evaluator") from None
