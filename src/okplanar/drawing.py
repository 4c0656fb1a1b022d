"""Convex drawings: circular vertex orders, chord crossings, class checkers.

A drawing here is a graph together with one clockwise circular order of all
vertices on a circle; edges are straight chords. Two chords cross iff their
endpoint pairs interleave along the circle, so everything is order-theoretic
and exact: no coordinates, no floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .graphs import Graph

Edge = tuple[int, int]


@dataclass(frozen=True)
class ConvexDrawing:
    graph: Graph
    order: tuple[int, ...]
    pos: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n


def make_drawing(graph: Graph, order: Sequence[int]) -> ConvexDrawing:
    """Attach a clockwise circular order to a graph, validating it."""
    order = tuple(int(v) for v in order)
    if len(order) != graph.n or sorted(order) != list(range(graph.n)):
        raise ValueError("order must be a permutation of 0..n-1")
    pos = [0] * graph.n
    for i, v in enumerate(order):
        pos[v] = i
    return ConvexDrawing(graph=graph, order=order, pos=tuple(pos))


def identity_drawing(graph: Graph) -> ConvexDrawing:
    return make_drawing(graph, range(graph.n))


def positions_interleave(a: int, b: int, c: int, d: int) -> bool:
    """Do chords {a,b} and {c,d} cross, given four distinct circle positions?

    True iff exactly one of c, d lies strictly between a and b.
    """
    if a > b:
        a, b = b, a
    return (a < c < b) != (a < d < b)


def edges_cross(d: ConvexDrawing, e: Edge, f: Edge) -> bool:
    """Chord-interleaving test; edges sharing an endpoint never cross."""
    for g in (e, f):
        if not d.graph.has_edge(g[0], g[1]):
            raise ValueError(f"edge {g} not in graph")
    if e[0] in f or e[1] in f:
        return False
    p = d.pos
    return positions_interleave(p[e[0]], p[e[1]], p[f[0]], p[f[1]])


@dataclass(frozen=True)
class CrossingReport:
    per_edge: dict[Edge, int]
    max_per_edge: int
    max_mutual: int
    witness_mutual: tuple[Edge, ...]


def crossing_report(d: ConvexDrawing) -> CrossingReport:
    """Per-edge crossing counts plus the largest pairwise-crossing edge set.

    max_mutual is exact: a maximum clique in the crossing graph (vertices are
    edges, adjacency is crossing), found by branch and bound with a greedy
    coloring bound.
    """
    edges = d.graph.edges
    cs = drawing_chords(d)
    size, mask = max_clique_bitset(cs.crossing_graph())
    witness = tuple(edges[i] for i in _bits(mask))
    return CrossingReport(
        per_edge=dict(zip(edges, cs.counts)),
        max_per_edge=max(cs.counts, default=0),
        max_mutual=size,
        witness_mutual=witness,
    )


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_clique_bitset(adj: list[int]) -> tuple[int, int]:
    """Maximum clique of a graph given as per-vertex neighbor bitmasks.

    Returns (size, vertex mask). Branch and bound: candidates are greedily
    colored, color classes bound the achievable clique size, branching runs
    from the highest color down so the bound prunes whole suffixes.
    """
    n = len(adj)
    best_size, best_mask = 0, 0

    def color_order(cand: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(adj[v] | bit)
                rest &= ~bit
                out.append((v, color))
        return out

    def expand(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_size, best_mask
        if not cand:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur_mask
            return
        order = color_order(cand)
        for v, c in reversed(order):
            if cur_size + c <= best_size:
                return
            bit = 1 << v
            expand(cand & adj[v], cur_mask | bit, cur_size + 1)
            cand &= ~bit

    expand((1 << n) - 1 if n else 0, 0, 0)
    return best_size, best_mask


def max_mutual_exhaustive(d: ConvexDrawing) -> int:
    """Largest pairwise-crossing set by subset enumeration. Oracle, m <= 16."""
    edges = d.graph.edges
    m = len(edges)
    if m > 16:
        raise ValueError("exhaustive oracle limited to m <= 16")
    # the scalar test, so the oracle shares no code with crossing_report
    crosses = {frozenset(p) for p in combinations(edges, 2) if edges_cross(d, *p)}
    best = 0
    for mask in range(1 << m):
        members = [edges[i] for i in _bits(mask)]
        if len(members) <= best:
            continue
        ok = all(
            frozenset((members[i], members[j])) in crosses
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        if ok:
            best = len(members)
    return best


def is_outer_k_planar_drawing(d: ConvexDrawing, k: int) -> bool:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return max(drawing_chords(d).counts, default=0) <= k


def is_outer_k_quasi_planar_drawing(d: ConvexDrawing, k: int) -> bool:
    # k = 2 is the degenerate boundary (no two crossing edges at all)
    if k < 2:
        raise ValueError("quasi-planarity needs k >= 2")
    return crossing_report(d).max_mutual <= k - 1


def is_closed_drawing(d: ConvexDrawing) -> bool:
    """Every cyclically consecutive boundary pair must be a graph edge."""
    if d.n < 3:
        raise ValueError("closed drawings need n >= 3")
    o = d.order
    return all(d.graph.has_edge(o[i], o[(i + 1) % d.n]) for i in range(d.n))


class ChordSet:
    """Growable chord set over circle positions 0..n-1 with fast crosser lookup.

    This is the package's one bulk crossing kernel; positions_interleave is
    its scalar reference. Edges are indexed by insertion order and live in
    bitmasks. For a candidate chord (p, q) the crossing edges are those with
    exactly one endpoint strictly inside the arc p..q, which a prefix-xor
    over per-position incidence masks yields in two operations; edges at p
    or q are masked off since shared endpoints never cross. The arc's
    direction does not matter: a chord crosses (p, q) iff it crosses (q, p).
    """

    def __init__(self, n: int):
        self.n = n
        self.m = 0
        self.chords: list[tuple[int, int]] = []
        self.counts: list[int] = []
        self.incident = [0] * n
        # prefix[i] = xor of incident[0..i-1]
        self.prefix = [0] * (n + 1)

    @classmethod
    def of(cls, n: int, chords: Iterable[tuple[int, int]]) -> ChordSet:
        """All chords at once, with one prefix-xor pass instead of one per chord."""
        cs = cls(n)
        for p, q in chords:
            bit = 1 << len(cs.chords)
            cs.chords.append((p, q) if p < q else (q, p))
            cs.incident[p] |= bit
            cs.incident[q] |= bit
        cs.m = len(cs.chords)
        for i in range(n):
            cs.prefix[i + 1] = cs.prefix[i] ^ cs.incident[i]
        cs.counts = [cm.bit_count() for cm in cs.crossing_graph()]
        return cs

    def crossing_graph(self) -> list[int]:
        """Crosser mask of every chord: the crossing graph as adjacency masks."""
        return [self.crossers(p, q) for p, q in self.chords]

    def crossing_chords(self, p: int, q: int) -> list[tuple[int, int]]:
        """The chords crossing (p, q), in index order."""
        return [self.chords[i] for i in _bits(self.crossers(p, q))]

    def crossers(self, p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        inside = self.prefix[q] ^ self.prefix[p + 1]
        return inside & ~(self.incident[p] | self.incident[q])

    def add(self, p: int, q: int) -> tuple[int, int]:
        """Insert chord (p, q); returns (new index, crosser mask)."""
        if p > q:
            p, q = q, p
        cm = self.crossers(p, q)
        idx = self.m
        bit = 1 << idx
        self.m += 1
        self.chords.append((p, q))
        self.counts.append(cm.bit_count())
        rest = cm
        while rest:
            j = (rest & -rest).bit_length() - 1
            self.counts[j] += 1
            rest &= rest - 1
        self.incident[p] |= bit
        self.incident[q] |= bit
        for i in range(p + 1, q + 1):
            self.prefix[i] ^= bit
        return idx, cm


def drawing_chords(d: ConvexDrawing) -> ChordSet:
    """The drawing's edges as position chords, indexed in edge-list order."""
    p = d.pos
    return ChordSet.of(d.n, [(p[u], p[v]) for u, v in d.graph.edges])


def drawing_svg(d: ConvexDrawing, size: int = 260) -> str:
    """Render the drawing: vertices on a circle, chords, crossed edges in red."""
    crossed = dict(zip(d.graph.edges, drawing_chords(d).counts))
    return circle_svg(d, lambda e: ("#c22" if crossed[e] else "#333", 1.2), size)


def circle_svg(
    d: ConvexDrawing, edge_style: Callable[[Edge], tuple[str, float]], size: int = 260
) -> str:
    """Vertices on a circle in drawing order, each edge a chord whose
    (color, stroke width) comes from edge_style."""
    r = 100.0
    cx = cy = size / 2
    pts = {}
    for i, v in enumerate(d.order):
        ang = 2 * math.pi * i / max(d.n, 1) - math.pi / 2
        pts[v] = (cx + r * math.cos(ang), cy + r * math.sin(ang))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="#ddd"/>',
    ]
    for e in d.graph.edges:
        color, width = edge_style(e)
        x1, y1 = pts[e[0]]
        x2, y2 = pts[e[1]]
        lines.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )
    for v, (x, y) in pts.items():
        lines.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#06c"/>')
        lines.append(
            f'<text x="{x:.1f}" y="{y - 6:.1f}" font-size="9" '
            f'text-anchor="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
