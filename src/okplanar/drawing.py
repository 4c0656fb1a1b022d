"""Convex drawings: circular vertex orders, chord crossings, class checkers.

A drawing here is a graph together with one clockwise circular order of all
vertices on a circle; edges are straight chords. Two chords cross iff their
endpoint pairs interleave along the circle, so everything is order-theoretic
and exact: no coordinates, no floating point. The crossing kernel is
polynomial: per-chord crossers are bitmask operations, the largest
pairwise-crossing edge set (a maximum clique of the crossing graph) is a
chain search over cut points, and "do t pairwise crossing chords cross this
one?" is a chain walk along its shorter side that stops at t.

The module also owns the four drawing classes: the table of accepted
variant names, the k range of each class (resolve_class) and the one
membership rule (class_violation).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
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
        raise ValueError(f"order is not a permutation of 0..{graph.n - 1}")
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

    max_mutual is exact (see ChordSet.max_mutual); among the largest sets the
    witness is the one with the greatest edge-index mask.
    """
    edges = d.graph.edges
    cs = drawing_chords(d)
    size, mask = cs.max_mutual()
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


def _longest_chain(pairs: Iterable[tuple[int, int]]) -> int:
    """Longest run of pairs strictly increasing in both coordinates.

    Patience sort: ties in the first coordinate come second-descending, so
    a strictly increasing run of second coordinates never takes two of them.
    """
    ordered = sorted(pairs, key=lambda t: (t[0], -t[1]))
    tails: list[int] = []
    for _, y in ordered:
        i = bisect_left(tails, y)
        if i == len(tails):
            tails.append(y)
        else:
            tails[i] = y
    return len(tails)


def is_closed_drawing(d: ConvexDrawing) -> bool:
    """Every cyclically consecutive boundary pair must be a graph edge."""
    if d.n < 3:
        raise ValueError("closed drawings need n >= 3")
    o = d.order
    return all(d.graph.has_edge(o[i], o[(i + 1) % d.n]) for i in range(d.n))


# every accepted variant name -> its canonical name; the four canonical
# names map to themselves
VARIANTS = {
    "outer-planar": "outer-planar",
    "outer-quasi": "outer-quasi",
    "closed-outer-planar": "closed-outer-planar",
    "closed-outer-quasi": "closed-outer-quasi",
    "planar": "outer-planar",
    "quasi": "outer-quasi",
    "outer-quasi-planar": "outer-quasi",
    "closed-planar": "closed-outer-planar",
    "closed-quasi": "closed-outer-quasi",
    "closed-outer-quasi-planar": "closed-outer-quasi",
}


def resolve_class(variant: str, k: int) -> str:
    """The canonical name behind an accepted variant name, once k is known
    to lie in that class's range: k >= 0 for the planar classes (at most k
    crossings per edge), k >= 2 for the quasi ones (no k pairwise crossing
    edges). ValueError for an unknown name or a k out of range."""
    try:
        canon = VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; choose from " + ", ".join(sorted(VARIANTS))
        ) from None
    if canon.endswith("quasi") and k < 2:
        raise ValueError(f"quasi variants need k >= 2, got {k}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return canon


def class_violation(d: ConvexDrawing, rep: CrossingReport, k: int, variant: str) -> str | None:
    """Why d (crossing report rep) is outside the canonical variant's class
    at k, or None. The one membership rule: closed needs a Hamiltonian
    boundary, quasi fewer than k mutually crossing edges, planar at most k
    crossings per edge."""
    if variant.startswith("closed") and not is_closed_drawing(d):
        return "is not closed: boundary gap"
    if not variant.endswith("quasi"):
        return planar_violation(rep.per_edge, k)
    if rep.max_mutual > k - 1:
        return f"has {rep.max_mutual} mutually crossing edges: {rep.witness_mutual}"
    return None


def planar_violation(per_edge: dict[Edge, int], k: int) -> str | None:
    """The planar half of class_violation, from per-edge crossing counts
    alone: names the first edge with the most crossings if that is more
    than k, else None."""
    worst = max(per_edge, key=per_edge.get, default=None)
    if worst is not None and per_edge[worst] > k:
        return f"crosses edge {worst} {per_edge[worst]} > {k} times"
    return None


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
        cs.counts = [cs.crossers(p, q).bit_count() for p, q in cs.chords]
        return cs

    def crossing_chords(self, p: int, q: int) -> list[tuple[int, int]]:
        """The chords crossing (p, q), in index order."""
        return [self.chords[i] for i in _bits(self.crossers(p, q))]

    def crossers(self, p: int, q: int) -> int:
        if p > q:
            p, q = q, p
        inside = self.prefix[q] ^ self.prefix[p + 1]
        return inside & ~(self.incident[p] | self.incident[q])

    def mutual_through(self, p: int, q: int, mask: int, need: int) -> bool:
        """Do need chords of mask cross (p, q) and pairwise cross each other?

        Each crosser has one end x on the shorter arc between p and q,
        walked clockwise from p to q after swapping them if necessary, and its
        other end y beyond q. Two crossers cross iff their (x, y - q mod n)
        pairs increase together, so the walk grows a patience-sort chain
        (far ends descending at one x) and stops once it is need long.
        """
        cm = mask & self.crossers(p, q)
        if cm.bit_count() < need:
            return False
        if need <= 0:
            return True
        n, chords, incident = self.n, self.chords, self.incident
        p, q = min(p, q), max(p, q)
        walk = range(p + 1, q)
        if 2 * (q - p) > n:
            p, q = q, p
            walk = [*range(p + 1, n), *range(q)]
        tails: list[int] = []
        for x in walk:
            here = incident[x] & cm
            if not here:
                continue
            ys = []
            while here:
                low = here & -here
                a, b = chords[low.bit_length() - 1]
                ys.append((a + b - x - q) % n)
                here ^= low
            ys.sort(reverse=True)
            for y in ys:
                i = bisect_left(tails, y)
                if i < len(tails):
                    tails[i] = y
                elif i + 1 < need:
                    tails.append(y)
                else:
                    return True
        return False

    def mutual_size(self) -> int:
        """Size of the largest pairwise-crossing family.

        Such a family, sorted by left end, has a_1 < ... < a_t < b_1 < ... <
        b_t: it spans one cut and is a chain of (a, b) among the chords
        spanning that cut, prefix[c] for the cut before position c. A chord
        in a family of best + 1 crosses at least best others, so chords
        crossed fewer times are skipped. A cut where no kept chord starts at
        c - 1 spans a subset of the cut before it and is skipped too.
        """
        best = 0
        keep = (1 << self.m) - 1
        for c in range(1, self.n):
            span = self.prefix[c] & keep
            if span.bit_count() <= best or not span & self.incident[c - 1]:
                continue
            size = _longest_chain(self.chords[i] for i in _bits(span))
            if size > best:
                best = size
                keep = sum(1 << i for i, cnt in enumerate(self.counts) if cnt >= best)
        return best

    def max_mutual(self) -> tuple[int, int]:
        """(size, index mask) of the largest pairwise-crossing family; among
        the largest, the one with the greatest mask.

        Greedy from the highest index down: chord i joins when the chosen
        chords, i and the best family among the remaining common crossers
        still reach the size.
        """
        size = self.mutual_size()
        cand = sum(1 << i for i, cnt in enumerate(self.counts) if cnt >= size - 1)
        chosen, count = 0, 0
        while cand and count < size:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            p, q = self.chords[i]
            if self.mutual_through(p, q, cand, size - count - 1):
                chosen |= 1 << i
                count += 1
                cand &= self.crossers(p, q)
        return size, chosen

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
        for j in _bits(cm):
            self.counts[j] += 1
        self.incident[p] |= bit
        self.incident[q] |= bit
        for i in range(p + 1, q + 1):
            self.prefix[i] ^= bit
        return idx, cm


def drawing_chords(d: ConvexDrawing) -> ChordSet:
    """The drawing's edges as position chords, indexed in edge-list order."""
    p = d.pos
    return ChordSet.of(d.n, [(p[u], p[v]) for u, v in d.graph.edges])


def drawing_svg(d: ConvexDrawing) -> str:
    """Render the drawing: vertices on a circle, chords, crossed edges in red."""
    crossed = dict(zip(d.graph.edges, drawing_chords(d).counts))
    return circle_svg(d, lambda e: ("#c22" if crossed[e] else "#333", 1.2))


def circle_svg(d: ConvexDrawing, edge_style: Callable[[Edge], tuple[str, float]]) -> str:
    """Vertices on a circle in drawing order on a 260-pixel square, each
    edge a chord whose (color, stroke width) comes from edge_style."""
    size, r = 260, 100.0
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
