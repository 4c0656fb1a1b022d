"""Maximal drawings: saturation, hierarchical levels, and the replacement split.

A convex drawing with no k pairwise crossing edges is maximal when no chord
can be added without creating such a set. Maximal drawings are rigid objects:
every short chord (a "frame" edge) is present, the edges crossing a long
chord split into at most k-2 crossing-free levels, and swapping everything on
one side of a long chord for one fresh vertex per level yields a smaller
maximal drawing. saturate() reaches a maximal drawing greedily,
maximal_edge_count() gives the edge count that every maximal drawing has
(Nakamigawa, TCS 2000) and no drawing in the class exceeds (Capoyleas and
Pach, JCTB 1992), so maximality is a count, and replacement_split()
performs the two-sided reduction with full bookkeeping.

Every crossing question goes to the chord kernel (drawing.ChordSet). Levels
must be crossing-free, so a pairwise-crossing family takes at most one edge
per level; property P2 (one crossing edge from each lower level) is then one
threshold query (ChordSet.mutual_through), as is a blocked saturation chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .drawing import (
    ConvexDrawing,
    Edge,
    _bits,
    circle_svg,
    crossing_report,
    drawing_chords,
    make_drawing,
    resolve_class,
)
from .graphs import build_graph, is_connected


class QuasiPlanarityError(Exception):
    """Raised when an input drawing falls outside the stated crossing class."""

    def __init__(self, message: str, witness: Iterable[Edge] = ()):
        super().__init__(message)
        self.witness = tuple(witness)


class ReplacementError(Exception):
    """A replacement split broke a counting relation or lost maximality."""


def maximal_edge_count(n: int, k: int) -> int:
    """Edge count shared by all maximal outer k-quasi-planar drawings on n vertices.

    Complete below n = 2k-1; linear in n beyond that. The two branches agree
    at the boundary.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    resolve_class("outer-quasi", k)
    if n <= 2 * k - 1:
        return n * (n - 1) // 2
    return 2 * (k - 1) * n - math.comb(2 * k - 1, 2)


def frame_edges(n: int, k: int) -> frozenset[Edge]:
    """Chords joining boundary positions fewer than k steps apart.

    Such a chord has at most k-2 vertices on its short side, so no k-1
    pairwise crossing edges can all cross it; adding it is always safe and
    every maximal drawing contains all of them. k=2 gives the boundary
    cycle, n <= 2k-1 the complete graph.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    resolve_class("outer-quasi", k)
    out: set[Edge] = set()
    for i in range(n):
        for step in range(1, min(k, n)):  # steps from n on repeat a chord
            j = (i + step) % n
            if i != j:
                out.add((i, j) if i < j else (j, i))
    return frozenset(out)


def saturate(d: ConvexDrawing, k: int) -> ConvexDrawing:
    """Add chords until none fits without creating k pairwise crossing edges.

    Candidates run in a fixed order, circular chord length ascending then
    lexicographic by position, so the result is deterministic. One pass
    suffices: rejection is permanent, since the blocking crossings only ever
    grow as edges are added. The pass stops once the drawing holds
    maximal_edge_count(n, k) edges: by Capoyleas-Pach no drawing in the
    class has more, so every later candidate would be rejected anyway.
    """
    room = maximal_edge_count(d.n, k) - d.graph.m  # also rejects k < 2
    cs = drawing_chords(d)
    if cs.mutual_size() > k - 1:
        rep = crossing_report(d)  # only to name the witness
        raise QuasiPlanarityError(
            f"{rep.max_mutual} mutually crossing edges exceed the allowed {k - 1}",
            witness=rep.witness_mutual,
        )
    n = d.n
    present = set(cs.chords)
    added: list[Edge] = []
    for p, q in _chords_by_length(n):
        if len(added) == room:
            break
        if (p, q) not in present and not cs.mutual_through(p, q, -1, k - 1):  # -1: every chord
            cs.add(p, q)
            added.append((p, q))
    if not added:
        return d
    edges = list(d.graph.edges)
    for p, q in added:
        u, v = d.order[p], d.order[q]
        edges.append((u, v) if u < v else (v, u))
    return make_drawing(build_graph(n, edges), d.order)


def _chords_by_length(n: int):
    """Every chord (p, q), p < q, of n positions: circular length
    min(q - p, n - q + p) ascending, then (p, q) ascending."""
    for length in range(1, n // 2 + 1):
        for p in range(n - length):
            yield p, p + length
            if p < length < n - length:
                yield p, p + n - length


def is_maximal(d: ConvexDrawing, k: int) -> bool:
    """No absent chord can join without creating k pairwise crossing edges.

    Also False when the drawing itself already has k mutually crossing edges.
    No absent chord is queried: fewer than maximal_edge_count(n, k) edges
    means not maximal (Nakamigawa), and a drawing in the class with that
    many admits no more (Capoyleas-Pach).
    """
    return (
        d.graph.m == maximal_edge_count(d.n, k)
        and drawing_chords(d).mutual_size() <= k - 1
    )


def find_long_edge(d: ConvexDrawing, k: int) -> Edge | None:
    """First edge with at least k-1 vertices strictly on each side of its chord.

    For a maximal drawing a None return means the graph is complete on at
    most 2k-1 vertices; that dichotomy is what the replacement recursion
    bottoms out on.
    """
    resolve_class("outer-quasi", k)
    for u, v in d.graph.edges:
        p, q = d.pos[u], d.pos[v]
        if p > q:
            p, q = q, p
        inside = q - p - 1
        if inside >= k - 1 and d.n - 2 - inside >= k - 1:
            return (u, v)
    return None


@dataclass(frozen=True)
class LevelDecomposition:
    """Edges crossing a long chord, split into crossing-free levels.

    left lists v_1..v_g, the vertices clockwise from endpoint a to endpoint
    b, both exclusive; right lists w_1..w_h counterclockwise from a. Levels
    appear in construction order; l_sets and r_sets hold the endpoints each
    level touches on either side.
    """

    long_edge: Edge
    k: int
    levels: tuple[tuple[Edge, ...], ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    l_sets: tuple[frozenset[int], ...]
    r_sets: tuple[frozenset[int], ...]

    @property
    def t(self) -> int:
        return len(self.levels)

    def to_dict(self) -> dict:
        return {
            "long_edge": list(self.long_edge),
            "k": self.k,
            "t": self.t,
            "levels": [[list(e) for e in lvl] for lvl in self.levels],
            "left": list(self.left),
            "right": list(self.right),
            "l_sets": [sorted(s) for s in self.l_sets],
            "r_sets": [sorted(s) for s in self.r_sets],
        }


def build_levels(d: ConvexDrawing, long_edge: Edge, k: int) -> LevelDecomposition:
    """Split the edges crossing long_edge into at most k-2 crossing-free levels.

    Sweep i walks the left-side vertices top to bottom and takes each one's
    not yet leveled crossing edges unless they cross something already in
    level i. An edge still unleveled after k-2 sweeps sits on top of k-1
    pairwise crossing edges, which together with the long edge itself rules
    out outer k-quasi-planarity, so such input is rejected.
    """
    resolve_class("outer-quasi", k)
    u, v = long_edge
    if not d.graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the drawing")
    a, b = (u, v) if u < v else (v, u)  # smaller id anchors the labeling
    pa, pb = d.pos[a], d.pos[b]
    n = d.n
    span = (pb - pa) % n
    left = tuple(d.order[(pa + s) % n] for s in range(1, span))
    right = tuple(d.order[(pa - s) % n] for s in range(1, n - span))
    if len(left) < k - 1 or len(right) < k - 1:
        raise ValueError(f"({u}, {v}) is not long for k={k}")
    edges = d.graph.edges
    cs = drawing_chords(d)
    remaining = cs.crossers(pa, pb)
    levels: list[tuple[Edge, ...]] = []
    for _ in range(k - 2):
        if not remaining:
            break
        cur: list[Edge] = []
        level = 0
        for vj in left:
            pj = d.pos[vj]
            # far ends in right-side order: counterclockwise from a
            far = lambda i: (pa + pj - sum(cs.chords[i])) % n
            for i in sorted(_bits(remaining & cs.incident[pj]), key=far):
                if not cs.crossers(*cs.chords[i]) & level:
                    level |= 1 << i
                    cur.append(edges[i])
        remaining &= ~level
        levels.append(tuple(cur))
    if remaining:
        raise QuasiPlanarityError(
            f"crossing edges left over after {k - 2} levels; the drawing "
            f"cannot be outer {k}-quasi-planar",
            witness=tuple(edges[i] for i in _bits(remaining)),  # edges are sorted
        )
    on_left, on_right = set(left), set(right)
    return LevelDecomposition(
        long_edge=(a, b), k=k, levels=tuple(levels), left=left, right=right,
        l_sets=tuple(frozenset(x for e in lvl for x in e if x in on_left) for lvl in levels),
        r_sets=tuple(frozenset(x for e in lvl for x in e if x in on_right) for lvl in levels),
    )


def verify_level_properties(ld: LevelDecomposition, d: ConvexDrawing) -> dict:
    """Check the two cross-level properties and per-level connectivity.

    Each level must be a crossing-free set of edges crossing the long edge;
    other input is malformed and raises ValueError. P1: when an edge of an earlier
    level crosses an edge of a later one, it crosses from above, i.e.
    strictly smaller left index and strictly larger right index. P2: every
    edge e of level i extends downward to i pairwise crossing edges, one
    from each earlier level. A crossing-free level gives at most one edge to
    any pairwise-crossing family, so this holds exactly when the edges of
    levels below i that cross e contain i-1 pairwise crossing ones: one
    threshold query through e on the chord kernel. Connectivity of each
    level is only demanded when the drawing is maximal; below that the
    guarantee does not hold and the per-level results are informational.
    Failures are report content, not exceptions.
    """
    cs = drawing_chords(d)
    index = {e: i for i, e in enumerate(d.graph.edges)}
    through = cs.crossers(*(d.pos[x] for x in ld.long_edge))
    hit: dict[Edge, int] = {}  # crosser mask of each leveled edge
    masks: list[int] = []  # edge mask of each level
    for i, lvl in enumerate(ld.levels, 1):
        mask = 0
        for e in lvl:
            if e not in index or not through >> index[e] & 1:
                raise ValueError(f"{e} is not an edge crossing the long edge")
            hit[e] = cs.crossers(*cs.chords[index[e]])
            if hit[e] & mask:
                raise ValueError(f"level {i} holds two crossing edges")
            mask |= 1 << index[e]
        masks.append(mask)

    # a crossing pair shares no end, so f crosses e from above exactly when
    # f's left end comes first: before[x] holds the edges at earlier left ends
    before: dict[int, int] = {}
    upto = 0
    for x in ld.left:
        before[x] = upto
        upto |= cs.incident[d.pos[x]]

    def p1_violation() -> dict | None:
        for y in range(1, ld.t):
            for x in range(y):
                for e in ld.levels[y]:
                    wrong = hit[e] & masks[x] & ~before.get(e[0], before.get(e[1]))
                    if wrong:
                        f = next(f for f in ld.levels[x] if wrong >> index[f] & 1)
                        return {"upper": list(e), "lower": list(f), "levels": [y + 1, x + 1]}
        return None

    def p2_violation() -> dict | None:
        below = 0
        for i, (lvl, mask) in enumerate(zip(ld.levels, masks), 1):
            for e in lvl:
                if not cs.mutual_through(*cs.chords[index[e]], below, i - 1):
                    return {"edge": list(e), "level": i}
            below |= mask
        return None

    p1_witness = p1_violation()
    p2_witness = p2_violation()

    connected: list[bool] = []
    for lvl in ld.levels:
        ends = {x: i for i, x in enumerate({x for e in lvl for x in e})}
        level = build_graph(len(ends), [(ends[x], ends[y]) for x, y in lvl])
        connected.append(is_connected(level))

    required = is_maximal(d, ld.k)
    conn_pass = all(connected) if required else None
    return {
        "p1": {"pass": p1_witness is None, "witness": p1_witness},
        "p2": {"pass": p2_witness is None, "witness": p2_witness},
        "connectivity": {
            "required": required,
            "levels": connected,
            "pass": conn_pass,
        },
        "pass": (
            p1_witness is None
            and p2_witness is None
            and (conn_pass is None or conn_pass)
        ),
    }


@dataclass(frozen=True)
class ReplacementResult:
    """Both halves of a replacement split plus the edge bookkeeping.

    origin_g1/origin_g2 map each part vertex back to the vertex it came
    from, None for the fresh level-vertices; level_vertices_g1/g2 map the
    1-based level index to the part vertex standing in for that level.
    crossing_edges counts the original edges crossing the long chord;
    added_g1/added_g2 count the edges each part gained over the inherited
    ones.
    """

    g1: ConvexDrawing
    g2: ConvexDrawing
    level_vertices_g1: dict[int, int]
    level_vertices_g2: dict[int, int]
    origin_g1: tuple[int | None, ...]
    origin_g2: tuple[int | None, ...]
    crossing_edges: int
    added_g1: int
    added_g2: int


def _replace_side(
    d: ConvexDrawing, ld: LevelDecomposition, k: int, delete_left: bool
) -> tuple[ConvexDrawing, dict[int, int], tuple[int | None, ...], int]:
    a, b = ld.long_edge
    kept = ld.right if delete_left else ld.left
    sets = ld.r_sets if delete_left else ld.l_sets
    # clockwise ring of original labels, None where a level-vertex goes.
    # Level 1 sits next to a when the left side is replaced but next to b
    # when the right side is; the sweep that built the levels ran over the
    # left side, and only this orientation keeps a crossing pair of leveled
    # edges crossing after each is bent to its level-vertex.
    if delete_left:
        ring: list[int | None] = [a, *([None] * (k - 2)), b, *reversed(kept)]
    else:
        ring = [a, *kept, b, *([None] * (k - 2))]
    n1 = len(ring)
    new_id = {x: i for i, x in enumerate(ring) if x is not None}
    if delete_left:
        level_vertex = {i: i for i in range(1, k - 1)}
    else:
        level_vertex = {i: len(kept) + 1 + i for i in range(1, k - 1)}
    keep = set(kept) | {a, b}
    edges: set[Edge] = set()
    for x, y in d.graph.edges:
        if x in keep and y in keep:
            p, q = new_id[x], new_id[y]
            edges.add((p, q) if p < q else (q, p))
    inherited = len(edges)
    for i, touched in enumerate(sets, 1):
        lv = level_vertex[i]
        for x in touched:
            q = new_id[x]
            edges.add((lv, q) if lv < q else (q, lv))
    edges.update(frame_edges(n1, k))
    part = make_drawing(build_graph(n1, sorted(edges)), range(n1))
    return part, level_vertex, tuple(ring), len(edges) - inherited


def replacement_split(
    d: ConvexDrawing, long_edge: Edge, k: int
) -> ReplacementResult:
    """Split a maximal drawing along a long edge into two smaller maximal ones.

    Each part keeps one side plus the long edge and swaps the other side for
    one fresh vertex per level, joined to that level's endpoints on the kept
    side; absent frame edges then top the part back up to maximal. Vertex
    and edge counts of the parts tie back to the original through two exact
    relations, both checked here, as is maximality of the parts themselves.
    """
    if not is_maximal(d, k):
        raise QuasiPlanarityError("replacement needs a maximal drawing")
    ld = build_levels(d, long_edge, k)
    g1, lv1, origin1, added1 = _replace_side(d, ld, k, delete_left=True)
    g2, lv2, origin2, added2 = _replace_side(d, ld, k, delete_left=False)
    e_cross = sum(len(lvl) for lvl in ld.levels)
    if d.n != g1.n + g2.n - 2 * k + 2:
        raise ReplacementError(
            f"vertex relation failed: {d.n} != {g1.n} + {g2.n} - {2 * k - 2}"
        )
    if d.graph.m != g1.graph.m + g2.graph.m - (added1 + added2) + e_cross - 1:
        raise ReplacementError(
            f"edge relation failed: {d.graph.m} != {g1.graph.m} + "
            f"{g2.graph.m} - {added1 + added2} + {e_cross} - 1"
        )
    for name, part in (("g1", g1), ("g2", g2)):
        if not is_maximal(part, k):
            raise ReplacementError(f"replaced part {name} is not maximal")
    return ReplacementResult(
        g1=g1,
        g2=g2,
        level_vertices_g1=lv1,
        level_vertices_g2=lv2,
        origin_g1=origin1,
        origin_g2=origin2,
        crossing_edges=e_cross,
        added_g1=added1,
        added_g2=added2,
    )


_LEVEL_COLORS = ("#2f9e44", "#9c36b5", "#e8590c", "#1971c2", "#c2255c", "#5f3dc4")


def levels_svg(d: ConvexDrawing, ld: LevelDecomposition) -> str:
    """Render the drawing with the long edge black and each level colored."""
    level_of = {e: i for i, lvl in enumerate(ld.levels) for e in lvl}

    def style(e: Edge) -> tuple[str, float]:
        if e == ld.long_edge:
            return "#111", 2.0
        if e in level_of:
            return _LEVEL_COLORS[level_of[e] % len(_LEVEL_COLORS)], 1.4
        return "#ccc", 1.0

    return circle_svg(d, style)
