"""Maximal drawings: saturation, hierarchical levels, and the replacement split.

A convex drawing with no k pairwise crossing edges is maximal when no chord
can be added without creating such a set. Maximal drawings are rigid objects:
every short chord (a "frame" edge) is present, the edges crossing a long
chord split into at most k-2 crossing-free levels, and swapping everything on
one side of a long chord for one fresh vertex per level yields a smaller
maximal drawing. saturate() reaches a maximal drawing greedily,
maximal_edge_count() gives the edge count every maximal drawing lands on, and
replacement_split() performs the two-sided reduction with full bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .drawing import (
    ChordSet,
    ConvexDrawing,
    Edge,
    circle_svg,
    crossing_report,
    edges_cross,
    make_drawing,
    max_clique_bitset,
)
from .graphs import build_graph


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
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
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
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
    out: set[Edge] = set()
    for i in range(n):
        for step in range(1, k):
            j = (i + step) % n
            if i != j:
                out.add((i, j) if i < j else (j, i))
    return frozenset(out)


def _chords(d: ConvexDrawing) -> list[Edge]:
    out = []
    for u, v in d.graph.edges:
        p, q = d.pos[u], d.pos[v]
        out.append((p, q) if p < q else (q, p))
    return out


class _CrossingState:
    """Chord set plus per-chord crosser masks, for incremental clique tests."""

    def __init__(self, n: int, chords: Iterable[Edge] = ()):
        self.cs = ChordSet.of(n, chords)
        self.adj = self.cs.crossing_graph()

    def add(self, p: int, q: int) -> None:
        idx, cm = self.cs.add(p, q)
        self.adj.append(cm)
        rest = cm
        while rest:
            j = (rest & -rest).bit_length() - 1
            self.adj[j] |= 1 << idx
            rest &= rest - 1

    def blocked(self, p: int, q: int, k: int) -> bool:
        """Would chord (p, q) complete k pairwise crossing edges?

        True exactly when k-1 of its crossers pairwise cross each other.
        """
        cm = self.cs.crossers(p, q)
        if cm.bit_count() < k - 1:
            return False
        members = []
        rest = cm
        while rest:
            members.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        where = {g: i for i, g in enumerate(members)}
        sub = []
        for g in members:
            inter = self.adj[g] & cm
            mask = 0
            while inter:
                mask |= 1 << where[(inter & -inter).bit_length() - 1]
                inter &= inter - 1
            sub.append(mask)
        size, _ = max_clique_bitset(sub)
        return size >= k - 1


def saturate(d: ConvexDrawing, k: int) -> ConvexDrawing:
    """Add chords until none fits without creating k pairwise crossing edges.

    Candidates run in a fixed order, circular chord length ascending then
    lexicographic by position, so the result is deterministic. One pass
    suffices: rejection is permanent, since the blocking crossings only ever
    grow as edges are added.
    """
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
    rep = crossing_report(d)
    if rep.max_mutual > k - 1:
        raise QuasiPlanarityError(
            f"{rep.max_mutual} mutually crossing edges exceed the allowed {k - 1}",
            witness=rep.witness_mutual,
        )
    n = d.n
    present = set(_chords(d))
    state = _CrossingState(n, present)
    cands = []
    for p in range(n):
        for q in range(p + 1, n):
            if (p, q) not in present:
                cands.append((min(q - p, n - (q - p)), p, q))
    cands.sort()
    added: list[Edge] = []
    for _, p, q in cands:
        if not state.blocked(p, q, k):
            state.add(p, q)
            added.append((p, q))
    if not added:
        return d
    edges = list(d.graph.edges)
    for p, q in added:
        u, v = d.order[p], d.order[q]
        edges.append((u, v) if u < v else (v, u))
    return make_drawing(build_graph(n, edges), d.order)


def is_maximal(d: ConvexDrawing, k: int) -> bool:
    """No absent chord can join without creating k pairwise crossing edges.

    Also False when the drawing itself already has k mutually crossing edges.
    """
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
    if crossing_report(d).max_mutual > k - 1:
        return False
    present = set(_chords(d))
    state = _CrossingState(d.n, present)
    for p in range(d.n):
        for q in range(p + 1, d.n):
            if (p, q) not in present and not state.blocked(p, q, k):
                return False
    return True


def find_long_edge(d: ConvexDrawing, k: int) -> Edge | None:
    """First edge with at least k-1 vertices strictly on each side of its chord.

    For a maximal drawing a None return means the graph is complete on at
    most 2k-1 vertices; that dichotomy is what the replacement recursion
    bottoms out on.
    """
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
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
    if k < 2:
        raise ValueError(f"quasi-planarity needs k >= 2, got {k}")
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
    on_left = {x: i + 1 for i, x in enumerate(left)}
    on_right = {x: i + 1 for i, x in enumerate(right)}
    remaining: set[Edge] = set()
    for x, y in d.graph.edges:
        if (x in on_left and y in on_right) or (x in on_right and y in on_left):
            remaining.add((x, y))
    levels: list[tuple[Edge, ...]] = []
    for _ in range(k - 2):
        if not remaining:
            break
        cur: list[Edge] = []
        for vj in left:
            mine = [e for e in remaining if vj in e]
            mine.sort(key=lambda e: on_right[e[0] if e[1] == vj else e[1]])
            for e in mine:
                if not any(edges_cross(d, e, f) for f in cur):
                    cur.append(e)
                    remaining.discard(e)
        levels.append(tuple(cur))
    if remaining:
        raise QuasiPlanarityError(
            f"crossing edges left over after {k - 2} levels; the drawing "
            f"cannot be outer {k}-quasi-planar",
            witness=tuple(sorted(remaining)),
        )
    l_sets = tuple(
        frozenset(x for e in lvl for x in e if x in on_left) for lvl in levels
    )
    r_sets = tuple(
        frozenset(x for e in lvl for x in e if x in on_right) for lvl in levels
    )
    return LevelDecomposition(
        long_edge=(a, b),
        k=k,
        levels=tuple(levels),
        left=left,
        right=right,
        l_sets=l_sets,
        r_sets=r_sets,
    )


def verify_level_properties(ld: LevelDecomposition, d: ConvexDrawing) -> dict:
    """Check the two cross-level properties and per-level connectivity.

    P1: when an edge of an earlier level crosses an edge of a later one, it
    crosses from above, i.e. strictly smaller left index and strictly larger
    right index. P2: every edge of level i extends downward to i pairwise
    crossing edges, one from each earlier level. Connectivity of each level
    is only demanded when the drawing is maximal; below that the guarantee
    does not hold and the per-level results are informational. Failures are
    report content, not exceptions.
    """
    on_left = {x: i + 1 for i, x in enumerate(ld.left)}
    on_right = {x: i + 1 for i, x in enumerate(ld.right)}

    def indices(e: Edge) -> tuple[int, int]:
        x, y = e
        if x in on_left:
            return on_left[x], on_right[y]
        return on_left[y], on_right[x]

    p1_witness = None
    for y in range(1, ld.t):
        for x in range(y):
            for e in ld.levels[y]:
                ie, je = indices(e)
                for f in ld.levels[x]:
                    if edges_cross(d, e, f):
                        kf, lf = indices(f)
                        if not (ie > kf and je < lf):
                            p1_witness = {
                                "upper": list(e),
                                "lower": list(f),
                                "levels": [y + 1, x + 1],
                            }
                            break
                if p1_witness:
                    break
            if p1_witness:
                break
        if p1_witness:
            break

    failed: set[tuple[int, tuple[Edge, ...]]] = set()

    def extend_down(j: int, chosen: tuple[Edge, ...]) -> bool:
        # one edge from each of levels j..1, pairwise crossing with chosen
        if j == 0:
            return True
        key = (j, chosen)
        if key in failed:
            return False
        for f in ld.levels[j - 1]:
            if all(edges_cross(d, f, g) for g in chosen):
                if extend_down(j - 1, tuple(sorted(chosen + (f,)))):
                    return True
        failed.add(key)
        return False

    p2_witness = None
    for i in range(1, ld.t + 1):
        for e in ld.levels[i - 1]:
            if not extend_down(i - 1, (e,)):
                p2_witness = {"edge": list(e), "level": i}
                break
        if p2_witness:
            break

    connected: list[bool] = []
    for lvl in ld.levels:
        verts = {x for e in lvl for x in e}
        if not verts:
            connected.append(True)
            continue
        adj: dict[int, list[int]] = {x: [] for x in verts}
        for x, y in lvl:
            adj[x].append(y)
            adj[y].append(x)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        connected.append(len(seen) == len(verts))

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

    def to_dict(self) -> dict:
        return {
            "g1": {"n": self.g1.n, "m": self.g1.graph.m},
            "g2": {"n": self.g2.n, "m": self.g2.graph.m},
            "level_vertices_g1": {str(i): v for i, v in self.level_vertices_g1.items()},
            "level_vertices_g2": {str(i): v for i, v in self.level_vertices_g2.items()},
            "origin_g1": list(self.origin_g1),
            "origin_g2": list(self.origin_g2),
            "crossing_edges": self.crossing_edges,
            "added_g1": self.added_g1,
            "added_g2": self.added_g2,
        }


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


def levels_svg(d: ConvexDrawing, ld: LevelDecomposition, size: int = 260) -> str:
    """Render the drawing with the long edge black and each level colored."""
    level_of = {e: i for i, lvl in enumerate(ld.levels) for e in lvl}

    def style(e: Edge) -> tuple[str, float]:
        if e == ld.long_edge:
            return "#111", 2.0
        if e in level_of:
            return _LEVEL_COLORS[level_of[e] % len(_LEVEL_COLORS)], 1.4
        return "#ccc", 1.0

    return circle_svg(d, style, size)
