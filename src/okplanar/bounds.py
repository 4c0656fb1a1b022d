"""Degeneracy, greedy coloring, and the crossing-class bounds they obey.

Graphs drawable with at most k crossings per edge always contain a vertex of
low degree, so peeling minimum-degree vertices bounds their degeneracy by
floor(sqrt(4k+1)) + 1, and greedy coloring along the reverse peeling order
needs one color more. This module computes exact degeneracy with that
coloring attached and checks the class bounds over corpora of drawings whose
membership is certified by construction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .drawing import ConvexDrawing
from .graphs import Graph


@dataclass(frozen=True)
class DegeneracyResult:
    """Elimination order, its worst residual degree, and the greedy coloring."""

    degeneracy: int
    order: tuple[int, ...]
    coloring: tuple[int, ...]
    num_colors: int


class BoundViolation(Exception):
    """A corpus instance beat a bound that should hold class-wide."""

    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance


def degeneracy(g: Graph) -> DegeneracyResult:
    """Exact degeneracy by repeated minimum-degree removal.

    Ties break to the smallest vertex id, so the elimination order is a
    function of the graph alone. A lazy heap of (live degree, vertex) finds
    each minimum in O(log n): a decrement pushes a fresh entry, and since
    degrees only fall, a vertex's freshest entry pops before its stale ones,
    which are skipped as removed. Greedy coloring along the reverse order
    uses at most degeneracy+1 colors: each vertex meets at most that many
    already colored neighbors.
    """
    n = g.n
    live = [g.degree(v) for v in range(n)]
    heap = [(d, v) for v, d in enumerate(live)]
    heapq.heapify(heap)
    removed = [False] * n
    order: list[int] = []
    worst = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v]:
            continue
        worst = max(worst, d)
        removed[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not removed[u]:
                live[u] -= 1
                heapq.heappush(heap, (live[u], u))
    color = [-1] * n
    for v in reversed(order):
        used = {color[u] for u in g.adj[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return DegeneracyResult(
        degeneracy=worst,
        order=tuple(order),
        coloring=tuple(color),
        num_colors=max(color) + 1 if n else 0,
    )


def outer_k_planar_degeneracy_bound(k: int) -> int:
    """Degeneracy ceiling for graphs drawable with <= k crossings per edge.

    floor(sqrt(4k+1)) + 1, computed with integer square root so perfect
    squares (k = 2, 6, 12, ...) land exactly.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return math.isqrt(4 * k + 1) + 1


def outer_k_planar_chromatic_bound(k: int) -> int:
    """One color above the degeneracy ceiling; complete graphs attain it."""
    return outer_k_planar_degeneracy_bound(k) + 1


def verify_degeneracy_bound(corpus: Sequence[ConvexDrawing], k: int) -> dict:
    """Run the degeneracy and coloring bounds over a corpus of drawings.

    The caller vouches that every drawing in the corpus keeps at most k
    crossings per edge (membership by construction); a violation therefore
    falsifies either the bound or this checker, and raises instead of
    reporting.
    """
    deg_bound = outer_k_planar_degeneracy_bound(k)
    col_bound = deg_bound + 1
    max_deg = 0
    max_col = 0
    for idx, d in enumerate(corpus):
        res = degeneracy(d.graph)
        for u, v in d.graph.edges:
            if res.coloring[u] == res.coloring[v]:
                raise BoundViolation(
                    f"improper coloring on corpus[{idx}] at edge ({u}, {v})", d
                )
        if res.num_colors > res.degeneracy + 1:
            raise BoundViolation(
                f"corpus[{idx}] used {res.num_colors} colors on a "
                f"{res.degeneracy}-degenerate graph",
                d,
            )
        if res.degeneracy > deg_bound:
            raise BoundViolation(
                f"corpus[{idx}] has degeneracy {res.degeneracy} > {deg_bound}", d
            )
        if res.num_colors > col_bound:
            raise BoundViolation(
                f"corpus[{idx}] needed {res.num_colors} colors > {col_bound}", d
            )
        max_deg = max(max_deg, res.degeneracy)
        max_col = max(max_col, res.num_colors)
    return {
        "k": k,
        "instances": len(corpus),
        "degeneracy_bound": deg_bound,
        "chromatic_bound": col_bound,
        "max_degeneracy": max_deg,
        "max_colors": max_col,
    }
