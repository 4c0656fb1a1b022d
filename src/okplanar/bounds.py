"""Degeneracy, greedy coloring, and the crossing-class bounds they obey.

Graphs drawable with at most k crossings per edge always contain a vertex of
low degree, so peeling minimum-degree vertices bounds their degeneracy by
floor(sqrt(4k+1)) + 1, and greedy coloring along the reverse peeling order
needs one color more. This module computes exact degeneracy with that
coloring attached and checks the class bounds over corpora of drawings,
each first checked to be in the class.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .drawing import ConvexDrawing, drawing_chords, planar_violation, resolve_class
from .graphs import Graph


@dataclass(frozen=True)
class DegeneracyResult:
    """Elimination order, its worst residual degree, and the greedy coloring."""

    degeneracy: int
    order: tuple[int, ...]
    coloring: tuple[int, ...]
    num_colors: int


class BoundViolation(Exception):
    """A corpus instance is outside the class, or beat a bound that should
    hold class-wide."""


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
    resolve_class("outer-planar", k)
    return math.isqrt(4 * k + 1) + 1


def outer_k_planar_chromatic_bound(k: int) -> int:
    """One color above the degeneracy ceiling; complete graphs attain it."""
    return outer_k_planar_degeneracy_bound(k) + 1


def verify_degeneracy_bound(
    corpus: Sequence[ConvexDrawing], k: int
) -> tuple[dict, list[DegeneracyResult]]:
    """Run the degeneracy and coloring bounds over a corpus of drawings;
    return the summary and each drawing's degeneracy result.

    Each drawing must first keep at most k crossings per edge; one that does
    not raises BoundViolation naming why. Past that check, a violation
    falsifies either the bound or this checker, and raises instead of
    reporting. Colors never exceed degeneracy + 1, and degeneracy never
    exceeds its bound, so the chromatic bound needs no check of its own.
    """
    deg_bound = outer_k_planar_degeneracy_bound(k)
    results = []
    for idx, d in enumerate(corpus):
        why = planar_violation(dict(zip(d.graph.edges, drawing_chords(d).counts)), k)
        if why is not None:
            raise BoundViolation(f"corpus[{idx}] is not outer {k}-planar: it {why}")
        res = degeneracy(d.graph)
        for u, v in d.graph.edges:
            if res.coloring[u] == res.coloring[v]:
                raise BoundViolation(f"improper coloring on corpus[{idx}] at edge ({u}, {v})")
        if res.num_colors > res.degeneracy + 1:
            raise BoundViolation(
                f"corpus[{idx}] used {res.num_colors} colors on a "
                f"{res.degeneracy}-degenerate graph"
            )
        if res.degeneracy > deg_bound:
            raise BoundViolation(f"corpus[{idx}] has degeneracy {res.degeneracy} > {deg_bound}")
        results.append(res)
    summary = {
        "k": k,
        "instances": len(corpus),
        "degeneracy_bound": deg_bound,
        "chromatic_bound": deg_bound + 1,
        "max_degeneracy": max((res.degeneracy for res in results), default=0),
        "max_colors": max((res.num_colors for res in results), default=0),
    }
    return summary, results
