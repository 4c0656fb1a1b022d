"""Oracles shared by the tests: brute-force searches and class membership
through the package's one rule, for claims the library itself never makes."""
from __future__ import annotations

from okplanar.drawing import (
    ConvexDrawing,
    class_violation,
    crossing_report,
    drawing_chords,
    make_drawing,
)
from okplanar.generators import complete
from okplanar.graphs import induced_subgraph
from okplanar.recognition import brute_force_recognize, check_k


def in_class(d: ConvexDrawing, k: int, variant: str) -> bool:
    """Is d in the canonical variant's class at k? ValueError for a k
    outside the variant's range."""
    check_k(k, variant)
    return class_violation(d, crossing_report(d), k, variant) is None


def largest_clique_in_class(k: int) -> int:
    """Largest n such that K_n is outer k-planar, by direct search."""
    if not (0 <= k <= 12):
        raise ValueError("supported range is 0 <= k <= 12")
    n = 3
    while True:
        if brute_force_recognize(complete(n + 1), k, "outer-planar") is None:
            return n
        n += 1


def induced_drawing(d: ConvexDrawing, vertices) -> tuple[ConvexDrawing, list[int]]:
    """The sub-drawing induced by vertices, relabeled 0.. along d's circular
    order; returns (drawing, old_ids) with old_ids[new] the vertex in d."""
    sub, old_ids = induced_subgraph(d.graph, sorted(set(vertices), key=d.pos.__getitem__))
    return make_drawing(sub, range(sub.n)), old_ids


def scan_is_maximal(d: ConvexDrawing, k: int) -> bool:
    """is_maximal by definition: the drawing has no k pairwise crossing
    edges, and every absent chord would complete k of them (one blocked
    query per absent chord on the chord kernel)."""
    cs = drawing_chords(d)
    if cs.mutual_size() > k - 1:
        return False
    present = set(cs.chords)
    for p in range(d.n):
        for q in range(p + 1, d.n):
            if (p, q) not in present and not cs.mutual_through(p, q, -1, k - 1):
                return False
    return True
