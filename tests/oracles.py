"""Oracles shared by the tests: brute-force searches and class membership
through the package's one rule, for claims the library itself never makes,
saturate's candidate order built whole, the crossing graph of a chord set,
report schema paths, and the grid snake order, a fixture drawing."""
from __future__ import annotations

from pathlib import Path

import okplanar
from okplanar.drawing import (
    ChordSet,
    ConvexDrawing,
    class_violation,
    crossing_report,
    drawing_chords,
    make_drawing,
    resolve_class,
)
from okplanar.generators import complete
from okplanar.graphs import induced_subgraph
from okplanar.recognition import brute_force_recognize


def in_class(d: ConvexDrawing, k: int, variant: str) -> bool:
    """Is d in the variant's class at k? ValueError for a k outside the
    variant's range."""
    return class_violation(d, crossing_report(d), k, resolve_class(variant, k)) is None


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


def chords_by_length(n: int) -> list[tuple[int, int]]:
    """Every chord (p, q), p < q, of n positions, listed and then sorted by
    circular length and position: saturate's candidate order, built whole."""
    cands = [(min(q - p, n - (q - p)), p, q) for p in range(n) for q in range(p + 1, n)]
    return [(p, q) for _, p, q in sorted(cands)]


def crossing_graph(cs: ChordSet) -> list[int]:
    """Crosser mask of every chord: the crossing graph as adjacency masks."""
    return [cs.crossers(p, q) for p, q in cs.chords]


def schema_path(command: str) -> Path:
    """The JSON schema of a command's report."""
    return Path(okplanar.__file__).parent / "schemas" / f"{command}.schema.json"


def grid_snake_order(r: int, c: int) -> list[int]:
    """Circular order putting the r x c grid on two pages.

    For r*c even this is a Hamiltonian cycle of the grid (snake through
    columns, return along row 0), so the drawing is closed as-is; for odd
    times odd it is the boustrophedon Hamiltonian path. Either way no three
    grid edges pairwise cross in the resulting convex drawing.
    """
    if r * c % 2 == 1 or r == 1 or c == 1:
        seq = []
        for i in range(r):
            row = range(c) if i % 2 == 0 else range(c - 1, -1, -1)
            seq += [i * c + j for j in row]
        return seq
    if c % 2 == 1:  # transpose so the even dimension runs horizontally
        return [_transpose_id(v, c, r) for v in grid_snake_order(c, r)]
    seq = [i * c for i in range(r)]  # down column 0
    for j in range(1, c):
        rows = range(r - 1, 0, -1) if j % 2 == 1 else range(1, r)
        seq += [i * c + j for i in rows]
    seq += [j for j in range(c - 1, 0, -1)]  # row 0 back to the start
    return seq


def _transpose_id(v: int, c: int, r: int) -> int:
    i, j = divmod(v, r)
    return j * c + i
