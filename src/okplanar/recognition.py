"""Exhaustive recognition over circular orders.

This is the ground-truth oracle the SAT back end is tested against: it
enumerates circular orders with vertex 0 pinned to position 0 and reflections
quotiented away (order[1] < order[n-1]), so (n-1)!/2 orders at most, and
returns the first witness drawing in lexicographic order. The module also
owns the variant registry that the command line, the MSO2 emitter and the
brute force all resolve variant names through.
"""
from __future__ import annotations

from .drawing import ChordSet, ConvexDrawing, make_drawing
from .graphs import Graph

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

DEFAULT_CAP = 11


def canonical_variant(name: str) -> str:
    """The canonical name behind any accepted variant name."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; choose from " + ", ".join(sorted(VARIANTS))
        ) from None


def check_k(k: int, variant: str) -> None:
    """Reject a k outside the range of a canonical variant."""
    if variant.endswith("quasi") and k < 2:
        raise ValueError(f"quasi variants need k >= 2, got {k}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def brute_force_recognize(
    g: Graph, k: int, variant: str, cap: int = DEFAULT_CAP
) -> ConvexDrawing | None:
    """First circular order (lexicographic, vertex 0 first, reflections
    quotiented) whose drawing lies in the class, or None.

    Planar variants prune on prefix crossing counts: once two placed chords
    cross more than k times the branch dies. Crossings between placed chords
    never un-happen when more vertices are placed, so the prune is sound.
    Quasi variants check complete orders only; mutual-crossing cliques are
    not monotone along this enumeration. Closed variants additionally walk
    only boundary-adjacent extensions.
    """
    variant = canonical_variant(variant)
    check_k(k, variant)
    closed = variant.startswith("closed")
    quasi = variant.endswith("quasi")
    n = g.n
    if n > cap:
        raise ValueError(f"n={n} exceeds brute-force cap {cap}")
    if closed and n < 3:
        raise ValueError("closed variants need n >= 3")
    if n <= 2:
        return make_drawing(g, range(n))
    if n == 3:
        if closed and g.m != 3:
            return None
        return make_drawing(g, range(3))

    order = [0] * n
    used = [False] * n
    used[0] = True
    pos = {0: 0}
    chords: list[tuple[int, int]] = []  # placed edges as position pairs
    counts: list[int] = []
    limit = k if not quasi else None

    def place(i: int) -> ConvexDrawing | None:
        if i == n:
            if closed and not g.has_edge(order[n - 1], order[0]):
                return None
            if quasi and ChordSet.of(n, chords).mutual_size() > k - 1:
                return None
            return make_drawing(g, order)
        for v in range(1, n):
            if used[v]:
                continue
            if i == n - 1 and order[1] > v:
                continue  # reflection quotient: order[1] < order[n-1]
            if closed and not g.has_edge(order[i - 1], v):
                continue
            new_chords = []
            for u in g.adj[v]:
                p = pos.get(u)
                if p is not None:
                    new_chords.append(p)
            new_chords.sort()
            ok = True
            added = 0
            bumped: list[int] = []
            pre_m = len(chords)  # chords at position i share vertex v, never cross
            for p in new_chords:
                cnt = 0
                for ci in range(pre_m):
                    a, b = chords[ci]
                    if a < p < b:
                        counts[ci] += 1
                        bumped.append(ci)
                        cnt += 1
                        if limit is not None and counts[ci] > limit:
                            ok = False
                if limit is not None and cnt > limit:
                    ok = False
                chords.append((p, i))
                counts.append(cnt)
                added += 1
                if not ok:
                    break
            if ok:
                order[i] = v
                used[v] = True
                pos[v] = i
                found = place(i + 1)
                if found is not None:
                    return found
                used[v] = False
                del pos[v]
            for ci in bumped:
                counts[ci] -= 1
            del chords[len(chords) - added :]
            del counts[len(counts) - added :]
        return None

    return place(1)


def largest_clique_in_class(k: int, cap: int = DEFAULT_CAP) -> int:
    """Largest n such that K_n is outer k-planar, by direct search."""
    if not (0 <= k <= 12):
        raise ValueError("supported range is 0 <= k <= 12")
    from .generators import complete

    n = 3
    while True:
        if brute_force_recognize(complete(n + 1), k, "outer-planar", cap=cap) is None:
            return n
        n += 1
