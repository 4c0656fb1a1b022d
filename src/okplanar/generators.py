"""Named test graphs and seeded random drawing corpora.

Randomness comes from an explicit splitmix64 stream so a (n, k, seed) triple
names the same drawing on any platform or language, independent of Python's
hash randomization or stdlib RNG versioning.
"""
from __future__ import annotations

from array import array
from typing import MutableSequence

from .drawing import ChordSet, ConvexDrawing, _bits, make_drawing
from .graphs import Graph, build_graph

_MASK64 = (1 << 64) - 1

# The most edges, or random_outer_k_planar candidate chords, that `generate`
# builds. At about 500 bytes per edge from build to text, 1 GB at most.
MAX_CHORDS = 2_000_000


class SplitMix64:
    """splitmix64 (Steele et al.): 64-bit state, one add + two xor-shifts.

    randrange uses rejection sampling, so draws are exactly uniform.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % bound

    def shuffle(self, items: MutableSequence) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    """Parts 0..p-1 and p..p+q-1."""
    if p < 0 or q < 0:
        raise ValueError(f"part sizes must be nonnegative, got {p} and {q}")
    return build_graph(p + q, [(u, p + v) for u in range(p) for v in range(q)])


def grid(r: int, c: int) -> Graph:
    """r x c grid, vertices row-major: (i, j) -> i*c + j."""
    if r < 0 or c < 0:
        raise ValueError(f"grid sides must be nonnegative, got {r} x {c}")
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return build_graph(r * c, edges)


def planar_3tree_levels(L: int) -> Graph:
    """Stacked planar 3-tree with L full levels.

    Level 1 is K_4 (outer triangle 0,1,2 plus apex 3). Each further level
    drops one new vertex into every internal face of the previous level and
    connects it to the face's three corners. Vertex counts: 4, 7, 16, 43, ...
    """
    if L < 1:
        raise ValueError("need L >= 1")
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    faces = [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
    n = 4
    for _ in range(L - 1):
        next_faces = []
        for a, b, c in faces:
            w = n
            n += 1
            edges += [(a, w), (b, w), (c, w)]
            next_faces += [(a, b, w), (a, c, w), (b, c, w)]
        faces = next_faces
    return build_graph(n, edges)


def random_outer_k_planar(n: int, k: int, seed: int) -> ConvexDrawing:
    """Seeded maximal outer k-planar drawing.

    Shuffles the circular order and the chord list, then adds each chord
    whenever doing so keeps every per-edge crossing count at most k. Greedy
    over all chords, so the result is saturated: every absent chord would
    push some edge over k. The chord list holds each chord (u, v), u < v,
    as the 8-byte code u * n + v, listed by u and then v before the shuffle.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    rng = SplitMix64((seed << 16) ^ (n << 8) ^ k)
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    chords = array("q")
    for u in range(n):
        chords.extend(range(u * n + u + 1, u * n + n))
    rng.shuffle(chords)
    cs = ChordSet(n)
    at_cap = 0  # mask of edges already crossed k times
    kept = []
    for code in chords:
        u, v = divmod(code, n)
        p, q = pos[u], pos[v]
        cm = cs.crossers(p, q)
        if cm.bit_count() > k or (cm & at_cap):
            continue
        idx, _ = cs.add(p, q)
        kept.append((u, v))
        if cs.counts[idx] == k:
            at_cap |= 1 << idx
        for j in _bits(cm):
            if cs.counts[j] == k:
                at_cap |= 1 << j
    return make_drawing(build_graph(n, kept), order)

