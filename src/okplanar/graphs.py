"""Small immutable graph type shared by every module.

Vertices are 0..n-1. Edges are stored as a sorted tuple of (u, v) pairs with
u < v, no multi-edges, no loops. The class is deliberately minimal: anything
drawing-specific lives in drawing.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[frozenset[int], ...] = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Rejects loops and out-of-range endpoints; duplicate pairs (in either
    orientation) collapse to one edge.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        seen.add((u, v))
    norm = sorted(seen)
    adj_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in norm:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    return Graph(n=n, edges=tuple(norm), adj=tuple(frozenset(s) for s in adj_sets))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by `vertices`, relabeled to 0..len-1.

    Returns (subgraph, old_ids) where old_ids[new] == original vertex id.
    Input order of `vertices` fixes the relabeling, duplicates rejected.
    """
    old_ids = [int(v) for v in vertices]
    if len(set(old_ids)) != len(old_ids):
        raise ValueError("duplicate vertices in induced_subgraph")
    for v in old_ids:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    new_id = {old: new for new, old in enumerate(old_ids)}
    sub_edges = [
        (new_id[u], new_id[v])
        for u, v in g.edges
        if u in new_id and v in new_id
    ]
    return build_graph(len(old_ids), sub_edges), old_ids


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n

