"""Exhaustive recognition over circular orders.

This is the ground-truth oracle the SAT back end is tested against: it
enumerates circular orders with vertex 0 pinned to position 0 and reflections
quotiented away (order[1] < order[n-1]), so (n-1)!/2 orders at most, and
returns the first witness drawing in lexicographic order. The module also
holds the linear-time refutations that answer NO, with a checkable
certificate, before any search. Variant names and k ranges resolve through
drawing.resolve_class.
"""
from __future__ import annotations

from .bounds import degeneracy, outer_k_planar_degeneracy_bound
from .drawing import ChordSet, ConvexDrawing, make_drawing, resolve_class
from .graphs import Graph, induced_subgraph, is_connected
from .maximal import maximal_edge_count

DEFAULT_CAP = 11


def refute(g: Graph, k: int, variant: str) -> dict | None:
    """A certificate that no drawing of g is in the class, or None.

    Three necessary conditions, each a theorem about the class:
    - closed variants (n >= 3): the boundary is a Hamiltonian cycle, so g is
      2-connected: {"kind": "disconnected"}, or {"kind": "cut-vertex",
      "vertex": v} with the smallest cut vertex, from one lowpoint DFS;
    - planar variants: outer k-planar graphs are
      (floor(sqrt(4k+1)) + 1)-degenerate, so no subgraph has a larger minimum
      degree: {"kind": "degeneracy", "vertices", "min_degree", "bound"};
    - quasi variants: an outer k-quasi-planar graph on n vertices has at
      most maximal_edge_count(n, k) edges (Capoyleas and Pach), and so has
      each induced subgraph: {"kind": "edge-count", "vertices", "edges",
      "bound"}.
    The vertex sets are suffixes of one minimum-degree peel: for planar
    variants the suffix from the first vertex peeled above the bound, for
    quasi ones the suffix with the largest excess of edges over the bound.
    Vertex lists are ascending, so reports built from them are stable.
    """
    variant = resolve_class(variant, k)
    n = g.n
    if variant.startswith("closed") and n >= 3:
        cert = _connectivity_refutation(g)
        if cert is not None:
            return cert
    order = degeneracy(g).order
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # each vertex's degree among the vertices peeled after it
    left = [sum(pos[u] > i for u in g.adj[v]) for i, v in enumerate(order)]
    if not variant.endswith("quasi"):
        bound = outer_k_planar_degeneracy_bound(k)
        for i, d in enumerate(left):
            if d > bound:
                return {"kind": "degeneracy", "vertices": sorted(order[i:]),
                        "min_degree": d, "bound": bound}
        return None
    best = None  # (excess, suffix start, edges)
    edges = g.m
    for i in range(n):
        excess = edges - maximal_edge_count(n - i, k)
        if excess > 0 and (best is None or excess > best[0]):
            best = (excess, i, edges)
        edges -= left[i]
    if best is None:
        return None
    _, i, edges = best
    return {"kind": "edge-count", "vertices": sorted(order[i:]), "edges": edges,
            "bound": maximal_edge_count(n - i, k)}


def _connectivity_refutation(g: Graph) -> dict | None:
    """The disconnected or smallest-cut-vertex certificate, None if g is
    2-connected.

    Iterative DFS from vertex 0 with lowpoints: a non-root u cuts off its
    child c when no back edge from c's subtree climbs above u
    (low[c] >= disc[u]); the root is a cut vertex when it has two children.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    disc[0] = 0
    seen = 1
    cuts = set()
    root_children = 0
    stack = [(0, -1, iter(g.adj[0]))]
    while stack:
        u, parent, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                stack.append((w, u, iter(g.adj[w])))
                break
            if w != parent:
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if parent == 0:
                root_children += 1
            elif parent > 0:
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    cuts.add(parent)
    if seen < g.n:
        return {"kind": "disconnected"}
    if root_children > 1:
        cuts.add(0)
    return {"kind": "cut-vertex", "vertex": min(cuts)} if cuts else None


def check_refutation(g: Graph, k: int, variant: str, cert: dict) -> None:
    """Raise ValueError unless cert proves that g has no drawing in the class.

    The check recounts from the graph alone, without the peel or the DFS
    that built the certificate: a connectivity search with the cut vertex
    removed, or the degrees and edges of the induced subgraph, compared
    with the certificate's figures and with the class bound for k.
    """
    variant = resolve_class(variant, k)
    kind = cert.get("kind")
    if kind in ("disconnected", "cut-vertex"):
        if not variant.startswith("closed") or g.n < 3:
            raise ValueError(f"a {kind} certificate refutes closed variants on n >= 3 only")
        cut = cert.get("vertex") if kind == "cut-vertex" else None
        if kind == "cut-vertex" and not (type(cut) is int and 0 <= cut < g.n):
            raise ValueError(f"cut vertex {cut!r} is not a vertex of the graph")
        if is_connected(induced_subgraph(g, [v for v in range(g.n) if v != cut])[0]):
            raise ValueError(f"{kind} certificate, but the graph stays connected")
        return
    quasi = variant.endswith("quasi")
    want = "edge-count" if quasi else "degeneracy"
    if kind != want:
        raise ValueError(f"{variant} takes a {want} certificate, not {kind!r}")
    vertices = cert.get("vertices")
    if (not isinstance(vertices, list) or not vertices
            or any(type(v) is not int or not 0 <= v < g.n for v in vertices)
            or any(a >= b for a, b in zip(vertices, vertices[1:]))):
        raise ValueError("certificate vertices must be ascending vertex ids")
    inside = set(vertices)
    degrees = [sum(u in inside for u in g.adj[v]) for v in vertices]
    if quasi:
        figure, value, bound = "edges", sum(degrees) // 2, maximal_edge_count(len(vertices), k)
    else:
        figure, value, bound = "min_degree", min(degrees), outer_k_planar_degeneracy_bound(k)
    counted = {figure: value, "bound": bound}
    claimed = {key: cert.get(key) for key in counted}
    if claimed != counted:
        raise ValueError(f"certificate claims {claimed}, the induced subgraph has {counted}")
    if value <= bound:
        raise ValueError(f"{figure} {value} does not exceed the bound {bound}")


def brute_force_recognize(g: Graph, k: int, variant: str) -> ConvexDrawing | None:
    """First circular order (lexicographic, vertex 0 first, reflections
    quotiented) whose drawing lies in the class, or None.

    Planar variants prune on prefix crossing counts: once two placed chords
    cross more than k times the branch dies. Crossings between placed chords
    never un-happen when more vertices are placed, so the prune is sound.
    Quasi variants check complete orders only; mutual-crossing cliques are
    not monotone along this enumeration. Closed variants additionally walk
    only boundary-adjacent extensions.
    """
    variant = resolve_class(variant, k)
    closed = variant.startswith("closed")
    quasi = variant.endswith("quasi")
    n = g.n
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds brute-force cap {DEFAULT_CAP}")
    if closed and n < 3:
        raise ValueError("closed variants need n >= 3")
    if n <= 2:
        return make_drawing(g, range(n))

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
