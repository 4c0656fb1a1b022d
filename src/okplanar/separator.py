"""Constructive balanced separators for convex drawings.

For a drawing whose edges are each crossed at most k times, builds a
separation (A, B) with |A ∩ B| <= 2k+3 and both exclusive sides at most
ceil(2n/3), following a fixed case analysis over the drawing's circular
order:

  trivial-small         n <= 2k+3, nothing to do (A = B = V)
  cutting-edge          some edge splits the boundary near-evenly by itself
  mutually-crossing     every edge crossing the halving line ab crosses all
                        the others (or none exist)
  single-crossing-edge  the boundary scans from a and b find one and the
                        same crossing edge
  case1 / case1'        a scanned edge hugs the a-side (resp. b-side) arc,
                        separate along a line from b (resp. a) to one of its
                        endpoints
  case2-shared          refinement to a close parallel pair that shares a
                        vertex; both edges join the separator
  case2-distinct        close pair with four distinct endpoints; separate
                        along one of three lines depending on the interval
                        sizes between the pair

Every case builds its separation with one cover rule. It cuts along one or
two chords: the positions strictly inside a chosen arc of each go to A
only, every other vertex to B only, and the separator S joins both sides.
S holds the chords' ends and, for each edge crossing a chord (p, q), that
edge's end on the clockwise arc p -> q. The case picks which way each
chord is read, so every crossing edge keeps one end in S and no edge joins
the two exclusive sides.

All arithmetic is over boundary positions; "clockwise" is the direction of
increasing position. Every returned separation is re-validated against the
three invariants and a violation raises instead of returning quietly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .drawing import ChordSet, ConvexDrawing, drawing_chords, make_drawing
from .graphs import induced_subgraph


@dataclass(frozen=True)
class Separation:
    a_side: frozenset[int]
    b_side: frozenset[int]
    separator: frozenset[int]
    case_tag: str
    witness: dict


class SeparatorError(Exception):
    """An internal invariant failed; carries the case for debugging."""

    def __init__(self, msg: str, case_tag: str, witness: dict):
        super().__init__(f"[{case_tag}] {msg}")
        self.case_tag = case_tag
        self.witness = witness


def _arc(n: int, i: int, j: int) -> list[int]:
    """Positions strictly between i and j going clockwise."""
    return [*range(i + 1, j)] if i < j else [*range(i + 1, n), *range(j)]


def balanced_separator(d: ConvexDrawing) -> Separation:
    """Separation with |separator| <= 2k+3 and sides <= ceil(2n/3).

    k is the drawing's own maximum per-edge crossing count, never supplied
    by the caller.
    """
    cs = drawing_chords(d)
    k = max(cs.counts, default=0)
    sep = _separate(d, cs, k)
    err = check_separation(d, k, sep)
    if err:
        raise SeparatorError(err, sep.case_tag, sep.witness)
    return sep


def _separate(d: ConvexDrawing, cs: ChordSet, k: int) -> Separation:
    """The case analysis of the module docstring, unvalidated."""
    n = d.n
    everyone = frozenset(range(n))
    order = d.order
    at = lambda p: order[p]
    chords = cs.chords  # all edges as position chords (lo, hi)

    def cover(p: int, q: int) -> set[int]:
        """The end of each chord crossing (p, q) that lies on the arc p -> q."""
        span = (q - p) % n
        return {at(x if (x - p) % n < span else y) for x, y in cs.crossing_chords(p, q)}

    def split(excl, s: frozenset[int], tag: str, wit: dict) -> Separation:
        """A = excl ∪ s and B = (V - excl) ∪ s, excl given as positions."""
        ex = frozenset(at(t) for t in excl)
        return Separation(ex | s, (everyone - ex) | s, s, tag, wit)

    def along(p1: int, p2: int, tag: str, wit: dict, inside: bool = True) -> Separation:
        """Separate along chord (p1, p2); A-exclusive is the arc p1 -> p2.
        Crossing edges are covered at their end on that arc (inside) or on
        the other arc."""
        s = frozenset({at(p1), at(p2)}) | cover(*((p1, p2) if inside else (p2, p1)))
        wit = dict(wit, line=[at(p1), at(p2)], crossers=cs.crossers(p1, p2).bit_count())
        return split(_arc(n, p1, p2), s, tag, wit)

    if n <= 2 * k + 3:
        return split((), everyone, "trivial-small", {"n": n, "k": k})

    # 1. single cutting edge. The window top is capped at n-3 so the far
    # side keeps at least one vertex and recursion always makes progress.
    lo_w = -(-n // 3)
    hi_w = min(2 * n // 3, n - 3)
    for (u, v), (p, q) in zip(d.graph.edges, chords):
        c_in = q - p - 1
        c_out = n - 2 - c_in
        if lo_w <= c_in <= hi_w or lo_w <= c_out <= hi_w:
            return split(_arc(n, p, q), frozenset({u, v}) | cover(p, q), "cutting-edge",
                         {"edge": [u, v], "inside": c_in, "outside": c_out})

    # 2. halving line ab: a at position 0, b at position floor(n/2). Along
    # ab itself, A-exclusive is the arc a -> b and each crosser is covered
    # at its end on the b..a side.
    h = n // 2
    a_v, b_v = at(0), at(h)
    along_ab = lambda tag, wit: split(_arc(n, 0, h), frozenset({a_v, b_v}) | cover(h, 0),
                                      tag, wit)
    line = cs.crossers(0, h)
    # (lpos, rpos): endpoint on b..a side (pos > h), endpoint on a..b side
    lr = [(max(x, y), min(x, y)) for x, y in cs.crossing_chords(0, h)]

    # every crosser of ab crosses all the others
    if all((line & ~cs.crossers(p, q)) == 1 << i
           for i, (p, q) in enumerate(chords) if line >> i & 1):
        return along_ab("mutually-crossing", {"a": a_v, "b": b_v, "crossers": len(lr)})

    # 3. boundary scans. b_l: first position clockwise from b carrying a
    # crossing edge; among its edges take the one with the smallest b-side
    # cut. a_r: first position clockwise from a, smallest a-side cut.
    p_bl = min(x for x, y in lr)
    f_bot = (p_bl, max(y for x, y in lr if x == p_bl))  # max rpos = min bottom cut
    p_ar = min(y for x, y in lr)
    f_top = (max(x for x, y in lr if y == p_ar), p_ar)  # max lpos = min top cut
    scanned = lambda fb, ft: {"a": a_v, "b": b_v, "b_l": at(fb[0]), "b_l2": at(fb[1]),
                              "a_r": at(ft[1]), "a_r2": at(ft[0])}
    base_wit = scanned(f_bot, f_top)

    if f_bot == f_top:
        return along_ab("single-crossing-edge", dict(base_wit, crossers=len(lr)))

    bottom = lambda e: e[0] - e[1] - 1          # vertices on the b side
    top = lambda e: n - 2 - (e[0] - e[1] - 1)   # vertices on the a side

    # case 1 (resp. 1'): f_bot (f_top) leaves a short far side; separate
    # along a line from the pivot b (a) to one end of that edge. The window
    # rule picks the line. When that line leaves an exclusive side above
    # ceil(2n/3), the other line is taken: an interval just below the
    # window can tie with one just above it, and only the one above balances.
    for tag, pivot, (after, before), hugs in (
            ("case1", h, f_bot, 3 * top(f_bot) <= n),
            ("case1'", 0, f_top[::-1], 3 * bottom(f_top) <= n)):
        if hugs:
            sizes = [(after - pivot) % n + 1, (pivot - before) % n + 1]
            wit = dict(base_wit, intervals=sizes)
            lines = [along(pivot, after, tag, wit), along(before, pivot, tag, wit, inside=False)]
            if _window_choice(n, *sizes):
                lines.reverse()
            return next((s for s in lines if _balanced(n, s)), lines[0])

    # case 2: f_bot hugs b, f_top hugs a; refine to a close pair
    if not (3 * bottom(f_bot) <= n and 3 * top(f_top) <= n):
        raise SeparatorError("case-2 hypothesis failed", "case2", base_wit)
    for _ in range(len(chords) + 1):
        between = [
            (x, y) for x, y in lr
            if (x, y) not in (f_bot, f_top)
            and f_bot[0] <= x <= f_top[0] and f_top[1] <= y <= f_bot[1]
        ]
        if not between:
            break
        e = min(between)
        if 3 * bottom(e) <= n:
            f_bot = e
        elif 3 * top(e) <= n:
            f_top = e
        else:
            raise SeparatorError("between edge cuts both sides wide",
                                 "case2", dict(base_wit, e=list(e)))
    else:
        raise SeparatorError("close-pair refinement did not terminate",
                             "case2", base_wit)

    p_bl, p_blp = f_bot
    p_arp, p_ar = f_top
    wit = scanned(f_bot, f_top)

    if p_arp == p_bl or p_ar == p_blp:
        alpha = _arc(n, p_arp, p_ar)
        beta = _arc(n, p_blp, p_bl)
        s = (frozenset({at(p_bl), at(p_blp), at(p_ar), at(p_arp)})
             | cover(p_blp, p_bl) | cover(p_ar, p_arp))
        return split(alpha + beta, s, "case2-shared",
                     dict(wit, alpha=len(alpha), beta=len(beta)))

    alpha = len(_arc(n, p_arp, p_ar))
    beta = p_bl - p_blp - 1
    gamma = p_blp - p_ar - 1
    delta = p_arp - p_bl - 1
    if alpha + beta + gamma + delta + 4 != n:
        raise SeparatorError("interval sizes do not tile the circle",
                             "case2-distinct", wit)
    wit.update(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    if 3 * delta >= n:
        return along(p_bl, p_arp, "case2-distinct", wit)
    if 3 * gamma >= n:
        return along(p_ar, p_blp, "case2-distinct", wit)
    return along(p_ar, p_bl, "case2-distinct", wit)


def _window_choice(n: int, s0: int, s1: int) -> int:
    """Prefer the interval whose size sits in [ceil(n/3), floor(n/2)];
    fall back to the nearer one, and to the first on a tie."""
    lo, hi = -(-n // 3), n // 2
    dist = lambda s: max(lo - s, s - hi, 0)
    return 0 if dist(s0) <= dist(s1) else 1


def _balanced(n: int, sep: Separation) -> bool:
    """Both exclusive sides are at most ceil(2n/3)."""
    bound = -(-2 * n // 3)
    return max(len(sep.a_side - sep.b_side), len(sep.b_side - sep.a_side)) <= bound


def check_separation(d: ConvexDrawing, k: int, sep: Separation) -> str | None:
    """None if the separation satisfies all invariants, else a description."""
    n = d.n
    everyone = frozenset(range(n))
    if sep.a_side | sep.b_side != everyone:
        return "A and B do not cover all vertices"
    if sep.a_side & sep.b_side != sep.separator:
        return "separator is not the intersection of the sides"
    if len(sep.separator) > 2 * k + 3:
        return f"separator has {len(sep.separator)} > 2k+3 = {2 * k + 3} vertices"
    bound = -(-2 * n // 3)
    a_excl = sep.a_side - sep.b_side
    b_excl = sep.b_side - sep.a_side
    if len(a_excl) > bound or len(b_excl) > bound:
        return (f"exclusive sides {len(a_excl)}/{len(b_excl)} "
                f"exceed ceil(2n/3) = {bound}")
    for u, v in d.graph.edges:
        if (u in a_excl and v in b_excl) or (u in b_excl and v in a_excl):
            return f"edge ({u}, {v}) joins the two exclusive sides"
    return None


# witness fields naming vertices, translated by DecompositionNode.to_dict
_VERTEX_KEYS = {"a", "b", "b_l", "b_l2", "a_r", "a_r2"}
_VERTEX_LIST_KEYS = {"edge", "line"}


@dataclass
class DecompositionNode:
    n: int
    vertices: list[int]
    separation: Separation | None
    leaf_reason: str | None
    children: list["DecompositionNode"]

    def depth(self) -> int:
        """Longest root-to-leaf path in edges (a lone leaf has depth 0)."""
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def to_dict(self) -> dict:
        """JSON-ready tree; vertex ids are translated back to the root's."""
        out: dict = {"n": self.n, "vertices": self.vertices}
        if self.leaf_reason:
            out["leaf"] = self.leaf_reason
        if self.separation is not None:
            s = self.separation
            tr = self.vertices
            wit = {}
            for key, val in s.witness.items():
                if key in _VERTEX_KEYS:
                    wit[key] = tr[val]
                elif key in _VERTEX_LIST_KEYS:
                    wit[key] = [tr[v] for v in val]
                else:
                    wit[key] = val
            out["case"] = s.case_tag
            out["separator"] = sorted(tr[i] for i in s.separator)
            out["witness"] = wit
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


def sub_drawing(d: ConvexDrawing, vertices: frozenset[int]) -> tuple[ConvexDrawing, list[int]]:
    """Induced sub-drawing: circular order restricted to the kept vertices."""
    kept = sorted(vertices, key=lambda v: d.pos[v])
    sub, old_ids = induced_subgraph(d.graph, kept)
    return make_drawing(sub, range(sub.n)), old_ids


def recursive_decompose(d: ConvexDrawing, leaf_size: int) -> DecompositionNode:
    """Separator tree over induced sub-drawings; leaves at <= leaf_size.

    A node also becomes a leaf when its separation cannot shrink it: the
    trivial-small case (n <= 2k+3), or a degenerate separation whose larger
    side is the whole vertex set (possible only at very small n, when the
    cover absorbs one side of the line).
    """
    if leaf_size < 1:
        raise ValueError("need leaf_size >= 1")

    def node(d: ConvexDrawing, ids: list[int]) -> DecompositionNode:
        if d.n <= leaf_size:
            return DecompositionNode(d.n, ids, None, "size", [])
        sep = balanced_separator(d)
        if sep.case_tag == "trivial-small":
            return DecompositionNode(d.n, ids, sep, "trivial-small", [])
        if max(len(sep.a_side), len(sep.b_side)) == d.n:
            return DecompositionNode(d.n, ids, sep, "no-progress", [])
        children = []
        for side in (sep.a_side, sep.b_side):
            if len(side) <= leaf_size:  # a leaf needs its ids, not its sub-drawing
                leaf = [ids[v] for v in sorted(side, key=d.pos.__getitem__)]
                children.append(DecompositionNode(len(leaf), leaf, None, "size", []))
                continue
            child, old = sub_drawing(d, side)
            children.append(node(child, [ids[i] for i in old]))
        return DecompositionNode(d.n, ids, sep, None, children)

    return node(d, list(range(d.n)))
