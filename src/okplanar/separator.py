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

All arithmetic is over boundary positions; "clockwise" is the direction of
increasing position. Every returned separation is re-validated against the
three invariants and a violation raises instead of returning quietly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .drawing import ConvexDrawing, drawing_chords, make_drawing
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
    if i < j:
        return list(range(i + 1, j))
    return list(range(i + 1, n)) + list(range(0, j))


def _cut_sizes(n: int, x: int, y: int) -> tuple[int, int]:
    """(inside, outside) vertex counts of chord {x, y}, x < y positions."""
    inside = y - x - 1
    return inside, n - 2 - inside


def balanced_separator(d: ConvexDrawing) -> Separation:
    """Separation with |separator| <= 2k+3 and sides <= ceil(2n/3).

    k is the drawing's own maximum per-edge crossing count, never supplied
    by the caller.
    """
    n = d.n
    cs = drawing_chords(d)
    k = max(cs.counts, default=0)
    everyone = frozenset(range(n))
    if n <= 2 * k + 3:
        sep = Separation(everyone, everyone, everyone, "trivial-small",
                         {"n": n, "k": k})
        return _validated(d, k, sep)

    order = d.order
    at = lambda p: order[p]
    chords = cs.chords  # all edges as position chords (lo, hi)

    # 1. single cutting edge. The window top is capped at n-3 so the far
    # side keeps at least one vertex and recursion always makes progress.
    lo_w = -(-n // 3)
    hi_w = min(2 * n // 3, n - 3)
    for (u, v), (p, q) in zip(d.graph.edges, chords):
        c_in, c_out = _cut_sizes(n, p, q)
        if lo_w <= c_in <= hi_w or lo_w <= c_out <= hi_w:
            crossers = cs.crossing_chords(p, q)
            cover = {at(x) if p < x < q else at(y) for x, y in crossers}
            s = frozenset({u, v} | cover)
            a_set = frozenset(at(t) for t in _arc(n, p, q)) | s
            b_set = (everyone - a_set) | s
            sep = Separation(a_set, b_set, s, "cutting-edge",
                             {"edge": [u, v], "inside": c_in, "outside": c_out})
            return _validated(d, k, sep)

    # 2. halving line ab: a at position 0, b at position floor(n/2)
    h = n // 2
    a_v, b_v = at(0), at(h)
    line = cs.crossers(0, h)
    crossers = cs.crossing_chords(0, h)
    # (lpos, rpos): endpoint on b..a side (pos > h), endpoint on a..b side
    lr = [(max(x, y), min(x, y)) for x, y in crossers]

    def line_separation(v1: int, v2: int, p1: int, p2: int, tag: str, wit: dict,
                        cover_inside_first_arc: bool) -> Separation:
        """Separate along chord (p1, p2); A-exclusive is arc p1->p2."""
        cr = cs.crossing_chords(p1, p2)
        arc1 = set(_arc(n, p1, p2))
        cover = set()
        for x, y in cr:
            inner = x if x in arc1 else y
            outer = y if inner == x else x
            cover.add(at(inner) if cover_inside_first_arc else at(outer))
        s = frozenset({v1, v2} | cover)
        a_set = frozenset(at(t) for t in arc1) | s
        b_set = (everyone - frozenset(at(t) for t in arc1)) | s
        wit = dict(wit, line=[v1, v2], crossers=len(cr))
        return Separation(a_set, b_set, s, tag, wit)

    def along_ab(tag: str, wit: dict) -> Separation:
        """Separate along ab itself; A-exclusive is the arc a->b."""
        # covers: the endpoint on the b..a side of each crossing edge
        s = frozenset({a_v, b_v} | {at(x) for x, y in lr})
        right = frozenset(at(t) for t in range(1, h))
        sep = Separation(right | s, (everyone - right) | s, s, tag, wit)
        return _validated(d, k, sep)

    # every crosser of ab crosses all the others
    if all((line & ~cs.crossers(p, q)) == 1 << i
           for i, (p, q) in enumerate(chords) if line >> i & 1):
        return along_ab("mutually-crossing", {"a": a_v, "b": b_v, "crossers": len(lr)})

    # 3. boundary scans. b_l: first position clockwise from b carrying a
    # crossing edge; among its edges take the one with the smallest b-side
    # cut. a_r: first position clockwise from a, smallest a-side cut.
    p_bl = min(x for x, y in lr)
    f_bot = max((y, x) for x, y in lr if x == p_bl)  # max rpos = min bottom cut
    f_bot = (f_bot[1], f_bot[0])
    p_ar = min(y for x, y in lr)
    f_top = max((x, y) for x, y in lr if y == p_ar)  # max lpos = min top cut

    base_wit = {
        "a": a_v, "b": b_v,
        "b_l": at(f_bot[0]), "b_l2": at(f_bot[1]),
        "a_r": at(f_top[1]), "a_r2": at(f_top[0]),
    }

    if f_bot == f_top:
        return along_ab("single-crossing-edge", dict(base_wit, crossers=len(lr)))

    bottom = lambda e: e[0] - e[1] - 1          # vertices on the b side
    top = lambda e: n - 2 - (e[0] - e[1] - 1)   # vertices on the a side

    if 3 * top(f_bot) <= n:
        return _validated(d, k, _case1(n, h, f_bot, at, line_separation, base_wit))
    if 3 * bottom(f_top) <= n:
        return _validated(d, k, _case1_prime(n, f_top, at, line_separation, base_wit))

    # case 2: f_bot hugs b, f_top hugs a; refine to a close pair
    if not (3 * bottom(f_bot) <= n and 3 * top(f_top) <= n):
        raise SeparatorError("case-2 hypothesis failed", "case2", base_wit)
    guard = len(chords) + 1
    while guard:
        guard -= 1
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
        else:
            if not 3 * top(e) <= n:
                raise SeparatorError("between edge cuts both sides wide",
                                     "case2", dict(base_wit, e=list(e)))
            f_top = e
    else:
        raise SeparatorError("close-pair refinement did not terminate",
                             "case2", base_wit)

    p_bl, p_blp = f_bot
    p_arp, p_ar = f_top
    wit = {
        "a": a_v, "b": b_v,
        "b_l": at(p_bl), "b_l2": at(p_blp),
        "a_r": at(p_ar), "a_r2": at(p_arp),
    }

    shared = p_arp == p_bl or p_ar == p_blp
    if shared:
        cover = set()
        for f in (f_bot, f_top):
            lo, hi = min(f), max(f)
            for x, y in cs.crossing_chords(lo, hi):
                cover.add(at(x) if lo < x < hi else at(y))
        s = frozenset({at(p_bl), at(p_blp), at(p_ar), at(p_arp)} | cover)
        alpha = _arc(n, p_arp, p_ar)
        beta = _arc(n, p_blp, p_bl)
        a_set = frozenset(at(t) for t in alpha + beta) | s
        b_set = (everyone - frozenset(at(t) for t in alpha + beta)) | s
        sep = Separation(a_set, b_set, s, "case2-shared",
                         dict(wit, alpha=len(alpha), beta=len(beta)))
        return _validated(d, k, sep)

    alpha = len(_arc(n, p_arp, p_ar))
    beta = p_bl - p_blp - 1
    gamma = p_blp - p_ar - 1
    delta = p_arp - p_bl - 1
    if alpha + beta + gamma + delta + 4 != n:
        raise SeparatorError("interval sizes do not tile the circle",
                             "case2-distinct", wit)
    wit.update(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    if 3 * delta >= n:
        sep = line_separation(at(p_bl), at(p_arp), p_bl, p_arp,
                              "case2-distinct", wit, cover_inside_first_arc=True)
    elif 3 * gamma >= n:
        sep = line_separation(at(p_ar), at(p_blp), p_ar, p_blp,
                              "case2-distinct", wit, cover_inside_first_arc=True)
    else:
        sep = line_separation(at(p_ar), at(p_bl), p_ar, p_bl,
                              "case2-distinct", wit, cover_inside_first_arc=True)
    return _validated(d, k, sep)


def _case1(n, h, f_bot, at, line_separation, wit):
    p_bl, p_blp = f_bot
    size_b_bl = p_bl - h + 1     # [b, b_l]
    size_blp_b = h - p_blp + 1   # [b_l', b]
    choice = _window_choice(n, size_b_bl, size_blp_b)
    wit = dict(wit, intervals=[size_b_bl, size_blp_b])
    if choice == 0:
        return line_separation(at(h), at(p_bl), h, p_bl, "case1", wit,
                               cover_inside_first_arc=True)
    return line_separation(at(p_blp), at(h), p_blp, h, "case1", wit,
                           cover_inside_first_arc=False)


def _case1_prime(n, f_top, at, line_separation, wit):
    p_arp, p_ar = f_top
    size_a_ar = p_ar + 1         # [a, a_r]
    size_arp_a = n - p_arp + 1   # [a_r', a]
    choice = _window_choice(n, size_a_ar, size_arp_a)
    wit = dict(wit, intervals=[size_a_ar, size_arp_a])
    if choice == 0:
        return line_separation(at(0), at(p_ar), 0, p_ar, "case1'", wit,
                               cover_inside_first_arc=True)
    return line_separation(at(p_arp), at(0), p_arp, 0, "case1'", wit,
                           cover_inside_first_arc=False)


def _window_choice(n: int, s0: int, s1: int) -> int:
    """Prefer the interval whose size sits in [ceil(n/3), floor(n/2)];
    fall back to the nearer one (the window can be empty at small n)."""
    lo, hi = -(-n // 3), n // 2

    def dist(s):
        if s < lo:
            return lo - s
        if s > hi:
            return s - hi
        return 0

    return 0 if dist(s0) <= dist(s1) else 1


def _validated(d: ConvexDrawing, k: int, sep: Separation) -> Separation:
    err = check_separation(d, k, sep)
    if err:
        raise SeparatorError(err, sep.case_tag, sep.witness)
    return sep


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


def recursive_decompose(d: ConvexDrawing, leaf_size: int,
                        _ids: list[int] | None = None) -> DecompositionNode:
    """Separator tree over induced sub-drawings; leaves at <= leaf_size.

    A node also becomes a leaf when its separation cannot shrink it: the
    trivial-small case (n <= 2k+3), or a degenerate separation whose larger
    side is the whole vertex set (possible only at very small n, when the
    cover absorbs one side of the line).
    """
    if leaf_size < 1:
        raise ValueError("need leaf_size >= 1")
    ids = _ids if _ids is not None else list(range(d.n))
    if d.n <= leaf_size:
        return DecompositionNode(d.n, ids, None, "size", [])
    sep = balanced_separator(d)
    if sep.case_tag == "trivial-small":
        return DecompositionNode(d.n, ids, sep, "trivial-small", [])
    if max(len(sep.a_side), len(sep.b_side)) == d.n:
        return DecompositionNode(d.n, ids, sep, "no-progress", [])
    children = []
    for side in (sep.a_side, sep.b_side):
        child, old = sub_drawing(d, side)
        children.append(recursive_decompose(child, leaf_size,
                                            [ids[i] for i in old]))
    return DecompositionNode(d.n, ids, sep, None, children)
