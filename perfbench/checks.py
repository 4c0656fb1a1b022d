"""Output checks that do not trust the program's own code.

Everything here re-derives facts from the input files with independent
implementations: the chord interleave test, per-edge crossing counts from
prefix-xor incidence masks, the maximum pairwise-crossing family as a longest
increasing subsequence per cut point, degeneracy by peeling, and brute-force
class membership over circular orders for small graphs. A check returns None
when the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from itertools import combinations, permutations
from math import comb, isqrt


def read_instance(path: str) -> tuple[int, list[tuple[int, int]], list[int] | None]:
    rows = []
    with open(path) as fh:
        for raw in fh:
            body = raw.split("#", 1)[0].strip()
            if body:
                rows.append(body)
    n, m = map(int, rows[0].split())
    edges = [tuple(sorted(map(int, r.split()))) for r in rows[1:1 + m]]
    order = list(map(int, rows[m + 2].split())) if len(rows) > m + 1 else None
    return n, edges, order


def interleave(a: int, b: int, c: int, d: int) -> bool:
    """Chords {a,b} and {c,d} over circle positions cross."""
    if len({a, b, c, d}) < 4:
        return False
    if a > b:
        a, b = b, a
    return (a < c < b) != (a < d < b)


def positions(n: int, order) -> list[int]:
    """pos[v] = index of vertex v in the circular order."""
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def chords(edges, pos) -> list[tuple[int, int]]:
    return [tuple(sorted((pos[u], pos[v]))) for u, v in edges]


def per_edge_crossings(n: int, ch: list[tuple[int, int]]) -> list[int]:
    inc = [0] * n
    for i, (p, q) in enumerate(ch):
        inc[p] |= 1 << i
        inc[q] |= 1 << i
    prefix = [0] * (n + 1)  # prefix[i] = xor of inc[0..i-1]
    for i in range(n):
        prefix[i + 1] = prefix[i] ^ inc[i]
    return [((prefix[q] ^ prefix[p + 1]) & ~(inc[p] | inc[q])).bit_count() for p, q in ch]


def max_mutual(n: int, ch: list[tuple[int, int]]) -> int:
    """Largest pairwise-crossing chord family.

    Such a family spans one cut point and, sorted by left end, has both ends
    strictly increasing; so it is a longest increasing subsequence of right
    ends among the chords spanning some cut.
    """
    spans: list[list[tuple[int, int]]] = [[] for _ in range(max(n - 1, 0))]
    for a, b in ch:
        for c in range(a, b):
            spans[c].append((a, -b))
    best = 0
    for group in spans:
        if len(group) <= best:
            continue
        tails: list[int] = []
        for _, nb in sorted(group):
            i = bisect_left(tails, -nb)
            if i == len(tails):
                tails.append(-nb)
            else:
                tails[i] = -nb
        best = max(best, len(tails))
    return best


def pairwise_cross(ch: list[tuple[int, int]]) -> bool:
    return all(interleave(*e, *f) for e, f in combinations(ch, 2))


def in_class(n: int, edges, order, k: int, variant: str) -> bool:
    pos = positions(n, order)
    eset = set(edges)
    if variant.startswith("closed") and not all(
        tuple(sorted((order[i], order[(i + 1) % n]))) in eset for i in range(n)
    ):
        return False
    ch = chords(edges, pos)
    if variant.endswith("quasi"):
        return max_mutual(n, ch) <= k - 1
    return max(per_edge_crossings(n, ch), default=0) <= k


def brute_in_class(n: int, edges, k: int, variant: str) -> bool:
    """Some circular order puts the graph in the class (vertex 0 first)."""
    return any(in_class(n, edges, (0,) + rest, k, variant)
               for rest in permutations(range(1, n)))


def degeneracy(n: int, edges) -> int:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    live = set(range(n))
    worst = 0
    while live:
        v = min(live, key=lambda x: len(adj[x]))
        worst = max(worst, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        live.discard(v)
    return worst


# ------------------------------------------------------------------ checks


def check_recognize(req, rc, doc, ctx) -> str | None:
    info = req.info
    n, edges, _ = ctx.instance(info["file"])
    if (doc["n"], doc["m"]) != (n, len(edges)):
        return "n/m differ from the input"
    yes = doc["in_class"]
    if rc != (0 if yes else 2):
        return f"exit {rc} disagrees with in_class={yes}"
    if "expect" in info and yes != info["expect"]:
        return f"verdict {yes}, known answer {info['expect']}"
    if yes:
        order = doc["witness"]["order"]
        if sorted(order) != list(range(n)):
            return "witness order is not a permutation"
        if not in_class(n, edges, order, info["k"], info["variant"]):
            return "witness order fails the interleave re-check"
    if "emit" in info and doc["emitted_cnf"] != info["emit"]:
        return "emitted_cnf does not name the requested file"
    return None


def check_recognize_pair(reqs, docs) -> dict[int, str]:
    """SAT and brute force must agree wherever both ran on one file."""
    seen: dict[tuple, tuple[int, bool]] = {}
    bad = {}
    for i, (req, doc) in enumerate(zip(reqs, docs)):
        if req.kind != "recognize" or not req.info.get("pair") or doc is None:
            continue
        key = (req.info["pair"], req.info["k"], req.info["variant"])
        if key in seen and seen[key][1] != doc["in_class"]:
            bad[i] = f"engines disagree on {key}"
            bad[seen[key][0]] = bad[i]
        seen[key] = (i, doc["in_class"])
    return bad


def check_solve_cnf(req, rc, text, ctx) -> str | None:
    _, clauses = ctx.dimacs(req.info["cnf"])
    sat = rc == 10
    if rc not in (10, 20) or ("s SATISFIABLE" in text) != sat:
        return f"exit {rc} with unexpected verdict line"
    if sat != req.info["expect"]:
        return f"verdict SAT={sat}, the recognize row says {req.info['expect']}"
    if sat:
        true = {int(t) for line in text.splitlines() if line.startswith("v")
                for t in line[1:].split() if t != "0"}
        if not all(any(l in true for l in c) for c in clauses):
            return "model leaves a clause unsatisfied"
    return None


def check_check(req, rc, doc, ctx) -> str | None:
    info = req.info
    _, edges, _ = ctx.instance(info["file"])
    facts = ctx.drawing_facts(info["file"])
    rep = doc["report"]
    if [e["crossings"] for e in rep["per_edge"]] != [facts["per_edge"][e] for e in sorted(edges)]:
        return "per-edge crossing counts differ"
    if rep["max_per_edge"] != facts["max_per_edge"] or rep["max_mutual"] != facts["max_mutual"]:
        return "max_per_edge/max_mutual differ"
    pos = facts["pos"]
    wit = [tuple(sorted((pos[u], pos[v]))) for u, v in rep["witness_mutual"]]
    if len(wit) != rep["max_mutual"] or not pairwise_cross(wit):
        return "witness_mutual is not a pairwise-crossing family of that size"
    k, quasi = info["k"], info["variant"].endswith("quasi")
    want = facts["max_mutual"] <= k - 1 if quasi else facts["max_per_edge"] <= k
    if doc["in_class"] != want or rc != (0 if want else 2):
        return "in_class verdict wrong"
    if "max_per_edge_at_most" in info and facts["max_per_edge"] > info["max_per_edge_at_most"]:
        return "generated drawing exceeds its k"
    return None


def _separation_error(n_sub, edges, a, b, sep, k) -> str | None:
    a, b, sep = set(a), set(b), set(sep)
    if len(sep) > 2 * k + 3:
        return f"separator size {len(sep)} > 2k+3 = {2 * k + 3}"
    bound = -(-2 * n_sub // 3)
    a_ex, b_ex = a - b, b - a
    if len(a_ex) > bound or len(b_ex) > bound:
        return f"a side exceeds ceil(2n/3) = {bound}"
    for u, v in edges:
        if (u in a_ex and v in b_ex) or (u in b_ex and v in a_ex):
            return f"edge ({u}, {v}) joins the exclusive sides"
    return None


def check_separator(req, rc, doc, ctx) -> str | None:
    n, edges, _ = ctx.instance(req.info["file"])
    k = ctx.drawing_facts(req.info["file"])["max_per_edge"]
    if rc != 0 or doc["effective_k"] != k:
        return f"exit {rc}, effective_k {doc['effective_k']} vs {k}"
    a, b, sep = set(doc["a_side"]), set(doc["b_side"]), set(doc["separator"])
    if a | b != set(range(n)) or a & b != sep:
        return "sides do not cover V or meet in the separator"
    return _separation_error(n, edges, a, b, sep, k) or (None if doc["valid"] else "valid=false")


def check_separator_tree(req, rc, doc, ctx) -> str | None:
    _, edges, _ = ctx.instance(req.info["file"])
    if rc != 0:
        return f"exit {rc}"
    pos = ctx.drawing_facts(req.info["file"])["pos"]
    stack = [doc["tree"]]
    while stack:
        node = stack.pop()
        if "case" not in node:
            continue
        verts = set(node["vertices"])
        sub = [(u, v) for u, v in edges if u in verts and v in verts]
        kept = sorted(verts, key=lambda v: pos[v])
        rank = {v: i for i, v in enumerate(kept)}
        k = max(per_edge_crossings(len(kept), [tuple(sorted((rank[u], rank[v]))) for u, v in sub]),
                default=0)
        sep = node["separator"]
        if node.get("children"):
            a, b = node["children"][0]["vertices"], node["children"][1]["vertices"]
            if set(a) | set(b) != verts or set(a) & set(b) != set(sep):
                return "children do not split the node along its separator"
            err = _separation_error(len(verts), sub, a, b, sep, k)
            if err:
                return f"node of size {len(verts)}: {err}"
            stack.extend(node["children"])
        elif len(sep) > 2 * k + 3:
            return f"leaf separator size {len(sep)} > 2k+3 = {2 * k + 3}"
    return None


def tree_case_tags(doc) -> list[str]:
    tags, stack = [], [doc["tree"]]
    while stack:
        node = stack.pop()
        if "case" in node:
            tags.append(node["case"])
        stack.extend(node.get("children", ()))
    return tags


def check_bounds(req, rc, doc, ctx) -> str | None:
    corpus = doc["corpus"]
    if rc != 0 or corpus["violation"] is not None:
        return f"exit {rc}, violation {corpus['violation']}"
    bound = isqrt(4 * req.info["k"] + 1) + 1
    for row in corpus["instances"]:
        n, edges, _ = ctx.instance(f"{req.info['corpus']}/{row['file']}")
        if (row["n"], row["m"]) != (n, len(edges)):
            return f"{row['file']}: n/m differ"
        if row["degeneracy"] != ctx.degeneracy(f"{req.info['corpus']}/{row['file']}"):
            return f"{row['file']}: degeneracy differs"
        if row["colors"] > row["degeneracy"] + 1 or row["degeneracy"] > bound:
            return f"{row['file']}: bound broken"
    return None


def check_saturate(req, rc, doc, ctx) -> str | None:
    n, k = req.info["n"], req.info["k"]
    want = comb(n, 2) if n <= 2 * k - 1 else 2 * (k - 1) * n - comb(2 * k - 1, 2)
    if rc != 0 or doc["final_edges"] != want or not doc["maximal"]:
        return f"exit {rc}, final_edges {doc['final_edges']} vs {want}, maximal {doc['maximal']}"
    dr = doc["drawing"]
    pos = positions(n, dr["order"])
    if max_mutual(n, chords([tuple(e) for e in dr["edges"]], pos)) > k - 1:
        return f"saturated drawing has {k} pairwise crossing edges"
    return None


def check_levels(req, rc, doc, ctx) -> str | None:
    if rc != 0 or not doc["in_class"] or doc["maximal"] is not True:
        return f"exit {rc}, in_class {doc['in_class']}, maximal {doc['maximal']}"
    if doc["verification"] is not None and not doc["verification"]["pass"]:
        return "level verification failed"
    return None


def check_mso2(req, rc, doc, ctx) -> str | None:
    want = ctx.brute(req.info["file"], req.info["k"], req.info["variant"])
    got = doc["evaluation"]["value"]
    if got != want or rc != (0 if want else 2):
        return f"value {got}, brute force says {want}"
    return None


CHECKS = {
    "recognize": check_recognize,
    "solve-cnf": check_solve_cnf,
    "check": check_check,
    "separator": check_separator,
    "separator-tree": check_separator_tree,
    "bounds": check_bounds,
    "saturate": check_saturate,
    "levels": check_levels,
    "mso2": check_mso2,
}


class Context:
    """Per-run cache of parsed inputs and independently derived facts."""

    def __init__(self):
        self._cache: dict = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def instance(self, path):
        return self._memo(("inst", path), lambda: read_instance(path))

    def drawing_facts(self, path):
        def make():
            n, edges, order = self.instance(path)
            pos = positions(n, order if order is not None else range(n))
            ch = chords(edges, pos)
            counts = per_edge_crossings(n, ch)
            return {"pos": pos, "per_edge": dict(zip(edges, counts)),
                    "max_per_edge": max(counts, default=0), "max_mutual": max_mutual(n, ch)}
        return self._memo(("facts", path), make)

    def degeneracy(self, path):
        return self._memo(("deg", path), lambda: degeneracy(*self.instance(path)[:2]))

    def brute(self, path, k, variant):
        n, edges, _ = self.instance(path)
        return self._memo(("brute", path, k, variant),
                          lambda: brute_in_class(n, edges, k, variant))

    def dimacs(self, path):
        def make():
            head, clauses, cur = None, [], []
            with open(path) as fh:
                for line in fh:
                    if line.startswith("c"):
                        continue
                    if line.startswith("p"):
                        head = tuple(map(int, line.split()[2:4]))
                        continue
                    for t in map(int, line.split()):
                        if t == 0:
                            clauses.append(cur)
                            cur = []
                        else:
                            cur.append(t)
            return head, clauses
        return self._memo(("cnf", path), make)


def check_pass(reqs, outcomes, ctx: Context, verdict_cache: dict):
    """One error (or None) and one parsed report (or None) per request of a pass.

    ``outcomes[i]`` is (exit code or None, stdout, error text). Byte-identical
    outputs of one request are checked once and the verdict reused.
    """
    errors: list[str | None] = []
    docs: list[dict | None] = []
    for i, (req, (rc, out, exc)) in enumerate(zip(reqs, outcomes)):
        doc = None
        if exc is not None or rc is None or rc == 1:
            err = f"request raised or exited 1: {exc}"
        else:
            key = (i, rc, out)
            if key not in verdict_cache:
                try:  # solve-cnf prints DIMACS lines, every other command JSON
                    doc = out if req.kind == "solve-cnf" else json.loads(out)
                    verdict_cache[key] = (CHECKS[req.kind](req, rc, doc, ctx), doc)
                except (ValueError, KeyError, TypeError, IndexError) as e:
                    verdict_cache[key] = (f"unreadable report: {e!r}", None)
            err, doc = verdict_cache[key]
        errors.append(err)
        docs.append(doc)
    for i, err in check_recognize_pair(reqs, docs).items():
        errors[i] = errors[i] or err
    return errors, docs
