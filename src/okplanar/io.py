"""Plain-text instance files: edge list with an optional circular order.

The format is line-based and diff-able (grammar in docs/formats.md):

    # comment lines and blank lines are ignored; '#' starts a comment
    5 4        <- n, then m
    0 1        <- m edge lines, endpoints in 0..n-1
    1 2
    2 3
    3 4
    order      <- optional section: the circular order of a drawing
    4 3 2 1 0  <- n vertex ids, a permutation, clockwise by position

Every file reads as a drawing: one without an order section reads in the
identity order (vertex i at position i).
"""
from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _quote

from .drawing import ConvexDrawing, identity_drawing, make_drawing
from .graphs import Graph, build_graph

# the largest vertex count a header may declare: the graph is allocated
# per vertex before any edge line is read
MAX_VERTICES = 100_000


def _ints(no: int, body: str, want: int | None = None) -> list[int]:
    try:
        vals = [int(p) for p in body.split()]
    except ValueError:
        raise ValueError(f"line {no}: expected integers, got {body!r}") from None
    if want is not None and len(vals) != want:
        raise ValueError(f"line {no}: expected {want} integers, got {len(vals)}")
    return vals


def parse_instance(text: str) -> ConvexDrawing:
    """Parse the edge-list format, with line numbers in every error:
    build_graph judges the edges and make_drawing the order."""
    bodies = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1))
    lines = [(no, body) for no, body in bodies if body]
    if not lines:
        raise ValueError("empty instance file")
    no, head = lines[0]
    n, m = _ints(no, head, 2)
    if n < 0 or m < 0:
        raise ValueError(f"line {no}: negative counts in header")
    if n > MAX_VERTICES:
        raise ValueError(f"line {no}: header declares {n} vertices, "
                         f"above MAX_VERTICES = {MAX_VERTICES}")
    if len(lines) < 1 + m:
        raise ValueError(f"line {no}: header declares {m} edges, "
                         f"file has {len(lines) - 1} data lines")
    edges = [tuple(_ints(no, body, 2)) for no, body in lines[1 : 1 + m]]  # GC untracks tuples
    try:
        graph = build_graph(n, edges)
    except ValueError as exc:  # build_graph stops at the first loop or stray end
        no = next(no for (no, _), (u, v) in zip(lines[1:], edges)
                  if u == v or not (0 <= u < n and 0 <= v < n))
        raise ValueError(f"line {no}: {exc}") from None
    if graph.m != m:  # name the first line that repeats an earlier edge
        first: dict[frozenset[int], int] = {}
        no = next(no for (no, _), e in zip(lines[1:], edges)
                  if first.setdefault(frozenset(e), no) != no)
        raise ValueError(f"line {no}: duplicate edge in file")

    rest = lines[1 + m :]
    if not rest:
        return identity_drawing(graph)
    no, body = rest[0]
    if body != "order":
        raise ValueError(f"line {no}: expected 'order' or end of file, got {body!r}")
    if len(rest) != 2:  # name the first extra line, or the bare 'order' line
        no = rest[2][0] if len(rest) > 2 else no
        raise ValueError(f"line {no}: order section needs exactly one line of vertex ids")
    no, body = rest[1]
    order = _ints(no, body)
    try:
        return make_drawing(graph, order)
    except ValueError as exc:  # not a permutation of 0..n-1
        raise ValueError(f"line {no}: {exc}") from None


def read_instance(path: str) -> ConvexDrawing:
    with open(path) as fh:
        return parse_instance(fh.read())


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def format_drawing(d: ConvexDrawing) -> str:
    order = " ".join(str(v) for v in d.order)  # none at n = 0: readers skip blank lines
    return format_graph(d.graph) + (f"order\n{order}\n" if order else "")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def format_report(doc) -> str:
    """The JSON text of a report: equal to json.dumps(doc, indent=2,
    sort_keys=True), written in one pass.

    Any indent sends json.dumps to its pure-Python encoder; this writer
    quotes strings with the C escaper and renders a list of plain ints in
    one join. It accepts str, int, bool, None, list, tuple and dict with
    str keys, subclasses included. Anything else raises TypeError: a
    non-str key, and a float too, since no report holds one. There is no
    check for reference cycles.
    """
    parts: list[str] = []
    _write(doc, "\n", parts.append)
    return "".join(parts)


def _write(o, nl: str, out) -> None:
    """Append o's JSON text to out; nl is the newline plus the indent of
    the line o starts on."""
    if isinstance(o, str):
        out(_quote(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in o):  # not bool: True must not print as 1
            out("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out(sep)
            sep = "," + inner
            _write(x, inner, out)
        out(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, val in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(val, inner, out)
        out(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

