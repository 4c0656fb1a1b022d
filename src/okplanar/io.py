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

A file without an order section describes a graph; readers that need a
drawing use the identity order (vertex i at position i).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .drawing import ConvexDrawing, make_drawing
from .graphs import Graph, build_graph


@dataclass(frozen=True)
class Instance:
    """A parsed instance file: always a graph, sometimes also an order."""

    graph: Graph
    order: tuple[int, ...] | None

    def drawing(self) -> ConvexDrawing:
        order = self.order if self.order is not None else tuple(range(self.graph.n))
        return make_drawing(self.graph, order)


def parse_instance(text: str) -> Instance:
    """Parse the edge-list format, with line numbers in every error."""
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body))
    if not lines:
        raise ValueError("empty instance file")

    def ints(no: int, body: str, want: int | None = None) -> list[int]:
        parts = body.split()
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {no}: expected integers, got {body!r}") from None
        if want is not None and len(vals) != want:
            raise ValueError(f"line {no}: expected {want} integers, got {len(vals)}")
        return vals

    no, head = lines[0]
    n, m = ints(no, head, 2)
    if n < 0 or m < 0:
        raise ValueError(f"line {no}: negative counts in header")
    if len(lines) < 1 + m:
        raise ValueError(f"header declares {m} edges, file has {len(lines) - 1} data lines")
    edges = []
    for no, body in lines[1 : 1 + m]:
        u, v = ints(no, body, 2)
        edges.append((u, v))
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
    order: tuple[int, ...] | None = None
    if rest:
        no, body = rest[0]
        if body != "order":
            raise ValueError(f"line {no}: expected 'order' or end of file, got {body!r}")
        if len(rest) != 2:
            raise ValueError("order section needs exactly one line of vertex ids")
        no, body = rest[1]
        vals = ints(no, body, n)
        if sorted(vals) != list(range(n)):
            raise ValueError(f"line {no}: order is not a permutation of 0..{n - 1}")
        order = tuple(vals)
    return Instance(graph=graph, order=order)


def read_instance(path: str) -> Instance:
    with open(path) as fh:
        return parse_instance(fh.read())


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def format_drawing(d: ConvexDrawing) -> str:
    return format_graph(d.graph) + "order\n" + " ".join(str(v) for v in d.order) + "\n"


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

