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
    graph = build_graph(n, edges)
    if graph.m != m:
        raise ValueError("duplicate edge in file")

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
