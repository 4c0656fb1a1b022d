"""Command-line front end.

Every report command prints one JSON document (stable key order, no
timestamps, all randomness behind --seed) so repeated runs on the same
inputs are byte-identical. Exit codes: 0 success, 2 when the computed
verdict is "not in the class" (that is a result, not a failure), 1 for
errors. solve-cnf keeps the SAT-competition convention (exit 10/20, "s" and
"v" lines) so it can exchange DIMACS with other solvers.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import ENGINES, __version__

# Package modules are imported inside the command that runs them, so a
# command loads only what it uses and the parser loads none of them.


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # "not in class" verdicts; usage problems are plain errors instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(self._err(message))

    def _err(self, message: str) -> int:
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        return 1


def _seconds(text: str) -> float:
    """A positive, finite number of seconds (a --timeout value)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text!r}")
    return value


def _add_input(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("file", help="instance file (edge list, optional order)")


def _emit(args: argparse.Namespace, command: str, inputs: dict, payload: dict) -> None:
    from .io import format_report, sha256_file

    doc = {
        "command": command,
        "tool_version": __version__,
        "inputs": {p: sha256_file(p) for p in inputs},
    }
    doc.update(payload)
    text = format_report(doc) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_dict(rep) -> dict:
    return {
        "max_per_edge": rep.max_per_edge,
        "max_mutual": rep.max_mutual,
        "per_edge": [
            {"edge": list(e), "crossings": c} for e, c in sorted(rep.per_edge.items())
        ],
        "witness_mutual": [list(e) for e in rep.witness_mutual],
    }


def _in_class(*fields: str) -> dict:
    """An in-class verdict whose result fields stay null until filled in;
    a not-in-class report keeps them null and names its witness."""
    return {"in_class": True, "witness_mutual": [], **dict.fromkeys(fields)}


# ---------------------------------------------------------------- commands


def cmd_check(args: argparse.Namespace) -> int:
    from .drawing import (
        class_violation,
        crossing_report,
        drawing_svg,
        is_closed_drawing,
        resolve_class,
    )
    from .io import read_instance

    variant = resolve_class(args.variant, args.k)
    d = read_instance(args.file)
    rep = crossing_report(d)
    # a boundary cycle needs n >= 3; class_violation refuses the closed variants below that
    closed = d.n >= 3 and is_closed_drawing(d)
    in_class = class_violation(d, rep, args.k, variant) is None
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(drawing_svg(d))
    _emit(
        args,
        "check",
        {args.file},
        {
            "k": args.k,
            "variant": variant,
            "n": d.n,
            "m": d.graph.m,
            "closed": closed,
            "in_class": in_class,
            "report": _report_dict(rep),
            "svg": args.svg,
        },
    )
    return 0 if in_class else 2


def cmd_recognize(args: argparse.Namespace) -> int:
    from .drawing import resolve_class
    from .io import read_instance
    from .sat import recognize

    variant = resolve_class(args.variant, args.k)
    g = read_instance(args.file).graph
    found, certificate = recognize(g, args.k, variant, args.engine, args.timeout, args.emit_cnf)
    witness = None
    if found is not None:
        d, rep = found
        witness = {
            "order": list(d.order),
            "max_per_edge": rep.max_per_edge,
            "max_mutual": rep.max_mutual,
        }
    _emit(
        args,
        "recognize",
        {args.file},
        {
            "k": args.k,
            "variant": variant,
            "engine": args.engine,
            "n": g.n,
            "m": g.m,
            "in_class": found is not None,
            "witness": witness,
            "certificate": certificate,
            "emitted_cnf": args.emit_cnf or None,
        },
    )
    return 0 if found is not None else 2


def cmd_separator(args: argparse.Namespace) -> int:
    from .drawing import drawing_chords
    from .io import read_instance
    from .separator import balanced_separator, check_separation, recursive_decompose

    if args.leaf_size is not None and not args.recursive:
        raise ValueError("--leaf-size needs --recursive")
    d = read_instance(args.file)
    if args.recursive:
        eff_k = max(drawing_chords(d).counts, default=0)
        leaf = args.leaf_size if args.leaf_size is not None else 2 * eff_k + 3
        node = recursive_decompose(d, leaf_size=leaf)
        payload = {
            "recursive": True,
            "leaf_size": leaf,
            "depth": node.depth(),
            "tree": node.to_dict(),
        }
    else:
        sep = balanced_separator(d)
        eff_k = sep.k
        payload = {
            "recursive": False,
            "separator": sorted(sep.separator),
            "a_side": sorted(sep.a_side),
            "b_side": sorted(sep.b_side),
            "size": len(sep.separator),
            "case_tag": sep.case_tag,
            "witness": sep.witness,
            "valid": check_separation(d, eff_k, sep) is None,
        }
    payload.update(n=d.n, m=d.graph.m, effective_k=eff_k, size_bound=2 * eff_k + 3)
    _emit(args, "separator", {args.file}, payload)
    return 0


def cmd_levels(args: argparse.Namespace) -> int:
    from .drawing import class_violation, crossing_report, resolve_class
    from .io import read_instance
    from .maximal import (
        build_levels,
        find_long_edge,
        is_maximal,
        levels_svg,
        verify_level_properties,
    )

    resolve_class("outer-quasi", args.k)
    d = read_instance(args.file)
    rep = crossing_report(d)
    payload = {
        "k": args.k,
        "n": d.n,
        "m": d.graph.m,
        **_in_class("long_edge", "levels", "verification", "maximal", "svg"),
    }
    if class_violation(d, rep, args.k, "outer-quasi") is not None:
        payload.update(in_class=False, witness_mutual=[list(e) for e in rep.witness_mutual])
        _emit(args, "levels", {args.file}, payload)
        return 2
    long_edge = find_long_edge(d, args.k)
    if long_edge is None:
        payload["maximal"] = is_maximal(d, args.k)
    else:
        ld = build_levels(d, long_edge, args.k)
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(levels_svg(d, ld))
        verification = verify_level_properties(ld, d)
        payload.update(
            long_edge=list(ld.long_edge),
            levels=ld.to_dict(),
            verification=verification,
            maximal=verification["connectivity"]["required"],
            svg=args.svg,
        )
    _emit(args, "levels", {args.file}, payload)
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    from .drawing import identity_drawing, resolve_class
    from .generators import random_outer_k_planar
    from .graphs import build_graph
    from .io import format_drawing, read_instance
    from .maximal import QuasiPlanarityError, is_maximal, maximal_edge_count, saturate

    resolve_class("outer-quasi", args.k)
    inputs: set[str] = set()
    if args.order:
        if args.n is not None or args.seed is not None:
            raise ValueError("--order takes neither --n nor --seed")
        inputs.add(args.order)
        d = read_instance(args.order)
        start = {"kind": "file", "edges": d.graph.m, "seed": None}
    elif args.n is not None:
        if args.seed is not None:
            d = random_outer_k_planar(args.n, max(args.k - 2, 0), args.seed)
            start = {"kind": "seeded", "edges": d.graph.m, "seed": args.seed}
        else:
            d = identity_drawing(build_graph(args.n, []))
            start = {"kind": "empty", "edges": 0, "seed": None}
    else:
        raise ValueError("saturate needs --order FILE or --n N")
    payload = {
        "k": args.k,
        "n": d.n,
        "start": start,
        **_in_class("final_edges", "expected_maximal_edges", "matches_formula",
                    "maximal", "drawing", "drawing_file"),
    }
    try:
        full = saturate(d, args.k)
    except QuasiPlanarityError as exc:
        payload.update(in_class=False, witness_mutual=[list(e) for e in exc.witness])
        _emit(args, "saturate", inputs, payload)
        return 2
    expected = maximal_edge_count(d.n, args.k)
    if args.write_drawing:
        with open(args.write_drawing, "w") as fh:
            fh.write(format_drawing(full))
    payload.update(
        final_edges=full.graph.m,
        expected_maximal_edges=expected,
        matches_formula=full.graph.m == expected,
        maximal=is_maximal(full, args.k),
        drawing={
            "n": full.n,
            "order": list(full.order),
            "edges": [list(e) for e in full.graph.edges],
        },
        drawing_file=args.write_drawing,
    )
    _emit(args, "saturate", inputs, payload)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .generators import (
        MAX_CHORDS,
        complete,
        complete_bipartite,
        grid,
        planar_3tree_levels,
        random_outer_k_planar,
    )
    from .io import format_drawing, format_graph

    def need(name: str):
        val = getattr(args, name.replace("-", "_"))
        if val is None:
            raise ValueError(f"--kind {args.kind} needs --{name}")
        return val

    def frame(n: int, k: int) -> str:
        from .drawing import identity_drawing
        from .graphs import build_graph
        from .maximal import frame_edges

        return format_drawing(identity_drawing(build_graph(n, sorted(frame_edges(n, k)))))

    # size: the edges, or for random-okp the candidate chords, that make()
    # holds at once, in closed form over nonnegative sides (a negative side
    # is the builder's own error)
    pairs = lambda n: max(n, 0) * max(n - 1, 0) // 2
    if args.kind == "complete":
        n = need("n")
        size, make = pairs(n), lambda: format_graph(complete(n))
    elif args.kind == "bipartite":
        p, q = need("p"), need("q")
        size, make = max(p, 0) * max(q, 0), lambda: format_graph(complete_bipartite(p, q))
    elif args.kind == "grid":
        r, c = need("rows"), need("cols")
        r0, c0 = max(r, 0), max(c, 0)
        size, make = 2 * r0 * c0 - r0 - c0, lambda: format_graph(grid(r, c))
    elif args.kind == "3tree":
        levels = need("levels")
        size = (3 ** min(max(levels, 1) + 1, 64) + 3) // 2
        make = lambda: format_graph(planar_3tree_levels(levels))
    elif args.kind == "frame":
        n, k = need("n"), need("k")
        size, make = min(pairs(n), max(n, 0) * max(k - 1, 0)), lambda: frame(n, k)
    else:  # random-okp
        n, k = need("n"), need("k")
        seed = args.seed if args.seed is not None else 0
        size, make = pairs(n), lambda: format_drawing(random_outer_k_planar(n, k, seed))
    if size > MAX_CHORDS:
        raise ValueError(f"--kind {args.kind} would hold {size:,} edges or candidate chords, "
                         f"above generators.MAX_CHORDS = {MAX_CHORDS:,}")
    text = make()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import (
        BoundViolation,
        degeneracy,
        outer_k_planar_chromatic_bound,
        outer_k_planar_degeneracy_bound,
        verify_degeneracy_bound,
    )
    from .io import read_instance

    payload: dict = {
        "k": args.k,
        "degeneracy_bound": outer_k_planar_degeneracy_bound(args.k),
        "chromatic_bound": outer_k_planar_chromatic_bound(args.k),
        "largest_complete_graph": outer_k_planar_degeneracy_bound(args.k) + 1,
        "corpus": None,
    }
    inputs: set[str] = set()
    if args.corpus:
        files = sorted(str(p) for p in Path(args.corpus).glob("*.txt"))
        if not files:
            raise ValueError(f"no *.txt instances under {args.corpus}")
        inputs.update(files)
        drawings = []
        for f in files:
            try:
                drawings.append(read_instance(f))
            except ValueError as exc:
                raise ValueError(f"{f}: {exc}") from None
        try:
            summary, results = verify_degeneracy_bound(drawings, args.k)
        except BoundViolation as exc:
            summary, violation = None, str(exc)
            results = [degeneracy(d.graph) for d in drawings]
        rows = [
            {
                "file": Path(f).name,
                "n": d.n,
                "m": d.graph.m,
                "degeneracy": res.degeneracy,
                "colors": res.num_colors,
            }
            for f, d, res in zip(files, drawings, results)
        ]
        if summary is None:
            payload["corpus"] = {"instances": rows, "violation": violation}
            _emit(args, "bounds", inputs, payload)
            return 2
        payload["corpus"] = {"instances": rows, "summary": summary, "violation": None}
    _emit(args, "bounds", inputs, payload)
    return 0


def cmd_mso2(args: argparse.Namespace) -> int:
    from .drawing import resolve_class
    from .io import read_instance
    from .mso2 import emit_formula, evaluate_formula

    variant = resolve_class(args.variant, args.k)
    if not variant.startswith("closed"):
        # formulas quantify over a Hamiltonian boundary, so only the
        # closed classes have one; the open names map to their closures
        variant = "closed-" + variant
    formula = emit_formula(args.k, variant)
    payload = {**formula.to_dict(), "evaluation": None}
    inputs: set[str] = set()
    value = None
    if args.eval:
        inputs.add(args.eval)
        g = read_instance(args.eval).graph
        if g.n < 3:  # no Hamiltonian boundary, as brute force and the encoder refuse
            raise ValueError("closed variants need n >= 3")
        value = evaluate_formula(formula, g)
        payload["evaluation"] = {"file": args.eval, "n": g.n, "m": g.m, "value": value}
    _emit(args, "mso2", inputs, payload)
    return 2 if value is False else 0


def _family(name: str, *args: int):
    """generators.<name>(*args), importing generators only when a row is built."""
    from . import generators

    return getattr(generators, name)(*args)


_PROP_ROWS = (
    ("K5", lambda: _family("complete", 5), True, False),
    ("K44", lambda: _family("complete_bipartite", 4, 4), True, False),
    ("grid44", lambda: _family("grid", 4, 4), True, False),
    ("K6", lambda: _family("complete", 6), False, False),
    ("K35", lambda: _family("complete_bipartite", 3, 5), False, False),
    ("3tree-3-levels", lambda: _family("planar_3tree_levels", 3), True, True),
    ("3tree-4-levels", lambda: _family("planar_3tree_levels", 4), False, True),
)


def cmd_repro(args: argparse.Namespace) -> int:
    from .sat import recognize

    rows = []
    ok = True
    for name, make, expect, sensitive in _PROP_ROWS:
        g = make()
        found = recognize(g, 3, "outer-quasi").found
        got = found is not None
        hit = got == expect
        if not sensitive and not hit:
            ok = False
        rows.append(
            {
                "name": name,
                "n": g.n,
                "m": g.m,
                "k": 3,
                "variant": "outer-quasi",
                "expected_in_class": expect,
                "in_class": got,
                "pass": hit,
                "definition_sensitive": sensitive,
            }
        )
    _emit(args, "repro", set(), {"target": "props", "rows": rows, "pass": ok})
    return 0 if ok else 1


def cmd_solve_cnf(args: argparse.Namespace) -> int:
    from .cdcl import CdclSolver
    from .sat import parse_dimacs

    with open(args.path) as fh:
        num_vars, clauses = parse_dimacs(fh.read())
    model = CdclSolver(num_vars, clauses).solve(timeout_s=args.timeout)
    if model is None:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    line = "v"
    for lit in model:
        if len(line) + len(str(lit)) + 1 > 76:
            print(line)
            line = "v"
        line += f" {lit}"
    print(line + " 0")
    return 10


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="okplanar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="crossing report and class membership of a drawing")
    _add_input(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", required=True)
    sp.add_argument("--svg", help="also write the drawing as SVG")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("recognize", help="search for an order that puts a graph in class")
    _add_input(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", required=True)
    sp.add_argument("--engine", choices=ENGINES, default="sat")
    sp.add_argument("--timeout", type=_seconds, default=None)
    sp.add_argument("--emit-cnf", help="also write the encoding as DIMACS")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_recognize)

    sp = sub.add_parser("separator", help="balanced separator of a convex drawing")
    _add_input(sp)
    sp.add_argument("--recursive", action="store_true")
    sp.add_argument("--leaf-size", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_separator)

    sp = sub.add_parser("levels", help="split the edges crossing a long chord into levels")
    _add_input(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--svg", help="also write the leveled drawing as SVG")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_levels)

    sp = sub.add_parser("saturate", help="add chords until no edge fits")
    sp.add_argument("--order", help="start from this instance file")
    sp.add_argument("--n", type=int, help="start from n vertices instead of a file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="with --n: seed a random in-class start")
    sp.add_argument("--write-drawing",
                    help="also write the saturated drawing as an instance file")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_saturate)

    sp = sub.add_parser("generate", help="write a named instance to stdout")
    sp.add_argument("--kind", required=True, choices=(
        "complete", "bipartite", "grid", "3tree", "frame", "random-okp"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--rows", type=int)
    sp.add_argument("--cols", type=int)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("bounds", help="degeneracy and coloring bounds, optionally on a corpus")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--corpus", help="directory of *.txt instances to verify")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("mso2", help="emit the closed-class formula, optionally evaluate it")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", required=True)
    sp.add_argument("--eval", help="evaluate the formula on this instance file")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_mso2)

    sp = sub.add_parser("repro", help="re-run the recorded experiments")
    sp.add_argument("what", choices=("props",))
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_repro)

    sp = sub.add_parser("solve-cnf", help="solve a DIMACS CNF file")
    sp.add_argument("path")
    sp.add_argument("--timeout", type=_seconds, default=None)
    sp.set_defaults(fn=cmd_solve_cnf)

    return ap


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built once per process; parse_args leaves it unchanged
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # CLI boundary: every failure becomes exit 1
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
