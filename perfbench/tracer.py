"""Spans and counters around okplanar's public functions, installed from outside.

``Tracer.install`` replaces each function listed in ``WRAPS`` with a timing
wrapper, in the defining module and under every other name an okplanar
module bound it to (``cli`` imports most of them by name, ``maximal`` and
``recognition`` import ``max_clique_bitset``); ``CdclSolver`` methods are
patched on the class. Spans are kept in memory as
``[name, start, end, parent, request, outermost, info]`` and written out once
the run ends. Counts come from the arguments and returned objects, never from
the program's internals, so the program itself is unchanged.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

NAME, START, END, PARENT, REQUEST, OUTER, INFO = range(7)

CASE_TAGS = ("trivial-small", "cutting-edge", "mutually-crossing", "single-crossing-edge",
             "case1", "case1'", "case2-shared", "case2-distinct")

TOP_ENCODERS = ("sat.encode_outer_planar", "sat.encode_outer_quasi", "sat.encode_closed")
_BLOCKS = ("order", "links", "cap", "boundary")


def _ast_nodes(node) -> int:
    if not isinstance(node, tuple):
        return 0
    return 1 + sum(_ast_nodes(c) for c in node[1:])


def _tree_nodes(node) -> int:
    return 1 + sum(_tree_nodes(c) for c in node.children)


# ------------------------------------------------------------------- hooks
# before(tracer, args) -> state; after(tracer, span, args, result, state)


def _blocks(t):
    return tuple(t.counts[f"sat.clauses.{b}"] for b in _BLOCKS)


def _before_encoder(t, args):
    return _blocks(t)


def _after_order(t, span, args, res, pre):
    t.counts["sat.clauses.order"] += len(res[0].clauses)


def _before_links(t, args):
    return len(args[1].clauses)


def _after_links(t, span, args, res, pre):
    t.counts["sat.clauses.links"] += len(args[1].clauses) - pre


def _after_encoder(block):
    def after(t, span, args, res, pre):
        cnf = res[0]
        inner = sum(_blocks(t)) - sum(pre)
        t.counts[f"sat.clauses.{block}"] += len(cnf.clauses) - inner
        parent = span[PARENT]
        if parent < 0 or t.spans[parent][NAME] not in TOP_ENCODERS:
            span[INFO] = {"vars": cnf.num_vars, "clauses": len(cnf.clauses)}
            t.counts["sat.vars"] += cnf.num_vars
            t.counts["sat.clauses"] += len(cnf.clauses)
    return after


def _after_pairs(t, span, args, res, pre):
    t.counts["drawing.crossing_pairs.pairs"] += len(res)


def _after_balanced(t, span, args, res, pre):
    t.counts[f"separator.case.{res.case_tag}"] += 1


def _after_recursive(t, span, args, res, pre):
    if span[OUTER]:
        t.counts["separator.tree_nodes"] += _tree_nodes(res)


def _after_saturate(t, span, args, res, pre):
    start = args[0]
    t.counts["maximal.saturate.candidates"] += comb(start.n, 2) - start.graph.m
    t.counts["maximal.saturate.accepted"] += res.graph.m - start.graph.m


def _before_solve(t, args):
    return len(args[0].clauses)


def _after_solve(t, span, args, res, pre):
    solver = args[0]
    t.counts["cdcl.clause_growth"] += len(solver.clauses) - pre
    t.counts["cdcl.heap_final"] += len(solver.heap)
    t.counts["cdcl.unsat" if res is None else "cdcl.sat"] += 1


def _after_emit(t, span, args, res, pre):
    t.counts["mso2.formula_nodes"] += _ast_nodes(res.ast)


# (module, attribute, span name, before, after); "Class.method" patches the class
WRAPS = (
    ("okplanar.cli", "main", "cli.main", None, None),
    ("okplanar.io", "read_instance", "io.read_instance", None, None),
    ("okplanar.drawing", "crossing_pairs", "drawing.crossing_pairs", None, _after_pairs),
    ("okplanar.drawing", "max_clique_bitset", "drawing.max_clique_bitset", None, None),
    ("okplanar.drawing", "crossing_report", "drawing.crossing_report", None, None),
    ("okplanar.separator", "balanced_separator", "separator.balanced_separator", None,
     _after_balanced),
    ("okplanar.separator", "recursive_decompose", "separator.recursive_decompose", None,
     _after_recursive),
    ("okplanar.maximal", "saturate", "maximal.saturate", None, _after_saturate),
    ("okplanar.maximal", "is_maximal", "maximal.is_maximal", None, None),
    ("okplanar.maximal", "build_levels", "maximal.build_levels", None, None),
    ("okplanar.maximal", "verify_level_properties", "maximal.verify_level_properties", None,
     None),
    ("okplanar.bounds", "degeneracy", "bounds.degeneracy", None, None),
    ("okplanar.sat", "encode_order_axioms", "sat.encode_order_axioms", None, _after_order),
    ("okplanar.sat", "encode_crossing_links", "sat.encode_crossing_links", _before_links,
     _after_links),
    ("okplanar.sat", "encode_outer_planar", "sat.encode_outer_planar", _before_encoder,
     _after_encoder("cap")),
    ("okplanar.sat", "encode_outer_quasi", "sat.encode_outer_quasi", _before_encoder,
     _after_encoder("cap")),
    ("okplanar.sat", "encode_closed", "sat.encode_closed", _before_encoder,
     _after_encoder("boundary")),
    ("okplanar.sat", "dimacs_text", "sat.dimacs_text", None, None),
    ("okplanar.sat", "parse_dimacs", "sat.parse_dimacs", None, None),
    ("okplanar.sat", "decode_model", "sat.decode_model", None, None),
    ("okplanar.sat", "solve", "sat.solve", None, None),
    ("okplanar.sat", "sat_recognize", "sat.sat_recognize", None, None),
    ("okplanar.cdcl", "CdclSolver.__init__", "cdcl.CdclSolver.__init__", None, None),
    ("okplanar.cdcl", "CdclSolver.solve", "cdcl.CdclSolver.solve", _before_solve, _after_solve),
    ("okplanar.recognition", "brute_force_recognize", "recognition.brute_force_recognize",
     None, None),
    ("okplanar.mso2", "emit_formula", "mso2.emit_formula", None, _after_emit),
    ("okplanar.mso2", "evaluate_formula", "mso2.evaluate_formula", None, None),
)

# span names each workload is meant to reach; one with no span means a binding
# the tracer missed (or a code path the workload stopped exercising)
EXPECTED = {
    "recognize": ("cli.main", "io.read_instance", "drawing.crossing_report",
                  "drawing.crossing_pairs", "drawing.max_clique_bitset",
                  "sat.encode_order_axioms", "sat.encode_crossing_links",
                  "sat.encode_outer_planar", "sat.encode_outer_quasi", "sat.encode_closed",
                  "sat.dimacs_text", "sat.parse_dimacs", "sat.decode_model", "sat.solve",
                  "sat.sat_recognize", "cdcl.CdclSolver.__init__", "cdcl.CdclSolver.solve",
                  "recognition.brute_force_recognize"),
    "drawings": ("cli.main", "io.read_instance", "drawing.crossing_report",
                 "drawing.crossing_pairs", "drawing.max_clique_bitset",
                 "separator.balanced_separator", "separator.recursive_decompose",
                 "bounds.degeneracy"),
    "maximal": ("cli.main", "io.read_instance", "drawing.crossing_report",
                "drawing.crossing_pairs", "drawing.max_clique_bitset", "maximal.saturate",
                "maximal.is_maximal", "maximal.build_levels", "maximal.verify_level_properties"),
    "mso2": ("cli.main", "io.read_instance", "mso2.emit_formula", "mso2.evaluate_formula"),
}

# per-layer metric -> span name whose outermost calls give its inclusive time
TIMES = {
    "io.read_instance_s": "io.read_instance",
    "drawing.crossing_pairs_s": "drawing.crossing_pairs",
    "drawing.max_clique_s": "drawing.max_clique_bitset",
    "drawing.crossing_report_s": "drawing.crossing_report",
    "separator.balanced_s": "separator.balanced_separator",
    "separator.recursive_s": "separator.recursive_decompose",
    "maximal.saturate_s": "maximal.saturate",
    "maximal.is_maximal_s": "maximal.is_maximal",
    "maximal.build_levels_s": "maximal.build_levels",
    "maximal.verify_levels_s": "maximal.verify_level_properties",
    "bounds.degeneracy_s": "bounds.degeneracy",
    "sat.dimacs_s": "sat.dimacs_text",
    "sat.parse_dimacs_s": "sat.parse_dimacs",
    "sat.decode_s": "sat.decode_model",
    "cdcl.init_s": "cdcl.CdclSolver.__init__",
    "cdcl.solve_s": "cdcl.CdclSolver.solve",
    "recognition.brute_s": "recognition.brute_force_recognize",
    "mso2.emit_s": "mso2.emit_formula",
    "mso2.eval_s": "mso2.evaluate_formula",
}
# per-layer metric -> span name whose every call is counted
CALLS = {
    "drawing.crossing_pairs.calls": "drawing.crossing_pairs",
    "drawing.max_clique.calls": "drawing.max_clique_bitset",
    "drawing.crossing_report.calls": "drawing.crossing_report",
    "separator.balanced.calls": "separator.balanced_separator",
    "maximal.is_maximal.calls": "maximal.is_maximal",
    "recognition.brute.calls": "recognition.brute_force_recognize",
    "mso2.eval.calls": "mso2.evaluate_formula",
}
COUNTS = ("drawing.crossing_pairs.pairs", "separator.tree_nodes", "maximal.saturate.candidates",
          "maximal.saturate.accepted", "sat.vars", "sat.clauses", "sat.clauses.order",
          "sat.clauses.links", "sat.clauses.cap", "sat.clauses.boundary", "cdcl.clause_growth",
          "cdcl.heap_final", "cdcl.sat", "cdcl.unsat", "mso2.formula_nodes")
MODULES = ("cli", "io", "drawing", "separator", "maximal", "bounds", "sat", "cdcl",
           "recognition", "mso2")


def case_metric(tag: str) -> str:
    return "separator.case." + tag.replace("'", "-prime")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return (list(TIMES) + ["sat.encode_s"] + list(CALLS) + list(COUNTS)
            + ["maximal.saturate.accept_ratio"] + [case_metric(t) for t in CASE_TAGS]
            + [f"{m}.self_s" for m in MODULES] + ["trace.overhead_ratio"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, tracer._depth[name] == 0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._depth[name] += 1
            pre = before(tracer, args) if before else None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
                tracer._depth[name] -= 1
            if after:
                after(tracer, span, args, result, pre)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "okplanar" or k.startswith("okplanar."))]
        for modname, attr, name, before, after in WRAPS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, before, after)
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, new) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass, from the spans and counters."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_time: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        encode = 0.0
        for i, span in enumerate(self.spans):
            dur = span[END] - span[START]
            calls[span[NAME]] += 1
            if span[OUTER]:
                inclusive[span[NAME]] += dur
            if span[INFO] is not None and span[NAME] in TOP_ENCODERS:
                encode += dur
            self_time[span[NAME].split(".", 1)[0]] += dur - child[i]
        out = {m: inclusive[s] / passes for m, s in TIMES.items()}
        out["sat.encode_s"] = encode / passes
        out.update({m: calls[s] / passes for m, s in CALLS.items()})
        out.update({c: self.counts[c] / passes for c in COUNTS})
        cand = self.counts["maximal.saturate.candidates"]
        out["maximal.saturate.accept_ratio"] = (
            self.counts["maximal.saturate.accepted"] / cand if cand else 0.0)
        for tag in CASE_TAGS:
            out[case_metric(tag)] = self.counts[f"separator.case.{tag}"] / passes
        out.update({f"{m}.self_s": self_time[m] / passes for m in MODULES})
        return out

    def uncovered(self, workload: str) -> list[str]:
        seen = {s[NAME] for s in self.spans}
        return [n for n in EXPECTED[workload] if n not in seen and n not in self.missing]

    def encodes_of(self, request) -> list[dict]:
        """(vars, clauses) of every top-level encoding made by one request."""
        return [s[INFO] for s in self.spans
                if s[REQUEST] == request and s[NAME] in TOP_ENCODERS and s[INFO]]
