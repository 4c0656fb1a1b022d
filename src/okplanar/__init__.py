"""Convex one-page drawings: crossing analysis, recognition, separators.

The exports below load their module on first access (PEP 562), so
`import okplanar` and each command import only the modules they use.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# the engines behind recognize; here so the command line can offer them
# without importing the SAT layer
ENGINES = ("sat", "brute")

_EXPORTS = {
    "graphs": ("Graph", "build_graph", "induced_subgraph"),
    "drawing": ("ConvexDrawing", "CrossingReport", "crossing_report", "edges_cross",
                "identity_drawing", "is_closed_drawing", "make_drawing"),
    "separator": ("DecompositionNode", "Separation", "SeparatorError", "balanced_separator",
                  "check_separation", "recursive_decompose"),
    "maximal": ("LevelDecomposition", "QuasiPlanarityError", "ReplacementError",
                "ReplacementResult", "build_levels", "find_long_edge", "frame_edges",
                "is_maximal", "maximal_edge_count", "replacement_split", "saturate",
                "verify_level_properties"),
    "bounds": ("BoundViolation", "DegeneracyResult", "degeneracy",
               "outer_k_planar_chromatic_bound", "outer_k_planar_degeneracy_bound",
               "verify_degeneracy_bound"),
    "mso2": ("EmittedFormula", "emit_formula", "evaluate_formula", "lint_formula",
             "parse_sexpr", "to_latex", "to_sexpr"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
