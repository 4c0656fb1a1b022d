"""Convex one-page drawings: crossing analysis, recognition, separators."""
from __future__ import annotations

from .graphs import Graph, build_graph, induced_subgraph
from .drawing import (
    ConvexDrawing,
    CrossingReport,
    crossing_report,
    edges_cross,
    identity_drawing,
    is_closed_drawing,
    make_drawing,
)
from .separator import (
    DecompositionNode,
    Separation,
    SeparatorError,
    balanced_separator,
    check_separation,
    recursive_decompose,
)
from .maximal import (
    LevelDecomposition,
    QuasiPlanarityError,
    ReplacementError,
    ReplacementResult,
    build_levels,
    find_long_edge,
    frame_edges,
    is_maximal,
    maximal_edge_count,
    replacement_split,
    saturate,
    verify_level_properties,
)
from .bounds import (
    BoundViolation,
    DegeneracyResult,
    degeneracy,
    outer_k_planar_chromatic_bound,
    outer_k_planar_degeneracy_bound,
    verify_degeneracy_bound,
)
from .mso2 import (
    EmittedFormula,
    emit_formula,
    evaluate_formula,
    lint_formula,
    parse_sexpr,
    to_latex,
    to_sexpr,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "build_graph",
    "induced_subgraph",
    "ConvexDrawing",
    "CrossingReport",
    "crossing_report",
    "edges_cross",
    "identity_drawing",
    "is_closed_drawing",
    "make_drawing",
    "DecompositionNode",
    "Separation",
    "SeparatorError",
    "balanced_separator",
    "check_separation",
    "recursive_decompose",
    "LevelDecomposition",
    "QuasiPlanarityError",
    "ReplacementError",
    "ReplacementResult",
    "build_levels",
    "find_long_edge",
    "frame_edges",
    "is_maximal",
    "maximal_edge_count",
    "replacement_split",
    "saturate",
    "verify_level_properties",
    "BoundViolation",
    "DegeneracyResult",
    "degeneracy",
    "outer_k_planar_chromatic_bound",
    "outer_k_planar_degeneracy_bound",
    "verify_degeneracy_bound",
    "EmittedFormula",
    "emit_formula",
    "evaluate_formula",
    "lint_formula",
    "parse_sexpr",
    "to_latex",
    "to_sexpr",
    "__version__",
]
