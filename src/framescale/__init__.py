"""Scalability analysis for finite frames in R^n.

A frame is scalable when its vectors can be rescaled by nonnegative factors
into a Parseval frame.  This package decides the question two ways: fast
graph-theoretic necessary conditions read off the orthogonality pattern of
the frame, and an exact linear-feasibility oracle that returns either
scaling weights or a Farkas-style infeasibility certificate.
"""

from __future__ import annotations

from .exactnum import ExactModeError, QuadExt, exact_str, parse_exact
from .filters import (
    INCONCLUSIVE,
    NOT_SCALABLE,
    NOT_STRICTLY_SCALABLE,
    FilterBattery,
    FilterReport,
    run_all_filters,
)
from .frames import (
    DEFAULT_TOL,
    EXACT_MODE,
    FLOAT_MODE,
    Frame,
    FrameError,
    classify_tightness,
    is_frame,
    naimark_complement,
    random_parseval,
    scale_frame,
)
from .graphs import (
    FrameGraph,
    GraphError,
    GraphStats,
    build_graph,
    compute_stats,
    export_dot,
    zero_pattern_equal,
)
from .linalg import JacobiConvergenceError, SymmetricMatrix, jacobi_eigensystem
from .report import AnalysisConfig, analyze_frame, analyze_graph, stable_dumps
from .scaler import (
    OracleResult,
    ScaleLP,
    SolverError,
    build_lp,
    solve_scalable,
    solve_strict,
    verify_farkas,
    verify_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DEFAULT_TOL",
    "EXACT_MODE",
    "ExactModeError",
    "FLOAT_MODE",
    "FilterBattery",
    "FilterReport",
    "Frame",
    "FrameError",
    "FrameGraph",
    "GraphError",
    "GraphStats",
    "INCONCLUSIVE",
    "JacobiConvergenceError",
    "NOT_SCALABLE",
    "NOT_STRICTLY_SCALABLE",
    "OracleResult",
    "QuadExt",
    "ScaleLP",
    "SolverError",
    "SymmetricMatrix",
    "analyze_frame",
    "analyze_graph",
    "build_graph",
    "build_lp",
    "classify_tightness",
    "compute_stats",
    "exact_str",
    "export_dot",
    "is_frame",
    "jacobi_eigensystem",
    "naimark_complement",
    "parse_exact",
    "random_parseval",
    "run_all_filters",
    "scale_frame",
    "solve_scalable",
    "solve_strict",
    "stable_dumps",
    "verify_farkas",
    "verify_weights",
    "zero_pattern_equal",
]
