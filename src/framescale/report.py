"""Analysis orchestration and byte-stable JSON reports.

Reports carry a version tag, echo the input and tolerances, and keep the
output deterministic: keys sorted, floats printed with 17 significant
digits, exact scalars printed as 'p/q' strings.  Vertex indices in reports
are 1-based (v1..vm).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii

from .exactnum import QuadExt, exact_str
from .filters import (
    NOT_SCALABLE,
    FilterBattery,
    FilterConfig,
    run_all_filters,
)
from .frames import Frame, classify_tightness, is_frame
from .graphs import FrameGraph, GraphStats, build_graph, compute_stats
from .linalg import SymmetricMatrix
from .scaler import OracleResult, build_lp, solve_strict

REPORT_VERSION = 2


@dataclass(frozen=True)
class AnalysisConfig:
    tol: float = 1e-8  # solver / Parseval tolerance
    tol_zero: float = 1e-10  # adjacency threshold (0 in exact mode)
    filters_only: bool = False
    enable_experimental: bool = False
    vertex_cap: int = 32


def _scalar(x):
    if isinstance(x, (Fraction, QuadExt)):
        return exact_str(x)
    return x  # float or int


def _matrix_json(s: SymmetricMatrix):
    return {
        "order": s.order,
        "rows": [[_scalar(x) for x in row] for row in s.rows()],
    }


def _stats_json(stats: GraphStats):
    return {
        "components": [[v + 1 for v in c] for c in stats.components],
        "is_connected": stats.is_connected,
        "diameter": stats.diameter,
        "is_bipartite": stats.is_bipartite,
        "component_part_sizes": (
            [list(p) for p in stats.component_part_sizes]
            if stats.component_part_sizes is not None
            else None
        ),
        "alpha": stats.alpha,
        "max_independent_set": (
            [v + 1 for v in stats.max_independent_set]
            if stats.max_independent_set is not None
            else None
        ),
        "bridges": [[i + 1, j + 1] for (i, j) in stats.bridges],
        "leaves": [v + 1 for v in stats.leaves],
        "is_complete": stats.is_complete,
        "is_empty": stats.is_empty,
        "is_cycle": stats.is_cycle,
        "induced_path_vertices": stats.induced_path_vertices,
        "induced_path_witness": (
            [v + 1 for v in stats.induced_path_witness]
            if stats.induced_path_witness is not None
            else None
        ),
        "cap_exceeded": stats.cap_exceeded,
    }


def _battery_json(battery: FilterBattery):
    return [
        {
            "filter_id": r.filter_id,
            "citation": r.citation,
            "applicable": r.applicable,
            "verdict": r.verdict,
            "certificate": r.certificate,
            "experimental": r.experimental,
        }
        for r in battery.reports
    ]


def _answer_json(res: OracleResult):
    out = {"status": res.status}
    if res.weights is not None:
        out["weights"] = [_scalar(w) for w in res.weights]
        out["scalings"] = list(res.scalings)
        out["residual"] = res.residual
    if res.margin is not None:
        out["margin"] = _scalar(res.margin)
    if res.farkas is not None:
        out["farkas"] = _matrix_json(res.farkas)
    if res.detail:
        out["detail"] = res.detail
    return out


def oracle_json(strict: OracleResult) -> dict:
    """Both answers of one solve_strict run: the nonneg block is its
    projection, with the same weights or the same certificate."""
    return {"nonneg": _answer_json(strict.nonneg()),
            "strict": _answer_json(strict)}


def _conclusion(battery: FilterBattery, strict: OracleResult | None,
                warnings: list):
    if strict is None:
        return {
            "verdict": battery.combined_verdict,
            "basis": "filters_only",
        }
    if strict.status == "numerically_ambiguous":
        return {"verdict": "numerically_ambiguous", "basis": "oracle"}
    if strict.status == "infeasible":
        return {"verdict": NOT_SCALABLE, "basis": "oracle+farkas"}
    # feasible from here on
    if battery.combined_verdict == NOT_SCALABLE:
        warnings.append(
            "internal inconsistency: a filter proved not_scalable but the "
            "oracle found weights"
        )
    if strict.status == "strictly_feasible":
        return {"verdict": "strictly_scalable", "basis": "oracle"}
    return {
        "verdict": "scalable",
        "basis": "oracle",
        "strict_status": strict.status,
    }


def analyze_frame(frame: Frame, config: AnalysisConfig | None = None,
                  source: str = "") -> dict:
    config = config or AnalysisConfig()
    tol_zero = 0.0 if frame.is_exact else config.tol_zero
    warnings = []
    if not is_frame(frame, config.tol):
        warnings.append("input does not span R^n (not a frame)")
    graph = build_graph(frame, tol_zero)
    stats = compute_stats(graph, config.vertex_cap)
    battery = run_all_filters(
        graph,
        frame.dim,
        frame=frame,
        config=FilterConfig(
            vertex_cap=config.vertex_cap,
            enable_experimental=config.enable_experimental,
        ),
        stats=stats,
    )
    warnings.extend(battery.warnings)

    strict = None
    if not config.filters_only:
        strict = solve_strict(build_lp(frame), config.tol)

    tightness = classify_tightness(frame, config.tol)
    conclusion = _conclusion(battery, strict, warnings)
    return {
        "report_version": REPORT_VERSION,
        "input": {
            "source": source,
            "m": frame.count,
            "n": frame.dim,
            "scalar_mode": frame.scalar_mode,
            "tol": config.tol,
            "tol_zero": tol_zero,
            "tightness": {
                "kind": tightness.kind,
                "bound": _scalar(tightness.bound)
                if tightness.bound is not None
                else None,
            },
        },
        "graph": {
            "edges": [[i + 1, j + 1] for (i, j) in graph.sorted_edges()],
            "stats": _stats_json(stats),
        },
        "filters": _battery_json(battery),
        "combined_filter_verdict": battery.combined_verdict,
        "oracle": {"skipped": True} if strict is None else oracle_json(strict),
        "conclusion": conclusion,
        "warnings": warnings,
    }


def analyze_graph(graph: FrameGraph, dim: int,
                  config: AnalysisConfig | None = None,
                  source: str = "") -> dict:
    """Filter battery on an abstract graph with a declared dimension; no
    vectors means no oracle."""
    config = config or AnalysisConfig()
    stats = compute_stats(graph, config.vertex_cap)
    battery = run_all_filters(
        graph,
        dim,
        config=FilterConfig(
            vertex_cap=config.vertex_cap,
            enable_experimental=config.enable_experimental,
        ),
        stats=stats,
    )
    warnings = list(battery.warnings)
    conclusion = _conclusion(battery, None, warnings)
    return {
        "report_version": REPORT_VERSION,
        "input": {
            "source": source,
            "m": graph.vertex_count,
            "n": dim,
            "scalar_mode": "graph_only",
            "tol_zero": config.tol_zero,
        },
        "graph": {
            "edges": [[i + 1, j + 1] for (i, j) in graph.sorted_edges()],
            "stats": _stats_json(stats),
        },
        "filters": _battery_json(battery),
        "combined_filter_verdict": battery.combined_verdict,
        "oracle": {"skipped": True},
        "conclusion": conclusion,
        "warnings": warnings,
    }


def stable_dumps(obj) -> str:
    """The byte-stable JSON text of a report.

    The format is that of ``json.dumps(obj, sort_keys=True, indent=2)``
    except for floats: keys sorted, a two-space indent, strings with ASCII
    escapes (``encode_basestring_ascii``), tuples written as lists, and
    floats written with ``format(x, ".17g")``, 17 significant digits (so
    ``nan``, ``inf`` and ``-0`` appear as such).  Keys must be strings.
    """
    return _text(obj, "\n")


_INT = {int}


def _text(o, nl: str) -> str:
    """The text of ``o``; ``nl`` is a newline followed by the indent of the
    line ``o`` starts on."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return format(o, ".17g")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        types = set(map(type, o))
        if types == _INT:
            items = map(int.__repr__, o)
        elif (types == {list} and len(set(map(len, o))) == 1
              and set(map(type, chain.from_iterable(o))) == _INT and o[0]):
            # rows of ints of one length, such as edge lists: one template
            deeper = inner + "  "
            row = ("," + deeper).join(["{}"] * len(o[0]))
            items = starmap(("[" + deeper + row + inner + "]").format, o)
        else:
            items = [_text(x, inner) for x in o]
        return "[" + inner + sep.join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _text(o[k], inner)
             for k in sorted(o)]) + nl + "}"
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable")
