"""Analysis orchestration and every JSON document the CLI prints.

Reports carry a version tag, echo the input and tolerances, and keep the
output deterministic: keys sorted, floats printed with 17 significant
digits, exact scalars printed as 'p/q' strings.  Vertex indices in reports
are 1-based (v1..vm).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from .exactnum import QuadExt, exact_str
from .filters import (
    NOT_SCALABLE,
    NOT_STRICTLY_SCALABLE,
    FilterBattery,
    run_all_filters,
)
from .frames import (
    DEFAULT_TOL,
    Frame,
    classify_tightness,
    is_frame,
    naimark_complement,
)
from .graphs import (
    DEFAULT_TOL_ZERO,
    FrameGraph,
    GraphStats,
    build_graph,
    compute_stats,
)
from .linalg import SymmetricMatrix
from .scaler import OracleResult, build_lp, solve_gram, solve_strict

REPORT_VERSION = 3


class AnalysisConfig(NamedTuple):
    tol: float = DEFAULT_TOL  # solver / Parseval tolerance
    tol_zero: float = DEFAULT_TOL_ZERO  # adjacency; not read in exact mode
    filters_only: bool = False


def _scalar(x):
    if isinstance(x, (Fraction, QuadExt)):
        return exact_str(x)
    return x  # float or int


def _matrix_json(s: SymmetricMatrix):
    return {
        "order": s.order,
        "rows": [[_scalar(x) for x in row] for row in s.rows()],
    }


class EdgeRows(tuple):
    """The edges of a graph as 1-based rows (i, j), i < j, in ascending
    order, read off the adjacency masks: digit k of the reversed binary
    string of ``masks[i - 1] >> i`` is vertex i + k + 1.

    Only a graph builds one, and a copy or a pickle of one is a plain
    tuple of the same rows, so the rows of an `EdgeRows` are a graph's
    edges by construction: `stable_dumps` writes them without looking at
    their types."""

    __slots__ = ()

    def __new__(cls, graph: FrameGraph):
        return super().__new__(cls, [
            (i, j) for i, mask in enumerate(graph.masks, 1)
            for j, bit in enumerate(bin(mask >> i)[:1:-1], i + 1)
            if bit == "1"])

    def __reduce__(self):
        return tuple, (tuple(self),)


def _stats_json(stats: GraphStats) -> dict:
    """The statistics as the record holds them, its vertex-valued fields
    made 1-based."""
    out = stats._asdict()
    for key in ("components", "bridges"):
        out[key] = [[v + 1 for v in c] for c in out[key]]
    for key in ("max_independent_set", "leaves", "induced_path_witness"):
        if out[key] is not None:
            out[key] = [v + 1 for v in out[key]]
    return out


def _battery_json(battery: FilterBattery) -> list:
    """Each filter's report as the record holds it, without its warnings,
    which the report lists on their own."""
    return [{k: x for k, x in r._asdict().items() if k != "warnings"}
            for r in battery.reports]


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
    """Both answers that one strict answer gives: the nonneg block is its
    projection, with the same weights or the same certificate.  The answer
    is rendered once; the nonneg block copies its top level, takes the
    projected status and drops the margin, and shares the rest."""
    answer = _answer_json(strict)
    nonneg = strict.nonneg()
    block = dict(answer, status=nonneg.status)
    if nonneg.margin is None:
        block.pop("margin", None)
    return {"nonneg": block, "strict": answer}


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
        if battery.combined_verdict == NOT_STRICTLY_SCALABLE:
            warnings.append(
                "internal inconsistency: a filter proved "
                "not_strictly_scalable but the oracle found positive weights"
            )
        return {"verdict": "strictly_scalable", "basis": "oracle"}
    return {
        "verdict": "scalable",
        "basis": "oracle",
        "strict_status": strict.status,
    }


def _frame_input(frame: Frame, source: str, tol: float) -> dict:
    """The input echo of a report on a frame."""
    return {"source": source, "m": frame.count, "n": frame.dim,
            "scalar_mode": frame.scalar_mode, "tol": tol}


def analyze_frame(frame: Frame, config: AnalysisConfig | None = None,
                  source: str = "") -> dict:
    config = config or AnalysisConfig()
    warnings = []
    if not is_frame(frame, config.tol):
        warnings.append("input does not span R^n (not a frame)")
    tightness = classify_tightness(frame, config.tol)
    inputs = dict(_frame_input(frame, source, config.tol),
                  tol_zero=0.0 if frame.is_exact else config.tol_zero,
                  tightness={"kind": tightness.kind,
                             "bound": _scalar(tightness.bound)})
    return _report(inputs, warnings, build_graph(frame, config.tol_zero),
                   config, frame)


def analyze_graph(graph: FrameGraph, dim: int,
                  config: AnalysisConfig | None = None,
                  source: str = "") -> dict:
    """Filter battery on an abstract graph with a declared dimension; no
    vectors means no oracle."""
    config = config or AnalysisConfig()
    inputs = {"source": source, "m": graph.vertex_count, "n": dim,
              "scalar_mode": "graph_only", "tol_zero": config.tol_zero}
    return _report(inputs, [], graph, config)


def _report(inputs: dict, warnings: list, graph: FrameGraph,
            config: AnalysisConfig, frame: Frame | None = None) -> dict:
    """The report on one graph, in dimension ``inputs["n"]``: its stats,
    the filter battery and, given a frame and not ``filters_only``, the
    oracle.  ``warnings`` holds those found before the graph's."""
    stats = compute_stats(graph)
    battery = run_all_filters(graph, inputs["n"], frame=frame, stats=stats)
    warnings.extend(battery.warnings)
    strict = None
    if frame is not None and not config.filters_only:
        strict = _oracle(frame, config.tol)
    conclusion = _conclusion(battery, strict, warnings)
    return {
        "report_version": REPORT_VERSION,
        "input": inputs,
        "graph": {"edges": EdgeRows(graph), "stats": _stats_json(stats)},
        "filters": _battery_json(battery),
        "combined_filter_verdict": battery.combined_verdict,
        "oracle": {"skipped": True} if strict is None else oracle_json(strict),
        "conclusion": conclusion,
        "warnings": warnings,
    }


def scale_report(frame: Frame, tol: float, source: str = "") -> dict:
    """The `scale` report: the input echo and both oracle answers."""
    return {
        "report_version": REPORT_VERSION,
        "input": _frame_input(frame, source, tol),
        **oracle_json(_oracle(frame, tol)),
    }


def _oracle(frame: Frame, tol: float) -> OracleResult:
    """The strict answer: the Gram solve's when it gives one, otherwise
    the tableau's."""
    return solve_gram(frame) or solve_strict(build_lp(frame), tol)


def graph_document(graph: FrameGraph) -> dict:
    """The `graph --format json` document: edges and vertex flags."""
    return {
        "vertex_count": graph.vertex_count,
        "edges": EdgeRows(graph),
        "flags": {f"v{v + 1}": graph.flags(v)
                  for v in range(graph.vertex_count)},
    }


def complement_document(frame: Frame, tol: float) -> dict:
    """The `complement` document: the Naimark complement as a frame file."""
    comp = naimark_complement(frame, tol)
    return {
        "dimension": comp.dim,
        "vectors": [[format(float(x), ".17g") for x in vec]
                    for vec in comp.vectors],
    }


def stable_dumps(obj) -> str:
    """The byte-stable JSON text of a report.

    The format is that of ``json.dumps(obj, sort_keys=True, indent=2)``
    except for floats: keys sorted, a two-space indent, strings with ASCII
    escapes (``encode_basestring_ascii``), tuples written as lists, and
    floats written with ``format(x, ".17g")``, 17 significant digits (so
    ``nan``, ``inf`` and ``-0`` appear as such).  Keys must be strings.
    A record (a NamedTuple, such as `OracleResult`) is not a list: it
    raises TypeError, as ``json.dumps`` does for other objects.  An
    `EdgeRows` is written as the same rows given as lists would be, one
    first vertex at a time.
    """
    return _text(obj, "\n")


def _float_text(x: float) -> str:
    return format(x, ".17g")


# the text of a leaf, by its exact type; subclasses take the isinstance
# chain of _text
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda o: "null",
}


def _text(o, nl: str) -> str:
    """The text of ``o``; ``nl`` is a newline followed by the indent of the
    line ``o`` starts on.  Containers write their leaf items inline, by
    type, and call this function only for the other items."""
    leaf = _LEAF.get(type(o))
    if leaf is not None:
        return leaf(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = []
        for k in sorted(o):
            v = o[k]
            leaf = _LEAF.get(type(v))
            items.append(encode_basestring_ascii(k) + ": "
                         + (leaf(v) if leaf is not None else _text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(o) is EdgeRows:
        # rows of two ints that only a graph builds: no per-row type checks
        return _edge_rows_text(o, nl)
    if isinstance(o, list) or (isinstance(o, tuple)
                               and not hasattr(o, "_fields")):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        types = set(map(type, o))
        leaf = _LEAF.get(next(iter(types))) if len(types) == 1 else None
        if leaf is not None:
            items = map(leaf, o)
        else:
            items = [leaf(x) if (leaf := _LEAF.get(type(x))) is not None
                     else _text(x, inner) for x in o]
        return "[" + inner + sep.join(items) + nl + "]"
    # subclasses of the leaf types
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable")


def _edge_rows_text(rows: EdgeRows, nl: str) -> str:
    """The text of ``rows``, as `_text` writes the same rows given as
    lists, read from the rows alone, one first vertex at a time.  The rows
    (i, j) of a vertex i are one join of the pieces NUL + j + the row's
    close, from a table indexed by j; one replace then puts the row's
    opening, up to i, in place of each NUL, which no other part of the
    text holds."""
    if not rows:
        return "[]"
    inner = nl + "  "
    deeper = inner + "  "
    sep = "," + inner
    close = inner + "]"
    second = itemgetter(1)
    piece = ["\0" + str(j) + close
             for j in range(max(map(second, rows)) + 1)].__getitem__
    return "[" + inner + sep.join([
        sep.join(map(piece, map(second, group))).replace(
            "\0", "[" + deeper + str(i) + "," + deeper)
        for i, group in groupby(rows, itemgetter(0))]) + nl + "]"
