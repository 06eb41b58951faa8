"""Replay every answer against its certificate, outside the timed window.

Exact weights and Farkas matrices are rebuilt from the report's ``"p/q"``
strings and handed to the package's exact verifiers: weights must give the
identity exactly (residual 0 and a Parseval frame operator) and a Farkas
matrix must pass ``verify_farkas(..., tol=0)``.  Float answers are checked
at the run's tolerance.  The graph part of each report is recomputed from
the benchmark's own copy of the input, and each workload's ground truth
(when it has one) is enforced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from framescale.frames import Frame
from framescale.linalg import SymmetricMatrix
from framescale.scaler import verify_farkas, verify_weights

VERTEX_CAP = 32  # the CLI's vertex cap for the exponential graph searches
VERDICTS = ("strictly_scalable", "scalable", "not_scalable",
            "not_strictly_scalable", "inconclusive", "numerically_ambiguous")


@dataclass
class CheckStats:
    """Benchmark-side totals over every checked report."""

    verify_weights_s: float = 0.0
    verify_farkas_s: float = 0.0
    cert_bits_max: int = 0
    cap_exceeded: int = 0
    batteries: int = 0
    decided: int = 0
    report_bytes: int = 0
    verdicts: dict = field(default_factory=lambda: dict.fromkeys(VERDICTS, 0))


class Problem(Exception):
    """The report is wrong or does not replay."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Problem(what)


def _scalar(x, exact: bool):
    if exact:
        _require(isinstance(x, str), f"exact entry {x!r} is not a string")
        return Fraction(x)
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             f"float entry {x!r} is not a number")
    return float(x)


def _bits(values, stats: CheckStats) -> None:
    for v in values:
        stats.cert_bits_max = max(stats.cert_bits_max,
                                  v.numerator.bit_length(),
                                  v.denominator.bit_length())


def _weights(block, frame: Frame, exact: bool, tol: float,
             stats: CheckStats) -> list:
    w = [_scalar(x, exact) for x in block["weights"]]
    _require(len(w) == frame.count, "weight count differs from m")
    t = time.perf_counter()
    rep = verify_weights(frame, w, tol)
    stats.verify_weights_s += time.perf_counter() - t
    if exact:
        _bits(w, stats)
        _require(all(x >= 0 for x in w), "negative exact weight")
        _require(rep.residual == 0 and rep.tightness.kind == "parseval",
                 "exact weights do not give the identity")
    else:
        _require(all(x >= -tol for x in w), "negative float weight")
        _require(rep.residual <= 10 * tol, f"weight residual {rep.residual}")
    return w


def _farkas(block, frame: Frame, exact: bool, tol: float,
            stats: CheckStats) -> None:
    rows = [[_scalar(x, exact) for x in row] for row in block["farkas"]["rows"]]
    _require(len(rows) == frame.dim, "Farkas order differs from n")
    y = SymmetricMatrix.from_rows(rows)
    t = time.perf_counter()
    ok = verify_farkas(frame, y, 0 if exact else tol)
    stats.verify_farkas_s += time.perf_counter() - t
    if exact:
        _bits((x for row in rows for x in row), stats)
    _require(ok, "Farkas certificate does not verify")


def _oracle(oracle, frame: Frame, exact: bool, tol: float,
            stats: CheckStats) -> str:
    """Replay both oracle answers; return the verdict they imply."""
    nonneg, strict = oracle["nonneg"], oracle["strict"]
    if "numerically_ambiguous" in (nonneg["status"], strict["status"]):
        _require(not exact, "exact oracle answered numerically_ambiguous")
        return "numerically_ambiguous"
    if nonneg["status"] == "infeasible":
        _farkas(nonneg, frame, exact, tol, stats)
        _require(strict["status"] == "infeasible",
                 "strict LP feasible although the nonneg LP is not")
        _farkas(strict, frame, exact, tol, stats)
        return "not_scalable"
    _require(nonneg["status"] == "feasible", f"nonneg {nonneg['status']!r}")
    _weights(nonneg, frame, exact, tol, stats)
    _require(strict["status"] in ("strictly_feasible", "boundary"),
             f"strict status {strict['status']!r} on a scalable frame")
    w = _weights(strict, frame, exact, tol, stats)
    margin = _scalar(strict["margin"], exact)
    _require(margin == min(w), "margin is not the smallest weight")
    if strict["status"] == "strictly_feasible":
        _require(margin > (0 if exact else tol), "strict margin not positive")
        return "strictly_scalable"
    _require(margin == 0 if exact else margin <= tol, "boundary margin > 0")
    return "scalable"


def _edges(vectors, exact: bool, tol_zero: float) -> list:
    out = []
    for i, u in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            ip = sum(a * b for a, b in zip(u, vectors[j]))
            if (ip != 0) if exact else abs(ip) > tol_zero:
                out.append([i + 1, j + 1])
    return out


def _graph_stats(gstats, adjacency) -> None:
    """Replay the exact search witnesses against the input graph."""
    m = len(adjacency)
    _require(gstats["cap_exceeded"] == (m > VERTEX_CAP), "cap_exceeded flag")
    if gstats["cap_exceeded"]:
        return
    mis = [v - 1 for v in gstats["max_independent_set"]]
    _require(len(mis) == gstats["alpha"] == len(set(mis)), "alpha witness size")
    _require(all(not adjacency[a][b] for a in mis for b in mis),
             "independent set has an edge")
    path = [v - 1 for v in gstats["induced_path_witness"]]
    _require(len(path) == gstats["induced_path_vertices"] == len(set(path)),
             "induced path witness size")
    for a in range(len(path)):
        for b in range(a + 1, len(path)):
            _require(bool(adjacency[path[a]][path[b]]) == (b == a + 1),
                     "induced path witness is not an induced path")


def check_report(report: dict, case, stats: CheckStats) -> None:
    """Raise Problem unless the report for ``case`` is right.

    ``case`` carries the benchmark's own copy of the input: ``frame`` (a
    framescale Frame, or None for graph-only input), ``vectors``,
    ``adjacency`` (graph-only input), ``exact``, ``tol``, ``expect`` (the
    set of verdicts ground truth allows, or None) and ``tightness`` (the
    known tightness kind, or None).
    """
    warnings = report["warnings"]
    _require(not any("internal inconsistency" in w for w in warnings),
             "internal inconsistency warning")
    battery = report["combined_filter_verdict"]
    stats.batteries += 1
    stats.decided += battery != "inconclusive"
    gstats = report["graph"]["stats"]
    stats.cap_exceeded += bool(gstats["cap_exceeded"])

    if case.frame is None:
        m = len(case.adjacency)
        want = [[i + 1, j + 1] for i in range(m) for j in range(i + 1, m)
                if case.adjacency[i][j]]
        _require(report["graph"]["edges"] == want, "graph edges differ")
        _graph_stats(gstats, case.adjacency)
    else:
        frame = case.frame
        _require((report["input"]["m"], report["input"]["n"])
                 == (frame.count, frame.dim), "m, n differ from the input")
        _require(not any("does not span" in w for w in warnings),
                 "spanning input reported as not a frame")
        if case.tightness is not None:
            kind = report["input"]["tightness"]["kind"]
            _require(kind == case.tightness, f"tightness {kind!r}")
        want = _edges(case.vectors, case.exact, report["input"]["tol_zero"])
        _require(report["graph"]["edges"] == want, "graph edges differ")

    verdict = report["conclusion"]["verdict"]
    if report["oracle"].get("skipped"):
        _require(verdict == battery, "filters-only verdict differs from battery")
    else:
        implied = _oracle(report["oracle"], case.frame, case.exact, case.tol,
                          stats)
        _require(verdict == implied, f"verdict {verdict!r}, oracle {implied!r}")
        # A filter may only prove what the oracle confirms.
        if implied == "strictly_scalable":
            _require(battery == "inconclusive", f"filters said {battery!r}")
        if implied == "scalable":
            _require(battery != "not_scalable", "filters said not_scalable")
    if case.expect is not None:
        _require(verdict in case.expect,
                 f"verdict {verdict!r}, ground truth {sorted(case.expect)}")
    stats.verdicts[verdict] = stats.verdicts.get(verdict, 0) + 1
