"""Exact decision oracle for frame scalability.

Scalability is nonnegative linear feasibility in the squared weights
w_i = a_i^2: stacking the upper triangle of sum_i w_i f_i f_i^t = I gives an
equality system A w = b.  Strict scalability maximizes the floor t with
w_i >= t.  One dense two-phase simplex with Bland's rule answers both
questions: phase 1 decides feasibility, phase 2 maximizes the floor.
Infeasibility is returned as a Farkas certificate reassembled into a
symmetric matrix Y with <f_i, Y f_i> <= 0 for all i and trace(Y) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .exactnum import QuadExt, sign, to_fast_rational
from .frames import Frame, SymmetricMatrix, Tightness, classify_operator

FEASIBILITY_TOL = 1e-8
PIVOT_TOL = 1e-10
PIVOT_CAP_FACTOR = 50  # pivots per tableau row plus column


class SolverError(RuntimeError):
    """Numerical breakdown inside the simplex (not a verdict)."""


@dataclass(frozen=True)
class ScaleLP:
    """Equality system A w = b over nonnegative w, rows indexed by the upper
    triangle (p, q) of the target identity."""

    n: int
    m: int
    row_index: tuple  # tuple of (p, q), p <= q, lexicographic
    matrix: tuple  # rows, each a tuple of m entries f_i[p] * f_i[q]
    rhs: tuple  # 1 on diagonal rows, 0 elsewhere
    exact: bool


def build_lp(frame: Frame) -> ScaleLP:
    n, m = frame.dim, frame.count
    rows = []
    rhs = []
    index = []
    one = Fraction(1) if frame.is_exact else 1.0
    zero = one * 0
    for p in range(n):
        for q in range(p, n):
            index.append((p, q))
            rows.append(tuple(v[p] * v[q] for v in frame.vectors))
            rhs.append(one if p == q else zero)
    return ScaleLP(n, m, tuple(index), tuple(rows), tuple(rhs), frame.is_exact)


@dataclass(frozen=True)
class OracleResult:
    # solve_strict: "strictly_feasible" | "boundary" | "infeasible" |
    # "numerically_ambiguous"; nonneg() maps the first two to "feasible"
    status: str
    weights: tuple | None = None  # w_i = a_i^2
    scalings: tuple | None = None  # a_i = sqrt(w_i), floats
    residual: float | None = None
    farkas: SymmetricMatrix | None = None
    detail: str = ""
    margin: object = None  # optimal floor t* = min w_i (strict answers only)

    def nonneg(self) -> "OracleResult":
        """The answer to {Aw = b, w >= 0} that this strict answer implies:
        the same weights or the same certificate."""
        if self.status in ("strictly_feasible", "boundary"):
            return replace(self, status="feasible", margin=None)
        return self


class _Tableau:
    """Dense simplex tableau with Bland's rule; scalar-generic.

    zero_tol = 0 gives exact pivoting (Fraction / QuadExt entries);
    a positive zero_tol gives tolerant float pivoting.  Exact Bland pivoting
    cannot cycle; the pivot cap stops a float run that drift sends round in
    circles.
    """

    def __init__(self, rows, rhs, zero_tol):
        self.t = [list(r) + [b] for r, b in zip(rows, rhs)]
        self.ncols = len(rows[0]) if rows else 0
        self.basis = []
        self.zero_tol = zero_tol
        self.pivots_left = PIVOT_CAP_FACTOR * (len(self.t) + self.ncols)

    def _nonzero(self, x) -> bool:
        if self.zero_tol == 0:
            return sign(x) != 0
        return abs(x) > self.zero_tol

    def pivot(self, row: int, col: int):
        t = self.t
        piv = t[row][col]
        inv = 1 / piv if self.zero_tol == 0 else 1.0 / piv
        t[row] = [x * inv for x in t[row]]
        for i in range(len(t)):
            if i == row:
                continue
            factor = t[i][col]
            if self._nonzero(factor):
                t[i] = [a - factor * b for a, b in zip(t[i], t[row])]
        self.basis[row] = col

    def reduced_costs(self, cost):
        """cost has one entry per column (rhs excluded)."""
        r = list(cost)
        obj = cost[0] * 0
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if self._nonzero(cb):
                row = self.t[i]
                r = [a - cb * b for a, b in zip(r, row[:-1])]
                obj = obj + cb * row[-1]
        return r, obj

    def bland_step(self, reduced, allowed_cols) -> bool:
        """One Bland pivot; returns False at optimality.  Raises on an
        unbounded direction."""
        enter = None
        thresh = -self.zero_tol if self.zero_tol else 0
        basic = set(self.basis)
        for j in allowed_cols:
            if j in basic:  # float drift can leave a basic column at -eps
                continue
            below = (sign(reduced[j]) < 0) if self.zero_tol == 0 \
                else (reduced[j] < thresh)
            if below:
                enter = j
                break
        if enter is None:
            return False
        leave = None
        best_ratio = None
        for i, row in enumerate(self.t):
            a = row[enter]
            if not (sign(a) > 0 if self.zero_tol == 0 else a > PIVOT_TOL):
                continue
            ratio = row[-1] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and self.basis[i] < self.basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave is None:
            raise SolverError("unbounded direction in simplex")
        if self.pivots_left == 0:
            raise SolverError("simplex pivot cap reached")
        self.pivots_left -= 1
        self.pivot(leave, enter)
        return True

    def solution(self, nvars: int):
        zero = self.t[0][0] * 0 if self.t else 0
        x = [zero] * nvars
        for i, bi in enumerate(self.basis):
            if bi < nvars:
                x[bi] = self.t[i][-1]
        return x


def _phase1(rows, rhs, exact: bool, tol: float):
    """Phase-1 simplex on {Ax = b, x >= 0}.

    Returns (None, y) when the artificial optimum exceeds tol (0 in exact
    mode): y are row multipliers with y^t A <= 0 < y^t b, a Farkas
    certificate.  Otherwise returns (tableau, None) with the artificials
    driven out and redundant rows deleted, ready for phase 2 over the
    original columns.
    """
    s = len(rows)
    k = len(rows[0])
    zero_tol = 0 if exact else PIVOT_TOL

    flips = []
    frows, frhs = [], []
    for r, b in zip(rows, rhs):
        neg = (sign(b) < 0) if exact else (b < 0)
        flips.append(-1 if neg else 1)
        if neg:
            frows.append([-x for x in r])
            frhs.append(-b)
        else:
            frows.append(list(r))
            frhs.append(b)

    one = frhs[0] * 0 + 1
    zero = one * 0
    aug = [
        row + [one if i == j else zero for j in range(s)]
        for i, row in enumerate(frows)
    ]
    tab = _Tableau(aug, frhs, zero_tol)
    tab.basis = [k + i for i in range(s)]

    cost = [zero] * k + [one] * s
    allowed = list(range(k + s))
    while True:
        reduced, _ = tab.reduced_costs(cost)
        if not tab.bland_step(reduced, allowed):
            break

    x_all = tab.solution(k + s)
    opt = zero
    for j in range(k, k + s):
        opt = opt + x_all[j]

    if (sign(opt) > 0) if exact else (opt > tol):
        return None, [flips[i] * (one - reduced[k + i]) for i in range(s)]

    # drive artificial variables out of the basis
    for i in range(len(tab.basis) - 1, -1, -1):
        if tab.basis[i] < k:
            continue
        col = next(
            (j for j in range(k) if tab._nonzero(tab.t[i][j])), None
        )
        if col is not None:
            tab.pivot(i, col)
        else:
            del tab.t[i]
            del tab.basis[i]
    for row in tab.t:
        del row[k:-1]
    tab.ncols = k
    return tab, None


def _farkas_matrix(lp: ScaleLP, y) -> SymmetricMatrix:
    """Row multipliers -> symmetric Y with <f_i, Y f_i> = (y^t A)_i and
    trace(Y) = y^t b, normalized to trace 1."""
    total = y[0] * 0
    for (p, q), yv in zip(lp.row_index, y):
        if p == q:
            total = total + yv
    if (sign(total) <= 0) if lp.exact else (float(total) <= 0):
        raise SolverError("degenerate Farkas multipliers (trace <= 0)")
    entries = {}
    for (p, q), yv in zip(lp.row_index, y):
        entries[(p, q)] = yv / total if p == q else yv / (2 * total)
    zero = total * 0
    return SymmetricMatrix.from_function(
        lp.n, lambda i, j: entries.get((min(i, j), max(i, j)), zero)
    )


def _prepare(lp: ScaleLP):
    if lp.exact:
        quad = any(
            isinstance(x, QuadExt) for r in lp.matrix for x in r
        )
        # gmpy2 rationals cannot mix with quadratic-field entries
        conv = (lambda x: Fraction(x) if isinstance(x, int) else x) if quad \
            else to_fast_rational
        rows = [[conv(x) for x in r] for r in lp.matrix]
        rhs = [conv(b) for b in lp.rhs]
    else:
        rows = [[float(x) for x in r] for r in lp.matrix]
        rhs = [float(b) for b in lp.rhs]
    return rows, rhs


def _residual(lp: ScaleLP, w) -> float:
    worst = 0.0
    for row, b in zip(lp.matrix, lp.rhs):
        acc = sum(float(a) * float(x) for a, x in zip(row, w))
        worst = max(worst, abs(acc - float(b)))
    return worst


def _as_weights(values, exact: bool, tol: float):
    out = []
    for v in values:
        if not exact and -tol < v < 0:
            v = 0.0
        out.append(v)
    return tuple(out)


def _scalings(weights):
    return tuple(math.sqrt(max(float(w), 0.0)) for w in weights)


def solve_strict(lp: ScaleLP, tol: float = FEASIBILITY_TOL) -> OracleResult:
    """Maximize the floor t over {Aw = b, w_i >= t >= 0}.

    Substituting w = t*1 + u (u >= 0) keeps the system in standard form.  It
    is feasible exactly when {Aw = b, w >= 0} is, so this one run answers
    both questions: phase 1 gives the Farkas certificate, or phase 2 gives
    the max-floor weights and the margin t*.
    """
    rows, rhs = _prepare(lp)
    ext_rows = [[sum(r, r[0] * 0)] + list(r) for r in rows]
    tab, y = _phase1(ext_rows, rhs, lp.exact, tol)

    if tab is None:
        farkas = _farkas_matrix(lp, y)
        if not lp.exact and not verify_farkas_frame_free(lp, farkas, tol):
            return OracleResult(
                "numerically_ambiguous",
                detail="phase-1 positive but the dual certificate does not "
                       "verify at this tolerance",
            )
        return OracleResult("infeasible", farkas=farkas)

    k = tab.ncols
    one = rhs[0] * 0 + 1
    zero = one * 0
    cost = [-one] + [zero] * lp.m  # maximize t
    while True:
        reduced, _ = tab.reduced_costs(cost)
        if not tab.bland_step(reduced, range(k)):
            break
    x = tab.solution(k)
    t_star = x[0]
    w = _as_weights((t_star + u for u in x[1:]), lp.exact, tol)
    residual = _residual(lp, w)
    if not lp.exact and residual > 10 * tol:
        return OracleResult(
            "numerically_ambiguous",
            detail=f"feasible basis but weight residual {residual:.3e}",
        )
    strict = (sign(t_star) > 0) if lp.exact else (float(t_star) > tol)
    return OracleResult(
        "strictly_feasible" if strict else "boundary",
        weights=w, scalings=_scalings(w), residual=residual, margin=min(w),
    )


def solve_scalable(lp: ScaleLP, tol: float = FEASIBILITY_TOL) -> OracleResult:
    """Decide {Aw = b, w >= 0}: the nonneg projection of solve_strict, so
    feasible weights are the max-floor weights."""
    return solve_strict(lp, tol).nonneg()


@dataclass(frozen=True)
class WeightReport:
    residual: float
    tightness: Tightness


def verify_weights(frame: Frame, weights, tol: float = FEASIBILITY_TOL) -> WeightReport:
    """Independent recheck: rebuild sum_i w_i f_i f_i^t and compare to I."""
    weights = list(weights)
    if len(weights) != frame.count:
        raise ValueError("weight count mismatch")
    exact = frame.is_exact and all(
        not isinstance(w, float) for w in weights
    )
    zero = Fraction(0) if exact else 0.0

    def entry(p, q):
        total = zero
        for w, v in zip(weights, frame.vectors):
            total = total + w * (v[p] * v[q])
        return total

    s = SymmetricMatrix.from_function(frame.dim, entry)
    residual = max(
        abs(float(s.entry(i, j)) - (1.0 if i == j else 0.0))
        for i in range(frame.dim)
        for j in range(i, frame.dim)
    )
    return WeightReport(residual, classify_operator(s, tol))


def verify_farkas(frame: Frame, y: SymmetricMatrix,
                  tol: float = FEASIBILITY_TOL) -> bool:
    """True iff <f_i, y f_i> <= tol for all i and trace(y) >= 1 - tol."""
    if y.order != frame.dim:
        raise ValueError("certificate order must equal the frame dimension")
    exact = frame.is_exact and y.is_exact()
    for v in frame.vectors:
        if exact:
            quad = sum(
                v[p] * y.entry(p, q) * v[q]
                for p in range(frame.dim)
                for q in range(frame.dim)
            )
            violated = sign(quad) > 0 if tol == 0 else float(quad) > tol
            if violated:
                return False
        else:
            quad = sum(
                float(v[p]) * float(y.entry(p, q)) * float(v[q])
                for p in range(frame.dim)
                for q in range(frame.dim)
            )
            if quad > tol:
                return False
    if exact and tol == 0:
        return sign(y.trace() - 1) >= 0
    return float(y.trace()) >= 1.0 - tol


def verify_farkas_frame_free(lp: ScaleLP, y: SymmetricMatrix,
                             tol: float) -> bool:
    """Farkas check straight from the LP data (float sanity gate)."""
    for i in range(lp.m):
        quad = 0.0
        for (p, q), row in zip(lp.row_index, lp.matrix):
            coeff = 1.0 if p == q else 2.0
            quad += coeff * float(y.entry(p, q)) * float(row[i])
        if quad > tol:
            return False
    return float(y.trace()) >= 1.0 - tol
