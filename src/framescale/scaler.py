"""Exact decision oracle for frame scalability.

Scalability is nonnegative linear feasibility in the squared weights
w_i = a_i^2: stacking the upper triangle of sum_i w_i f_i f_i^t = I gives an
equality system A w = b.  Strict scalability maximizes the floor t with
w_i >= t.  One two-phase simplex with Bland's rule, on a tableau that
stores only the nonbasic columns, answers both questions: phase 1 decides
feasibility, phase 2 maximizes the floor.  Both phases set their objective
row by the one cost rule of `_Tableau.set_objective`, and a feasible
answer, from the tableau or from the Gram solve below, is assembled by
one constructor.
Infeasibility is returned as a Farkas certificate reassembled into a
symmetric matrix Y with <f_i, Y f_i> <= 0 for all i and trace(Y) = 1.

Exact LPs are solved by fraction-free integer pivoting.  The LP rows are
the frame's product table `Frame.outer_products` (see `frames`): on a
rational frame the integer products u_i[p] * u_i[q] of its integer image
u_i = L * f_i, that is L^2 * [A | b]; one factor for all of
[A | b] leaves Bland's pivot path, the weights and the normalized
certificate as they are.  The tableau then holds lists of Python ints
over one common denominator D, so no pivot builds a Fraction or takes a
gcd.  Weights and certificates become Fractions only when they are read
out.
LPs over Q(sqrt d) take the same pivots with exact field division; float
LPs use normalized pivots with a zero tolerance.

The report asks `solve_gram` first, on rational frames.  The trace inner
product of sum_i w_i f_i f_i^t = I with f_j f_j^t is H w = d, H = G o G
(entrywise square of the Gram matrix G) and d = diag G.  H is the Gram
matrix of the f_i f_i^t, so when it is nonsingular at most one w exists.
On the integer Gram matrix (`Frame.exact_gram`) the system reads
H' w = b with H' = L^4 H and b = L^2 diag G' = L^4 d.  H' is positive
semidefinite, so `linalg.eliminate` takes [H' | b] fraction-free without
row exchanges, and a zero pivot means that H is singular and the tableau
has to answer.  Back substitution divides exactly (Cramer's rule) and
gives N = det(H') w.  The residual
R = I - sum_i w_i f_i f_i^t is orthogonal to every f_i f_i^t, hence to
I - R, so <f_i, R f_i> = 0 and tr R = |R|_F^2.  When R != 0 the frame is
not scalable and Y = R / tr R, the least-norm trace-one matrix with every
<f_i, Y f_i> = 0, is the certificate; it is formed from
det(H') L^2 I - sum_i N_i u_i u_i^t, one sum over the N_i per row of the
product table, and its trace.  When R = 0 and N >= 0 the weights are the
only ones, so the answer is the tableau's to the last bit.  The tableau
answers otherwise: no integer image, m > n(n+1)/2 (H singular; tested
before eliminating), a zero pivot, or a negative unique weight, whose
certificate needs a second solve.

The oracle checks its own answers with `verify_weights` (the residual it
reports, read off the frame's product table) and
`verify_farkas` (the gate on float certificates).  `verify_weights` lives
in `frames`, where at unit weights it is the tightness test, and is
re-exported here with `WeightReport`.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from operator import itemgetter, mul
from typing import NamedTuple

from .exactnum import QuadExt, magnitude, sign
from .frames import (  # verify_weights and WeightReport: re-exported
    DEFAULT_TOL,
    Frame,
    SymmetricMatrix,
    WeightReport,
    verify_weights,
)
from .linalg import bareiss_step, eliminate, ordered_sum

PIVOT_TOL = 1e-10
PIVOT_CAP_FACTOR = 50  # pivots per tableau row plus column


class SolverError(RuntimeError):
    """Numerical breakdown inside the simplex (not a verdict)."""


class ScaleLP(NamedTuple):
    """Equality system A w = b over nonnegative w, rows indexed by the upper
    triangle (p, q) of the target identity.

    The simplex reads c * [A | b], stored as `scaled_matrix` and
    `scaled_rhs`: for a rational frame c = L^2 and the entries are ints;
    otherwise c = 1.  The answers are checked against `frame` itself."""

    frame: Frame
    row_index: tuple  # tuple of (p, q), p <= q, lexicographic
    scaled_matrix: tuple  # the frame's product table `Frame.outer_products`
    scaled_rhs: tuple  # c on diagonal rows, 0 elsewhere


def build_lp(frame: Frame) -> ScaleLP:
    n = frame.dim
    image = frame.integer_image
    if image is None:
        one = Fraction(1) if frame.is_exact else 1.0
    else:
        one = image.scale ** 2
    index = tuple((p, q) for p in range(n) for q in range(p, n))
    return ScaleLP(frame, index, frame.outer_products,
                   tuple(one if p == q else one * 0 for p, q in index))


class OracleResult(NamedTuple):
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
            return self._replace(status="feasible", margin=None)
        return self


class _Tableau:
    """Condensed simplex tableau over [A | b] with Bland's rule (Avis, lrs,
    2000): row i belongs to basic column basis[i], slot s of every row holds
    nonbasic column cols[s], and the rhs comes last.  Basic columns are not
    stored.  Every row, objective row included, is a list.

    Exact mode is fraction-free (Bareiss 1968, Edmonds 1967).  The rows are
    T = D * B^-1 [A | b] for the basis B and one common denominator D > 0,
    so basic column basis[i] is D * e_i.  A pivot on p = T[r][c] sets, for
    every row i != r, objective row included,

        T_i <- (p * T_i - T_i[c] * T_r) / D,    then D <- p,

    and the leaving column moves into slot c: the old D in row r and
    -T_i[c] in row i.  A negative pivot (driving artificials out) first
    negates row r, which keeps D > 0 and flips both signs.  The update is
    `linalg.bareiss_step`, with slot c of row r set so that the step itself
    leaves the leaving column in the other rows.  By Cramer's rule every
    entry is a minor of the integer input, so each division is exact:
    integer LPs stay on Python ints (floor division, no gcd), and Q(sqrt d)
    LPs take the same steps with the field's exact `/`.  Since D > 0 scales
    every row alike, Bland's rule picks the same pivots as on B^-1 [A | b].

    Float mode keeps D = 1 and divides row r by p, so the leaving column is
    1/p in row r and -T_i[c] / p in row i; entries within PIVOT_TOL of zero
    count as zero.

    The objective row holds D times the reduced costs and is updated by
    every pivot.  Exact Bland pivoting cannot cycle; the pivot cap stops a
    float run that drift sends round in circles.
    """

    def __init__(self, rows, cols, basis, exact: bool, cost):
        self.cols = cols  # original column of each slot
        self.basis = basis
        self.exact = exact
        self.zero_tol = 0 if exact else PIVOT_TOL
        self.d = rows[0][-1] * 0 + 1
        # rows plus all columns, basic ones included
        self.pivots_left = PIVOT_CAP_FACTOR * (2 * len(rows) + len(cols))
        self.t = rows
        self.set_objective(cost)

    def set_objective(self, cost):
        """Objective row D*c - sum_i c_B(i) T_i for costs c, one per original
        column; its rhs entry is not read."""
        obj = [self.d * cost[j] for j in self.cols] + [self.d * 0]
        for row, j in zip(self.t, self.basis):
            cb = cost[j]
            if cb:
                obj = [a - cb * b for a, b in zip(obj, row)]
        self.obj = obj

    def pivot(self, row: int, slot: int):
        t, c, d = self.t, slot, self.d
        piv = t[row][c]
        if self.exact:
            g = -1  # leaving column: -g * D in row r, g * T_i[c] in row i
            if piv < 0:
                t[row] = [-x for x in t[row]]
                piv, g = -piv, 1
            prow = t[row]
            # the step then leaves (piv * f - f * (piv - g * D)) / D = g * f
            # in slot c of a row with T_i[c] = f
            prow[c] = piv - g * d
            rest = t[:row] + t[row + 1:]
            if self.obj is not None:
                rest.append(self.obj)
            rest = bareiss_step(piv, d, prow, rest, [r[c] for r in rest])
            if self.obj is not None:
                self.obj = rest.pop()
            t[:] = rest[:row] + [prow] + rest[row:]
            leave, self.d = -g * d, piv
        else:
            leave = 1.0 / piv
            prow = t[row] = [x * leave for x in t[row]]

            def update(r):
                f = r[c]
                if abs(f) <= PIVOT_TOL:
                    r[c] = 0.0
                    return r
                r = [a - f * b for a, b in zip(r, prow)]
                r[c] = -f * leave
                return r

            t[:] = [r if i == row else update(r) for i, r in enumerate(t)]
            if self.obj is not None:
                self.obj = update(self.obj)
        prow[c] = leave
        self.basis[row], self.cols[c] = self.cols[c], self.basis[row]

    def bland_step(self) -> bool:
        """One Bland pivot on the objective row; returns False at
        optimality.  Raises on an unbounded direction."""
        obj, tol = self.obj, self.zero_tol
        # zip stops before the rhs entry
        candidates = [j for j, x in zip(self.cols, obj) if x < -tol]
        if not candidates:
            return False
        enter = self.cols.index(min(candidates))
        # min ratio T_i[-1] / T_i[enter] over T_i[enter] > 0, smallest basic
        # index on ties; exact ratios are compared by cross-multiplying
        t, basis, exact = self.t, self.basis, self.exact
        leave = None
        for i, a in enumerate(map(itemgetter(enter), t)):
            if a > tol:
                num, den = (t[i][-1], a) if exact else (t[i][-1] / a, 1.0)
                if leave is not None:
                    lhs, rhs = num * best_den, best_num * den
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_num, best_den = i, num, den
        if leave is None:
            raise SolverError("unbounded direction in simplex")
        if self.pivots_left == 0:
            raise SolverError("simplex pivot cap reached")
        self.pivots_left -= 1
        self.pivot(leave, enter)
        return True

    def drive_out(self, k: int):
        """Drive the basic columns k and above (the artificials) out of the
        basis, each on the lowest real column with a nonzero entry in its
        row, or delete its row when there is none (a redundant equation);
        then drop the slots of the columns k and above."""
        self.obj = None
        cols = self.cols
        for i in range(len(self.basis) - 1, -1, -1):
            if self.basis[i] < k:
                continue
            row = self.t[i]
            slot = min((c for c, j in enumerate(cols)
                        if j < k and abs(row[c]) > self.zero_tol),
                       key=cols.__getitem__, default=None)
            if slot is None:
                del self.t[i], self.basis[i]
            else:
                self.pivot(i, slot)
        keep = [c for c, j in enumerate(cols) if j < k]
        self.cols = [cols[c] for c in keep]
        self.t = [[r[c] for c in keep] + [r[-1]] for r in self.t]

    def solution(self, nvars: int):
        """Values T_i[-1] / D of the first nvars variables."""
        x = [_quotient(self.d * 0, self.d)] * nvars
        for row, j in zip(self.t, self.basis):
            if j < nvars:
                x[j] = _quotient(row[-1], self.d)
        return x


def _quotient(x, d):
    """x / d, as a Fraction when both are ints."""
    return Fraction(x, d) if isinstance(x, int) else x / d


def _phase1(rows, rhs, exact: bool, tol: float):
    """Phase-1 simplex on {Ax = b, x >= 0} for b >= 0 (the rhs of a ScaleLP
    is c * delta_pq), so that the artificial k + i starts basic in row i
    with no row negated.  Returns (None, y) when the artificial optimum
    exceeds tol (0 in exact mode): y are row multipliers with
    y^t A <= 0 < y^t b, a Farkas certificate, up to a positive factor.
    Otherwise returns (tableau, None) with the artificials driven out and
    dropped and redundant rows deleted, ready for phase 2 over the real
    columns.
    """
    s, k = len(rows), len(rows[0])
    tab = _Tableau([r + [b] for r, b in zip(rows, rhs)],
                   list(range(k)), [k + i for i in range(s)], exact,
                   [0] * k + [1] * s)
    while tab.bland_step():
        pass

    add = sum if exact else ordered_sum
    opt = add(row[-1] for row, j in zip(tab.t, tab.basis) if j >= k)
    if opt > (0 if exact else tol):
        # y_i = D - obj[k+i]: D times (1 - reduced cost of artificial i),
        # whose reduced cost is 0 while it is basic
        obj = dict(zip(tab.cols, tab.obj))
        return None, [tab.d - obj.get(k + i, 0) for i in range(s)]
    tab.drive_out(k)
    return tab, None


def _farkas_matrix(lp: ScaleLP, y) -> SymmetricMatrix:
    """Row multipliers -> symmetric Y with <f_i, Y f_i> = (y^t A)_i and
    trace(Y) = y^t b, normalized to trace 1."""
    total = y[0] * 0
    for (p, q), yv in zip(lp.row_index, y):
        if p == q:
            total = total + yv
    if (sign(total) <= 0) if lp.frame.is_exact else (float(total) <= 0):
        raise SolverError("degenerate Farkas multipliers (trace <= 0)")
    # row_index runs over the upper triangle in SymmetricMatrix's order
    return SymmetricMatrix(lp.frame.dim, [
        _quotient(yv, total if p == q else 2 * total)
        for (p, q), yv in zip(lp.row_index, y)])


def _scaling(w) -> float:
    """sqrt(w) as a float, within 1 ulp.  A positive exact weight whose
    float overflows or is not normal is not rounded first: the integer
    square root of floor(w * 4^s), of 55 bits or more, is scaled back by
    2^-s.  So is every irrational weight a + b*sqrt(d), whose root then
    comes from one rounding of exact arithmetic.  A positive weight whose
    root is not a normal float is a SolverError, so no positive weight is
    reported with scaling 0 or infinity."""
    if isinstance(w, QuadExt) and w.b != 0:  # irrational: no float(w)
        if w < 0:
            return 0.0
    else:
        with contextlib.suppress(OverflowError):
            x = float(w)
            if (x >= sys.float_info.min or w <= 0
                    or not isinstance(w, (Fraction, QuadExt))):
                return math.sqrt(max(x, 0.0))
    p = magnitude(w)
    s = (113 - p.numerator.bit_length() + p.denominator.bit_length()) // 2
    with contextlib.suppress(OverflowError):
        x = math.ldexp(math.isqrt(math.floor(w * Fraction(4) ** s)), -s)
        if x >= sys.float_info.min:
            return x
    raise SolverError("a scaling sqrt(w) is outside the normal float range")


def _feasible(w, strict: bool, residual) -> OracleResult:
    """The strict answer at weights w: strictly_feasible or boundary, with
    the scalings, the residual and the margin min w_i."""
    return OracleResult("strictly_feasible" if strict else "boundary",
                        weights=w, scalings=tuple(map(_scaling, w)),
                        residual=residual, margin=min(w))


def solve_gram(frame: Frame) -> OracleResult | None:
    """The strict answer read off the Hadamard Gram system of a rational
    frame (see the module docstring), or None when the tableau has to
    answer: no integer image, m > n(n+1)/2, H singular, or a negative
    unique weight.  The residual det(H') L^2 (I - sum_i w_i f_i f_i^t)
    has the trace n det(H') L^2 - sum_i N_i |u_i|^2."""
    image = frame.integer_image
    n, m = frame.dim, frame.count
    if image is None or 2 * m > n * (n + 1):
        return None
    gram, scale = frame.exact_gram, image.scale ** 2
    # row i of [H' | b] from column i on, reversed: see `eliminate`
    rows = [[scale * row[i]] + [x * x for x in reversed(row[i:])]
            for i, row in enumerate(gram)]
    d = eliminate(rows)  # det(H')
    if not d:  # H is singular
        return None
    nums = []  # N_{m-1}, N_{m-2}, ...
    for row in reversed(rows):
        nums.append((d * row[0] - sum(map(mul, row[1:-1], nums))) // row[-1])
    nums.reverse()
    trace = n * d * scale - sum(x * row[i]
                                for i, (x, row) in enumerate(zip(nums, gram)))
    if trace:
        diagonal = [p == q for p in range(n) for q in range(p, n)]
        return OracleResult("infeasible", farkas=SymmetricMatrix(n, [
            Fraction(d * scale * on - sum(map(mul, nums, row)), trace)
            for on, row in zip(diagonal, frame.outer_products)]))
    if min(nums) < 0:
        return None
    w = tuple(Fraction(x, d) for x in nums)
    return _feasible(w, min(nums) > 0, verify_weights(frame, w).residual)


def solve_strict(lp: ScaleLP, tol: float = DEFAULT_TOL) -> OracleResult:
    """Maximize the floor t over {Aw = b, w_i >= t >= 0}.

    Substituting w = t*1 + u (u >= 0) keeps the system in standard form.  It
    is feasible exactly when {Aw = b, w >= 0} is, so this one run answers
    both questions: phase 1 gives the Farkas certificate, or phase 2 gives
    the max-floor weights and the margin t*.
    """
    frame = lp.frame
    exact = frame.is_exact
    add = sum if exact else ordered_sum
    ext_rows = [[add(r, r[0] * 0)] + list(r) for r in lp.scaled_matrix]
    tab, y = _phase1(ext_rows, lp.scaled_rhs, exact, tol)

    if tab is None:
        farkas = _farkas_matrix(lp, y)
        if not exact and not verify_farkas(frame, farkas, tol):
            return OracleResult(
                "numerically_ambiguous",
                detail="phase-1 positive but the dual certificate does not "
                       "verify at this tolerance",
            )
        return OracleResult("infeasible", farkas=farkas)

    tab.set_objective([-1] + [0] * frame.count)  # maximize t
    while tab.bland_step():
        pass
    x = tab.solution(frame.count + 1)
    t_star = x[0]
    w = tuple(t_star + u for u in x[1:])
    if not exact:  # float drift leaves zero weights at -eps
        w = tuple(0.0 if -tol < v < 0 else v for v in w)
    residual = verify_weights(frame, w, tol).residual
    if not exact and residual > 10 * tol:
        return OracleResult(
            "numerically_ambiguous",
            detail=f"feasible basis but weight residual {residual:.3e}",
        )
    strict = (t_star > 0) if exact else (float(t_star) > tol)
    return _feasible(w, strict, residual)


def solve_scalable(lp: ScaleLP, tol: float = DEFAULT_TOL) -> OracleResult:
    """Decide {Aw = b, w >= 0}: the nonneg projection of solve_strict, so
    feasible weights are the max-floor weights."""
    return solve_strict(lp, tol).nonneg()


def verify_farkas(frame: Frame, y: SymmetricMatrix,
                  tol: float = DEFAULT_TOL) -> bool:
    """True iff <f_i, y f_i> <= tol for all i and trace(y) >= 1 - tol.
    Exact entries add exactly, and at tol == 0 the test takes their signs;
    otherwise the entries are converted to floats once and added left to
    right."""
    if y.order != frame.dim:
        raise ValueError("certificate order must equal the frame dimension")
    n = frame.dim
    exact = frame.is_exact and y.is_exact()
    rows, vectors, add = y.rows(), frame.vectors, sum
    if not exact:
        rows = [list(map(float, r)) for r in rows]
        vectors = [tuple(map(float, v)) for v in vectors]
        add = ordered_sum
    signs = exact and tol == 0
    for v in vectors:
        quad = add(v[p] * rows[p][q] * v[q]
                   for p in range(n) for q in range(n))
        if (sign(quad) > 0) if signs else (float(quad) > tol):
            return False
    if signs:
        return sign(y.trace() - 1) >= 0
    return float(y.trace()) >= 1.0 - tol
