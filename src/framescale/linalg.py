"""Dense symmetric matrices, fraction-free elimination and a cyclic Jacobi
eigensolver.

Matrices are stored as one triangle, so symmetry holds by construction.
Exact matrices are eliminated fraction-free (Bareiss 1968): one row step,
`bareiss_step`, serves the symmetric elimination `eliminate` here and the
exact simplex pivots of `scaler`.  The eigensolver is a row-cyclic Jacobi
iteration: unconditionally convergent for symmetric input and
dependency-free, which is all that is needed at the small orders (<= 64)
this package targets.
"""

from __future__ import annotations

import math
from operator import itemgetter, mul, sub
from typing import NamedTuple

from .exactnum import EXACT_TYPES, ExactModeError

MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap before the off-diagonal target."""

    def __init__(self, achieved_offdiag: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps "
            f"(max off-diagonal {achieved_offdiag:.3e})"
        )
        self.achieved_offdiag = achieved_offdiag
        self.sweeps = sweeps


def ordered_sum(values, start=0):
    """start + values[0] + values[1] + ..., added left to right in a plain
    loop.  From Python 3.12 on the built-in float sum compensates, which
    changes the last bits of a float total from one interpreter to the
    next; this loop gives the bits of the uncompensated sum everywhere."""
    total = start
    for x in values:
        total = total + x
    return total


def project_out(v, basis):
    """v minus its projection on each vector of the orthonormal list
    `basis` in turn (modified Gram-Schmidt), and the norm of what is left,
    float sums added left to right (see `ordered_sum`)."""
    for b in basis:
        proj = ordered_sum(map(mul, v, b))
        v = [a - proj * c for a, c in zip(v, b)]
    return v, math.sqrt(ordered_sum(map(mul, v, v)))


def bareiss_step(p, d, prow, rows, fs):
    """Bareiss's fraction-free row step: (p * row - f * prow) / d for each
    row of `rows`, with f its entry in the pivot column, taken from `fs` in
    the same order; p is the pivot, prow its row and d the pivot before p.
    Entries are paired from the start of the rows, as zip pairs them.
    Every entry the step makes is a minor of the input (Sylvester's
    identity), so each division is exact: ints divide with // and stay
    ints, and field entries (Fraction, Q(sqrt d)) take the field's /.  A
    row with f = 0 comes back as it is when p = d."""
    if isinstance(d, int):
        return [row if not f and p == d else
                [(p * a - f * b) // d for a, b in zip(row, prow)]
                for row, f in zip(rows, fs)]
    return [row if not f and p == d else
            [(p * a - f * b) / d for a, b in zip(row, prow)]
            for row, f in zip(rows, fs)]


def eliminate(rows):
    """Eliminate a symmetric positive semidefinite system in place, with
    no row exchanges, and return its determinant; stop at the first zero
    pivot and return 0, leaving the rows below it as the step before left
    them.

    rows[k] is row k of [A | B], for the matrix A and any right-hand-side
    columns B, from its diagonal entry on and in reverse order: every row
    ends in its diagonal entry, and zip pairs two rows column by column.
    Each step keeps the block still to be eliminated symmetric, so the
    entry of row i in the pivot column k is read from row k, as its entry
    in column i.  Afterwards rows[k][-1] is the k-th pivot, the leading
    principal (k+1) x (k+1) minor.  No row exchange is needed: a PSD
    matrix A whose leading block A_k is singular is singular, since
    x^t A_k x = 0 for some x != 0, and a PSD form vanishes only on its
    kernel, so A x = 0 for x padded with zeros."""
    d = rows[0][-1] * 0 + 1  # 1 of the entries' type: ints stay on //
    for k, prow in enumerate(rows):
        p = prow[-1]
        if not p:
            return p
        # entries (k, k+1), (k, k+2), ... of row k: the f of the rows below
        rows[k + 1:] = bareiss_step(p, d, prow, rows[k + 1:], prow[-2::-1])
        d = p
    return d


class SymmetricMatrix:
    """Dense symmetric matrix storing only the upper triangle."""

    __slots__ = ("order", "_upper")

    def __init__(self, order: int, upper):
        if order < 1:
            raise ValueError("order must be positive")
        upper = tuple(upper)
        if len(upper) != order * (order + 1) // 2:
            raise ValueError("wrong number of upper-triangle entries")
        self.order = order
        self._upper = upper

    @classmethod
    def from_rows(cls, rows):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"asymmetric entries at ({i},{j})")
        upper = [rows[i][j] for i in range(n) for j in range(i, n)]
        return cls(n, upper)

    @classmethod
    def from_function(cls, order: int, fn):
        return cls(order, [fn(i, j) for i in range(order) for j in range(i, order)])

    @classmethod
    def identity(cls, order: int, one=1, zero=0):
        return cls.from_function(order, lambda i, j: one if i == j else zero)

    def _index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.order - i * (i - 1) // 2 + (j - i)

    def entry(self, i: int, j: int):
        return self._upper[self._index(i, j)]

    def rows(self):
        """The full matrix as a list of row lists, read off the stored
        triangle in one pass: row i is column i of the rows before it,
        then its own stored entries."""
        n, upper = self.order, self._upper
        out, start = [], 0
        for i in range(n):
            out.append(list(map(itemgetter(i), out))
                       + list(upper[start:start + n - i]))
            start += n - i
        return out

    def deviation(self, c):
        """max |a_pq - c*[p == q]| over p <= q, the distance in the max
        norm from c times the identity, read off the stored triangle in one
        pass; off the diagonal that is |a_pq - 0|."""
        shift, start = [0] * len(self._upper), 0
        for width in range(self.order, 0, -1):
            shift[start] = c
            start += width
        return max(map(abs, map(sub, self._upper, shift)))

    def trace(self):
        total = self.entry(0, 0)
        for i in range(1, self.order):
            total = total + self.entry(i, i)
        return total

    def is_exact(self) -> bool:
        return any(
            isinstance(x, EXACT_TYPES) and not isinstance(x, int)
            for x in self._upper
        )

    def __eq__(self, other):
        if not isinstance(other, SymmetricMatrix):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self._upper, other._upper)
        )

    def __hash__(self):
        return hash((self.order, self._upper))

    def __repr__(self):
        return f"SymmetricMatrix(order={self.order})"


class Spectrum(NamedTuple):
    """Eigenvalues in descending order, plus the off-diagonal mass achieved."""

    eigenvalues: tuple
    achieved_offdiag: float


def _max_offdiag(m, n: int) -> float:
    best = 0.0
    for p in range(n - 1):
        row = m[p]
        for q in range(p + 1, n):
            v = abs(row[q])
            if v > best:
                best = v
    return best


def jacobi_eigensystem(a: SymmetricMatrix, tol: float):
    """Full eigensystem of a symmetric matrix by row-cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors, achieved_offdiag) with eigenvalues
    descending and eigenvectors as a list of column vectors, paired by index.
    Raises JacobiConvergenceError after MAX_SWEEPS sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.is_exact():
        raise ExactModeError(
            "eigendecomposition produces irrational output; use float mode"
        )
    n = a.order
    m = [list(map(float, row)) for row in a.rows()]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [m[0][0]], [[1.0]], 0.0

    rotate_thresh = tol / (n * n)
    off = _max_offdiag(m, n)
    sweeps = 0
    while off >= tol:
        if sweeps >= MAX_SWEEPS:
            raise JacobiConvergenceError(off, sweeps)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p][q]
                if abs(apq) <= rotate_thresh:
                    continue
                tau = (m[q][q] - m[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    akp, akq = m[k][p], m[k][q]
                    m[k][p] = c * akp - s * akq
                    m[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = m[p][k], m[q][k]
                    m[p][k] = c * apk - s * aqk
                    m[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
        sweeps += 1
        off = _max_offdiag(m, n)

    pairs = sorted(
        ((m[i][i], i) for i in range(n)), key=lambda t: (-t[0], t[1])
    )
    values = [val for val, _ in pairs]
    vectors = [[v[k][i] for k in range(n)] for _, i in pairs]
    return values, vectors, off


def symmetric_eigs(a: SymmetricMatrix, tol: float) -> Spectrum:
    """Eigenvalues only; see jacobi_eigensystem for the contract."""
    values, _, off = jacobi_eigensystem(a, tol)
    return Spectrum(tuple(values), off)
