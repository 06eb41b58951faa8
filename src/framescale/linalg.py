"""Dense symmetric matrices and a cyclic Jacobi eigensolver.

Matrices are stored as one triangle, so symmetry holds by construction.
The eigensolver is a row-cyclic Jacobi iteration: unconditionally convergent
for symmetric input and dependency-free, which is all that is needed at the
small orders (<= 64) this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactnum import EXACT_TYPES, ExactModeError

DEFAULT_MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps hit the cap before the off-diagonal target."""

    def __init__(self, achieved_offdiag: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps "
            f"(max off-diagonal {achieved_offdiag:.3e})"
        )
        self.achieved_offdiag = achieved_offdiag
        self.sweeps = sweeps


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
        return [[self.entry(i, j) for j in range(self.order)] for i in range(self.order)]

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


@dataclass(frozen=True)
class Spectrum:
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


def jacobi_eigensystem(a: SymmetricMatrix, tol: float,
                       max_sweeps: int = DEFAULT_MAX_SWEEPS):
    """Full eigensystem of a symmetric matrix by row-cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors, achieved_offdiag) with eigenvalues
    descending and eigenvectors as a list of column vectors, paired by index.
    Raises JacobiConvergenceError if max_sweeps is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.is_exact():
        raise ExactModeError(
            "eigendecomposition produces irrational output; use float mode"
        )
    n = a.order
    m = [[float(a.entry(i, j)) for j in range(n)] for i in range(n)]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [m[0][0]], [[1.0]], 0.0

    rotate_thresh = tol / (n * n)
    off = _max_offdiag(m, n)
    sweeps = 0
    while off >= tol:
        if sweeps >= max_sweeps:
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


def symmetric_eigs(a: SymmetricMatrix, tol: float,
                   max_sweeps: int = DEFAULT_MAX_SWEEPS) -> Spectrum:
    """Eigenvalues only; see jacobi_eigensystem for the contract."""
    values, _, off = jacobi_eigensystem(a, tol, max_sweeps)
    return Spectrum(tuple(values), off)
