"""Frames in R^n: Gram and frame operators, tightness tests, complements.

A frame here is an ordered list of m vectors spanning R^n.  Two scalar modes
are supported: float64, and exact mode where every entry is a rational (or a
quadratic irrational for a few built-in frames) and arithmetic never rounds.
Operations whose output is irrational (eigendecomposition, the complement
construction) refuse exact mode.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    ExactModeError,
    QuadExt,
    is_exact_scalar,
    rational_sqrt,
    sign,
)
from .linalg import SymmetricMatrix, jacobi_eigensystem

FLOAT_MODE = "float64"
EXACT_MODE = "exact_rational"

DEFAULT_TOL = 1e-8


class FrameError(ValueError):
    """Malformed frame input."""


@dataclass(frozen=True)
class Frame:
    """Ordered list of m vectors in R^n (frame elements, not coordinates)."""

    dim: int
    vectors: tuple
    scalar_mode: str = FLOAT_MODE

    def __post_init__(self):
        if self.dim < 1:
            raise FrameError("dim must be positive")
        if len(self.vectors) < 1:
            raise FrameError("a frame needs at least one vector")
        if self.scalar_mode not in (FLOAT_MODE, EXACT_MODE):
            raise FrameError(f"unknown scalar mode {self.scalar_mode!r}")
        fixed = []
        for v in self.vectors:
            if len(v) != self.dim:
                raise FrameError(
                    f"vector of length {len(v)} in a frame of dimension {self.dim}"
                )
            if self.scalar_mode == EXACT_MODE:
                row = []
                for x in v:
                    if isinstance(x, int):
                        x = Fraction(x)
                    if not is_exact_scalar(x):
                        raise FrameError(
                            f"exact mode requires exact entries, got {x!r}"
                        )
                    row.append(x)
                fixed.append(tuple(row))
            else:
                fixed.append(tuple(float(x) for x in v))
        object.__setattr__(self, "vectors", tuple(fixed))

    @property
    def count(self) -> int:
        return len(self.vectors)

    @property
    def is_exact(self) -> bool:
        return self.scalar_mode == EXACT_MODE

    def to_float(self) -> "Frame":
        if not self.is_exact:
            return self
        return Frame(self.dim, tuple(tuple(float(x) for x in v) for v in self.vectors))

    @classmethod
    def from_vectors(cls, vectors, exact: bool = False) -> "Frame":
        vectors = tuple(tuple(v) for v in vectors)
        if not vectors:
            raise FrameError("a frame needs at least one vector")
        return cls(len(vectors[0]), vectors, EXACT_MODE if exact else FLOAT_MODE)


def inner(u, v):
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def integer_vectors(frame: Frame):
    """Each vector of an exact rational frame times the least common
    multiple of its denominators, as tuples of ints: a positive multiple of
    the vector, so the signs of inner products and of 2x2 minors, which
    decide adjacency and parallelism, are those of the frame.  None for a
    float frame or one with an entry in Q(sqrt d)."""
    if not frame.is_exact or any(
            type(x) is not Fraction for v in frame.vectors for x in v):
        return None
    out = []
    for v in frame.vectors:
        d = math.lcm(*(x.denominator for x in v))
        out.append(tuple(x.numerator * (d // x.denominator) for x in v))
    return out


def gram(frame: Frame) -> SymmetricMatrix:
    """m x m matrix of pairwise inner products."""
    vs = frame.vectors
    return SymmetricMatrix.from_function(
        frame.count, lambda i, j: inner(vs[i], vs[j])
    )


def frame_operator(frame: Frame) -> SymmetricMatrix:
    """n x n sum of outer products of the frame vectors."""
    zero = Fraction(0) if frame.is_exact else 0.0

    def entry(p, q):
        total = zero
        for v in frame.vectors:
            total = total + v[p] * v[q]
        return total

    return SymmetricMatrix.from_function(frame.dim, entry)


def exact_rank(vectors) -> int:
    """Rank by fraction-free-ish Gaussian elimination over exact scalars."""
    rows = [list(v) for v in vectors]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot_row = next(
            (r for r in range(rank, len(rows)) if sign(rows[r][col]) != 0), None
        )
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if sign(rows[r][col]) != 0:
                factor = rows[r][col] / pivot
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def is_frame(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff the vectors span R^n."""
    if frame.count < frame.dim:
        return False
    if frame.is_exact:
        return exact_rank(frame.vectors) == frame.dim
    s = frame_operator(frame)
    values, _, _ = jacobi_eigensystem(s, min(tol, 1e-12))
    return min(values) > tol


@dataclass(frozen=True)
class Tightness:
    kind: str  # "not_tight" | "tight" | "parseval"
    bound: object = None  # frame bound A when tight/parseval

    @property
    def is_tight(self) -> bool:
        return self.kind in ("tight", "parseval")


def classify_operator(s: SymmetricMatrix, tol: float) -> Tightness:
    """Classify an n x n frame operator as Parseval / tight / neither."""
    n = s.order
    if s.is_exact():
        a = s.trace() / n
        ident_scaled = SymmetricMatrix.from_function(
            n, lambda i, j: a if i == j else a * 0
        )
        if s == SymmetricMatrix.identity(n, one=a * 0 + 1, zero=a * 0):
            return Tightness("parseval", Fraction(1))
        if sign(a) > 0 and s == ident_scaled:
            return Tightness("tight", a)
        return Tightness("not_tight")
    a = float(s.trace()) / n
    dev_ident = max(
        abs(float(s.entry(i, j)) - (1.0 if i == j else 0.0))
        for i in range(n)
        for j in range(i, n)
    )
    if dev_ident < tol:
        return Tightness("parseval", 1.0)
    dev_tight = max(
        abs(float(s.entry(i, j)) - (a if i == j else 0.0))
        for i in range(n)
        for j in range(i, n)
    )
    if a > 0 and dev_tight < tol:
        return Tightness("tight", a)
    return Tightness("not_tight")


def classify_tightness(frame: Frame, tol: float = DEFAULT_TOL) -> Tightness:
    return classify_operator(frame_operator(frame), tol)


def normalize_tight(frame: Frame, tol: float = DEFAULT_TOL) -> Frame:
    """Divide a tight frame by sqrt(A) so it becomes Parseval.

    Exact frames stay exact when A is a perfect rational square; otherwise
    the result is returned in float mode.
    """
    cls = classify_tightness(frame, tol)
    if not cls.is_tight:
        raise FrameError("normalize_tight requires a tight frame")
    if cls.kind == "parseval":
        return frame
    a = cls.bound
    if frame.is_exact and isinstance(a, Fraction):
        root = rational_sqrt(a)
        if root is not None:
            return Frame(
                frame.dim,
                tuple(tuple(x / root for x in v) for v in frame.vectors),
                EXACT_MODE,
            )
    scale = 1.0 / math.sqrt(float(a))
    return Frame(
        frame.dim,
        tuple(tuple(float(x) * scale for x in v) for v in frame.vectors),
        FLOAT_MODE,
    )


def scale_frame(frame: Frame, weights) -> Frame:
    """Replace each f_i by a_i*f_i; the a_i must be nonnegative."""
    weights = list(weights)
    if len(weights) != frame.count:
        raise FrameError(
            f"expected {frame.count} weights, got {len(weights)}"
        )
    for a in weights:
        if (sign(a) < 0) if is_exact_scalar(a) else (float(a) < 0):
            raise FrameError(f"negative scaling weight {a!r}")
    exact = frame.is_exact and all(is_exact_scalar(a) for a in weights)
    if exact:
        vectors = tuple(
            tuple(a * x for x in v) for a, v in zip(weights, frame.vectors)
        )
        return Frame(frame.dim, vectors, EXACT_MODE)
    vectors = tuple(
        tuple(float(a) * float(x) for x in v)
        for a, v in zip(weights, frame.vectors)
    )
    return Frame(frame.dim, vectors, FLOAT_MODE)


def random_parseval(m: int, n: int, seed: int, max_retries: int = 16) -> Frame:
    """Seeded Parseval frame of m vectors in R^n (rows of an orthonormal-column
    Gaussian matrix); deterministic in the seed."""
    if not (m >= n >= 1):
        raise FrameError("random_parseval needs m >= n >= 1")
    for attempt in range(max_retries):
        rng = random.Random(seed * 1000003 + attempt)
        cols = [[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(n)]
        ortho = []
        degenerate = False
        for col in cols:
            w = list(col)
            for u in ortho:
                proj = sum(a * b for a, b in zip(w, u))
                w = [a - proj * b for a, b in zip(w, u)]
            norm = math.sqrt(sum(a * a for a in w))
            if norm < 1e-8:
                degenerate = True
                break
            ortho.append([a / norm for a in w])
        if degenerate:
            continue
        vectors = tuple(tuple(col[i] for col in ortho) for i in range(m))
        return Frame(n, vectors, FLOAT_MODE)
    raise FrameError(
        f"random_parseval({m}, {n}, {seed}): degenerate draws in all "
        f"{max_retries} substreams"
    )


def naimark_complement(frame: Frame, tol: float = DEFAULT_TOL) -> Frame:
    """Parseval frame of m vectors in R^(m-n) whose Gram is I - G.

    The factor is fixed as Lambda^(1/2) V^t from the eigendecomposition of
    I - G (eigenvalues descending, first nonzero coordinate of each
    eigenvector made positive) so the output is reproducible.
    """
    if frame.is_exact:
        raise ExactModeError(
            "the complement construction has irrational output; use float mode"
        )
    m, n = frame.count, frame.dim
    if m <= n:
        raise FrameError("complement needs more vectors than dimensions (m > n)")
    if classify_tightness(frame, tol).kind != "parseval":
        raise FrameError("complement requires a Parseval frame")
    g = gram(frame)
    p = SymmetricMatrix.from_function(
        m, lambda i, j: (1.0 if i == j else 0.0) - float(g.entry(i, j))
    )
    eig_tol = max(min(tol * 1e-4, 1e-13), 1e-15)
    values, vectors, _ = jacobi_eigensystem(p, eig_tol)
    bad = [v for v in values if min(abs(v), abs(v - 1.0)) > tol]
    if bad or sum(1 for v in values if abs(v - 1.0) <= tol) != m - n:
        raise FrameError(
            "Gram eigenvalues do not cluster at {0,1}: input is not a clean "
            "rank-n projection at this tolerance"
        )
    rows = []
    for k in range(m - n):
        lam, vec = values[k], vectors[k]
        lead = next((x for x in vec if abs(x) > 1e-9), 1.0)
        s = 1.0 if lead > 0 else -1.0
        scale = s * math.sqrt(max(lam, 0.0))
        rows.append([scale * x for x in vec])
    out_vectors = tuple(
        tuple(rows[k][i] for k in range(m - n)) for i in range(m)
    )
    return Frame(m - n, out_vectors, FLOAT_MODE)
