"""Frames in R^n: Gram and frame operators, tightness tests, complements.

A frame here is an ordered list of m vectors spanning R^n.  Two scalar modes
are supported: float64, and exact mode where every entry is a rational (or a
quadratic irrational for a few built-in frames) and arithmetic never rounds.
Operations whose output is irrational (eigendecomposition, the complement
construction) refuse exact mode.

An exact rational frame has one integer image, built once per frame: the
vectors u_i = L * f_i for the least common multiple L of all its entry
denominators.  These exact steps read it:
- its frame operator `Frame.integer_operator`, T = sum_i u_i u_i^t =
  L^2 * S, which `is_frame` eliminates and `classify_tightness` (the
  weight check at unit weights) compares with L^2 * I;
- the weight check `verify_weights`, on T = sum_i N_i u_i u_i^t for
  weights N_i / D (T = D * L^2 * S);
- the LP rows in `scaler.build_lp`;
- its Gram matrix `Frame.integer_gram`, which the adjacency test of the
  graph side and the Gram solve `scaler.solve_gram` share.
One L for every vector keeps all of them exact multiples of the rational
quantities, with no Fraction arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import NamedTuple

from .exactnum import (
    ExactModeError,
    is_exact_scalar,
    sign,
)
from .linalg import (
    SymmetricMatrix,
    eliminate,
    jacobi_eigensystem,
    ordered_sum,
)

FLOAT_MODE = "float64"
EXACT_MODE = "exact_rational"

DEFAULT_TOL = 1e-8
PARSEVAL_RETRIES = 16  # seeded substreams random_parseval tries


class FrameError(ValueError):
    """Malformed frame input."""


def _exact_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    if not is_exact_scalar(x):
        raise FrameError(f"exact mode requires exact entries, got {x!r}")
    return x


class IntegerImage(NamedTuple):
    """u_i = L * f_i as tuples of ints, for the least common multiple L of
    all entry denominators of an exact rational frame.  Every vector is
    scaled alike, so u_i . u_j = L^2 <f_i, f_j> and the u_i have the rank
    and adjacency of the frame."""

    scale: int  # L
    vectors: tuple


_FLOAT_ONLY = frozenset((float,))


class Frame:
    """Ordered list of m vectors in R^n (frame elements, not coordinates).

    Immutable, with value equality and hashing over
    (dim, vectors, scalar_mode).  Exact entries become Fractions (or stay
    in Q(sqrt d)); in float mode, entries that are all floats are kept as
    they are, and other entries are converted."""

    def __init__(self, dim: int, vectors, scalar_mode: str = FLOAT_MODE):
        if dim < 1:
            raise FrameError("dim must be positive")
        if len(vectors) < 1:
            raise FrameError("a frame needs at least one vector")
        if scalar_mode not in (FLOAT_MODE, EXACT_MODE):
            raise FrameError(f"unknown scalar mode {scalar_mode!r}")
        for v in vectors:
            if len(v) != dim:
                raise FrameError(
                    f"vector of length {len(v)} in a frame of dimension {dim}"
                )
        if scalar_mode == EXACT_MODE:
            fixed = [tuple(x if type(x) is Fraction else _exact_entry(x)
                           for x in v) for v in vectors]
        else:
            # one pass over all entries for each check, not one per vector
            fixed = list(map(tuple, vectors))
            if not _FLOAT_ONLY.issuperset(map(type,
                                              chain.from_iterable(fixed))):
                fixed = [tuple(map(float, v)) for v in fixed]
            if not all(map(math.isfinite, chain.from_iterable(fixed))):
                row = next(v for v in fixed if not all(map(math.isfinite, v)))
                raise FrameError(f"non-finite entry in vector {row!r}")
        self.__dict__.update(dim=dim, vectors=tuple(fixed),
                             scalar_mode=scalar_mode)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.dim, self.vectors, self.scalar_mode)
                == (other.dim, other.vectors, other.scalar_mode))

    def __hash__(self):
        return hash((self.dim, self.vectors, self.scalar_mode))

    def __repr__(self):
        return (f"{type(self).__qualname__}(dim={self.dim!r}, "
                f"vectors={self.vectors!r}, scalar_mode={self.scalar_mode!r})")

    @cached_property
    def integer_image(self) -> IntegerImage | None:
        """The frame's integer image, or None for a float frame or one with
        an entry in Q(sqrt d)."""
        if not self.is_exact or any(
                type(x) is not Fraction for v in self.vectors for x in v):
            return None
        scale = math.lcm(*(x.denominator for v in self.vectors for x in v))
        return IntegerImage(scale, tuple(
            tuple(x.numerator * (scale // x.denominator) for x in v)
            for v in self.vectors))

    @cached_property
    def integer_gram(self) -> tuple | None:
        """The Gram matrix of the integer image, rows of ints u_i . u_j =
        L^2 <f_i, f_j>, each product taken once; None without an image.
        The graph side and `scaler.solve_gram` read it."""
        image = self.integer_image
        if image is None:
            return None
        vs = image.vectors
        rows = [[0] * len(vs) for _ in vs]
        for i, u in enumerate(vs):
            for j in range(i, len(vs)):
                rows[i][j] = rows[j][i] = sum(map(mul, u, vs[j]))
        return tuple(map(tuple, rows))

    @cached_property
    def integer_operator(self) -> SymmetricMatrix | None:
        """T = sum_i u_i u_i^t = L^2 S on the integer image, built once per
        frame: `is_frame` and `verify_weights` at unit weights both read
        it; None without an image."""
        image = self.integer_image
        if image is None:
            return None
        cols = tuple(zip(*image.vectors))
        return SymmetricMatrix.from_function(
            self.dim, lambda p, q: sum(map(mul, cols[p], cols[q])))

    @cached_property
    def operator(self) -> SymmetricMatrix:
        """The frame operator S = sum_i f_i f_i^t, built once per frame: on
        a frame without an integer image, `is_frame` and `verify_weights`
        at unit weights both read it.  Each entry adds its products left to
        right over the vectors in a plain loop, which keeps the bits of
        float entries and printed tight bounds on every interpreter: the
        float `sum` of Python 3.12 compensates."""
        vectors = self.vectors
        zero = Fraction(0) if self.is_exact else 0.0

        def entry(p, q):
            total = zero
            for v in vectors:
                total = total + v[p] * v[q]
            return total

        return SymmetricMatrix.from_function(self.dim, entry)

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


def gram(frame: Frame) -> SymmetricMatrix:
    """m x m matrix of pairwise inner products."""
    vs = frame.vectors
    return SymmetricMatrix.from_function(
        frame.count, lambda i, j: inner(vs[i], vs[j])
    )


def frame_operator(frame: Frame) -> SymmetricMatrix:
    """n x n sum of outer products of the frame vectors (built once per
    frame, see `Frame.operator`)."""
    return frame.operator


def is_frame(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff the vectors span R^n, that is, iff the frame operator S is
    positive definite.  An exact frame spans when the fraction-free
    elimination of its PSD operator (`linalg.eliminate`; T = L^2 S on the
    integer image of a rational frame) meets no zero pivot.  A float frame
    spans when the least eigenvalue of S is above tol.  When the trace of S
    is above 2**200 (inf when S overflows), that is decided on the copy
    2**-k f_i whose largest |entry| is in [1/2, 1), against 4**-k * tol:
    a power of two scales floats exactly (up to underflow), so the copy's
    S is 4**-k times the S of unbounded floats.  Jacobi runs on the copy,
    whose entries are at most m, to its usual off-diagonal tolerance:
    scaled by 4**-k, that tolerance would lie below the float range.  On
    S itself Jacobi stalls long before S overflows: its
    tau = (S_qq - S_pp) / (2 S_pq) squares to inf once |S| / tol nears
    2**511, and a rotation by tan 0 is the identity."""
    if frame.count < frame.dim:
        return False
    if frame.is_exact:
        s = frame.integer_operator or frame.operator
        return bool(eliminate([r[p:][::-1] for p, r in enumerate(s.rows())]))
    operator, k = frame.operator, 0
    # |S_pq| <= (S_pp + S_qq) / 2, so the trace bounds every entry
    if operator.trace() > 2.0 ** 200:
        k = math.frexp(max(map(abs, chain.from_iterable(frame.vectors))))[1]
        operator = Frame(frame.dim, [[math.ldexp(x, -k) for x in v]
                                     for v in frame.vectors]).operator
    values, _, _ = jacobi_eigensystem(operator, min(tol, 1e-12))
    return min(values) > math.ldexp(tol, -2 * k)


class Tightness(NamedTuple):
    kind: str  # "not_tight" | "tight" | "parseval"
    bound: object = None  # frame bound A when tight/parseval


class WeightReport(NamedTuple):
    residual: float | None  # max |S - I|; None at unit weights, exact S
    tightness: Tightness


def verify_weights(frame: Frame, weights=None,
                   tol: float = DEFAULT_TOL) -> WeightReport:
    """Rebuild S = sum_i w_i f_i f_i^t and compare it with I and with a * I;
    weights=None means w_i = 1, the tightness test.

    Rational weights N_i / D (or unit weights) on a rational frame are read
    on the integer image: T = sum_i N_i u_i u_i^t is c * S for c = D * L^2,
    and at unit weights T is `Frame.integer_operator`.  Every other S adds
    its terms left to right; at unit weights that is `Frame.operator`.  An
    exact matrix (T, or S with c = 1) is tight when it equals a * I with
    a > 0, and Parseval when a = c.  A float S is Parseval when its
    residual max |S - I| is below tol, and tight when max |S - a * I| is,
    for a = trace(S) / n.  The residual is a float, math.inf when it lies
    beyond the float range; unit weights on an exact frame leave it None."""
    n = frame.dim
    image = frame.integer_image
    if weights is not None:
        weights = list(weights)
        if len(weights) != frame.count:
            raise ValueError("weight count mismatch")
    if image is not None and (weights is None or all(
            isinstance(w, (int, Fraction)) for w in weights)):
        if weights is None:
            d, s = 1, frame.integer_operator
        else:
            cols = tuple(zip(*image.vectors))
            d = math.lcm(*(w.denominator for w in weights))
            nums = [w.numerator * (d // w.denominator) for w in weights]
            left = [tuple(map(mul, nums, col)) for col in cols]
            s = SymmetricMatrix.from_function(
                n, lambda p, q: sum(map(mul, left[p], cols[q])))
        exact, c = True, d * image.scale ** 2
    elif weights is None:
        s, exact, c = frame.operator, frame.is_exact, 1
    else:
        exact = frame.is_exact and not any(isinstance(w, float)
                                           for w in weights)
        zero = Fraction(0) if exact else 0.0

        def entry(p, q):
            total = zero
            for w, v in zip(weights, frame.vectors):
                total = total + w * (v[p] * v[q])
            return total

        s, c = SymmetricMatrix.from_function(n, entry), 1
    residual = None
    if weights is not None or not exact:
        gap = s.deviation(c)
        try:
            residual = float(gap / c)
        except OverflowError:
            residual = math.inf
    tightness = Tightness("not_tight")
    if exact:
        a = s.entry(0, 0)
        if s == SymmetricMatrix.identity(n, one=a, zero=0) and sign(a) > 0:
            tightness = (Tightness("parseval", Fraction(1)) if a == c
                         else Tightness("tight", a / Fraction(c)))
    elif residual < tol:
        tightness = Tightness("parseval", 1.0)
    else:
        a = s.trace() / n
        if a > 0 and s.deviation(a) < tol:
            tightness = Tightness("tight", a)
    return WeightReport(residual, tightness)


def classify_tightness(frame: Frame, tol: float = DEFAULT_TOL) -> Tightness:
    """Parseval / tight / neither: the weight check at unit weights."""
    return verify_weights(frame, None, tol).tightness


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


def random_parseval(m: int, n: int, seed: int) -> Frame:
    """Seeded Parseval frame of m vectors in R^n (rows of an orthonormal-column
    Gaussian matrix); deterministic in the seed."""
    if not (m >= n >= 1):
        raise FrameError("random_parseval needs m >= n >= 1")
    for attempt in range(PARSEVAL_RETRIES):
        rng = random.Random(seed * 1000003 + attempt)
        cols = [[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(n)]
        ortho = []
        degenerate = False
        for col in cols:
            w = list(col)
            for u in ortho:  # float sums left to right, see ordered_sum
                proj = ordered_sum(map(mul, w, u))
                w = [a - proj * b for a, b in zip(w, u)]
            norm = math.sqrt(ordered_sum(map(mul, w, w)))
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
        f"{PARSEVAL_RETRIES} substreams"
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
