"""Frames in R^n: Gram and frame operators, tightness tests, complements.

A frame here is an ordered list of m vectors spanning R^n.  Two scalar modes
are supported: float64, and exact mode where every entry is a rational (or a
quadratic irrational for a few built-in frames) and arithmetic never rounds.
Operations whose output is irrational (eigendecomposition, the complement
construction) refuse exact mode.

An exact rational frame has one integer image, built once per frame: the
vectors u_i = L * f_i for the least common multiple L of all its entry
denominators.  One L for every vector makes each integer quantity below
an exact multiple of its rational counterpart, with no Fraction
arithmetic.

Every frame has one product table, `Frame.outer_products`: row (p, q),
p <= q, holds the m products c * f_i[p] * f_i[q], ints with c = L^2 on
the integer image of a rational frame and c = 1 on any other frame.  It
is the linear map w -> c * sum_i w_i f_i f_i^t, the only source of a
weighted frame operator, and these read it:
- the LP rows of `scaler.build_lp`, which are the table itself;
- `Frame.exact_operator`, its row sums c * S on an exact frame, which
  `is_frame` eliminates and `classify_tightness` (the weight check at
  unit weights) compares with c * I;
- the weight check `verify_weights` at given weights, one sum over the
  w_i per row (over the ints N_i of weights N_i / D on a rational frame,
  which gives D * L^2 * S);
- the certificate of the Gram solve `scaler.solve_gram`.
An exact frame also has one Gram matrix, `Frame.exact_gram` (on the
integer image of a rational frame), which the adjacency test of the graph
side and the Gram solve share.  A float frame builds its unit-weight
operator `Frame.operator` in one fused left-to-right loop.
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
    project_out,
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
    def outer_products(self) -> tuple:
        """The product table: row (p, q), for p <= q in SymmetricMatrix's
        upper-triangle order, holds the m products c * f_i[p] * f_i[q], the
        ints u_i[p] * u_i[q] with c = L^2 on the integer image of a rational
        frame and c = 1 on any other frame.  It is the matrix c * A of the
        scaling LP and the map w -> c * sum_i w_i f_i f_i^t."""
        image = self.integer_image
        cols = tuple(zip(*(self.vectors if image is None else image.vectors)))
        n = self.dim
        return tuple(tuple(map(mul, cols[p], cols[q]))
                     for p in range(n) for q in range(p, n))

    @cached_property
    def exact_gram(self) -> tuple | None:
        """The exact Gram matrix, each product taken once: rows of ints
        u_i . u_j = L^2 <f_i, f_j> on the integer image of a rational
        frame, and of <f_i, f_j> on a frame with an entry in Q(sqrt d);
        None on a float frame.  The graph side and `scaler.solve_gram`
        read it."""
        if not self.is_exact:
            return None
        image = self.integer_image
        vs = self.vectors if image is None else image.vectors
        rows = [[0] * len(vs) for _ in vs]
        for i, u in enumerate(vs):
            for j in range(i, len(vs)):
                rows[i][j] = rows[j][i] = sum(map(mul, u, vs[j]))
        return tuple(map(tuple, rows))

    @cached_property
    def exact_operator(self) -> SymmetricMatrix | None:
        """c * S, the row sums of the product table: T = sum_i u_i u_i^t =
        L^2 S on the integer image of a rational frame, and S itself on a
        frame with an entry in Q(sqrt d); None on a float frame.
        `is_frame` and `verify_weights` at unit weights both read it."""
        if not self.is_exact:
            return None
        return SymmetricMatrix(self.dim, map(sum, self.outer_products))

    @cached_property
    def operator(self) -> SymmetricMatrix:
        """The frame operator S = sum_i f_i f_i^t, built once per frame: on
        a float frame, `is_frame` and `verify_weights` at unit weights both
        read it.  Each entry adds its products left to right over the
        vectors in a plain loop, which keeps the bits of float entries and
        printed tight bounds on every interpreter: the float `sum` of
        Python 3.12 compensates.  Read off the product table instead, the
        operator and the tightness test took 25-35% longer on float
        Parseval frames of 16 to 64 vectors."""
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


def gram(frame: Frame) -> SymmetricMatrix:
    """m x m matrix of pairwise inner products, each added left to right
    from the first product on."""
    vs = frame.vectors
    return SymmetricMatrix.from_function(
        frame.count, lambda i, j: ordered_sum(map(mul, vs[i][1:], vs[j][1:]),
                                              vs[i][0] * vs[j][0]))


def frame_operator(frame: Frame) -> SymmetricMatrix:
    """n x n sum of outer products of the frame vectors (built once per
    frame, see `Frame.operator`)."""
    return frame.operator


def is_frame(frame: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff the vectors span R^n, that is, iff the frame operator S is
    positive definite.  An exact frame spans when the fraction-free
    elimination of `Frame.exact_operator` (`linalg.eliminate`; c * S, a
    PSD matrix) meets no zero pivot.  A float frame
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
        rows = frame.exact_operator.rows()
        return bool(eliminate([r[p:][::-1] for p, r in enumerate(rows)]))
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

    S is formed as c * S, for the scale c of the product table (L^2 on a
    rational frame, 1 otherwise): at unit weights it is
    `Frame.exact_operator` on an exact frame and `Frame.operator` on a
    float one; at given weights it is one sum over the w_i per row of
    `Frame.outer_products`.  Rational weights N_i / D on a rational frame
    take the ints N_i instead, and c = D * L^2; finite float weights count
    as rational there, read exactly, so no product leaves the float range.
    Floats add left to right, so float products give the bits of the
    plain loop.  An exact c * S is tight when it equals a * I with a > 0,
    and Parseval when a = c.  Otherwise (float weights or a float frame)
    S is Parseval when its residual max |S - I| is below tol, and tight
    when max |S - a * I| is, for a = trace(S) / n.  The
    residual is a float, math.inf when it lies beyond the float range;
    unit weights on an exact frame leave it None."""
    n = frame.dim
    image = frame.integer_image
    c = 1 if image is None else image.scale ** 2
    if weights is None:
        exact = frame.is_exact
        s = frame.exact_operator if exact else frame.operator
    else:
        weights = list(weights)
        if len(weights) != frame.count:
            raise ValueError("weight count mismatch")
        exact = frame.is_exact and not any(isinstance(w, float)
                                           for w in weights)
        if image is not None and all(
                isinstance(w, (int, Fraction))
                or isinstance(w, float) and math.isfinite(w)
                for w in weights):
            ratios = [w.as_integer_ratio() for w in weights]  # exact
            d = math.lcm(*(q for _, q in ratios))
            weights = [p * (d // q) for p, q in ratios]
            c *= d
        add = sum if exact else ordered_sum
        s = SymmetricMatrix(n, [add(map(mul, weights, row))
                                for row in frame.outer_products])
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
        a = s.trace() / Fraction(n)  # a Fraction on int entries
        if a > 0 and s.deviation(a) / c < tol:
            tightness = Tightness("tight", float(a / c))
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
            w, norm = project_out(col, ortho)
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
