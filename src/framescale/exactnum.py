"""Exact scalar arithmetic: rationals plus quadratic irrationals a + b*sqrt(d).

Exact mode runs on :class:`fractions.Fraction`.  A small
quadratic-extension type :class:`QuadExt` covers the built-in frames whose
entries live in Q(sqrt(d)), e.g. three unit vectors at 120 degrees.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactModeError(TypeError):
    """An operation was asked to run exactly on data it cannot handle."""


def _sign_rational(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class QuadExt:
    """Element a + b*sqrt(d) of a real quadratic field, with exact arithmetic.

    ``d`` must be a positive non-square integer; ``a`` and ``b`` are rationals.
    Comparisons are exact (no floating point is consulted).
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a=0, b=0):
        if d <= 1 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"d must be a positive non-square integer, got {d}")
        self.d = d
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ExactModeError("mixed quadratic fields are not supported")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.d, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.d, o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - self.d * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        inv = QuadExt(self.d, o.a / norm, -o.b / norm)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QuadExt(self.d, -self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        sa, sb = _sign_rational(self.a), _sign_rational(self.b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(d) decided by squaring
        return sa if self.a * self.a > self.d * self.b * self.b else sb

    def __bool__(self):
        return self.sign() != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.d}, {self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a}+{self.b}*sqrt({self.d})"


EXACT_TYPES = (int, Fraction, QuadExt)


def is_exact_scalar(x) -> bool:
    return isinstance(x, EXACT_TYPES) and not isinstance(x, bool)


def sign(x) -> int:
    """Exact sign of any supported scalar (-1, 0, +1)."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _sign_rational(x)


def parse_exact(text) -> Fraction:
    """Parse 'p/q', decimal strings, or plain numbers into a Fraction."""
    if isinstance(text, bool):
        raise ValueError("booleans are not numbers")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, float):
        if not text.is_integer():
            raise ExactModeError(
                f"refusing to reinterpret non-integral float {text!r} as exact; "
                "write it as a decimal string or 'p/q'"
            )
        return Fraction(int(text))
    if isinstance(text, str):
        return Fraction(text.strip())
    raise ValueError(f"cannot parse {text!r} as an exact number")


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative number")
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def exact_str(x) -> str:
    """Canonical string for an exact scalar ('p/q' for rationals)."""
    if isinstance(x, QuadExt):
        return str(x)
    return str(Fraction(x))
