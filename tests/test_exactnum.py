"""Exact scalar helpers: quadratic-field numbers, parsing, signs."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from framescale.exactnum import (
    QuadExt,
    exact_str,
    is_exact_scalar,
    parse_exact,
    sign,
)


class TestQuadExt:
    def test_arithmetic_matches_float(self):
        x = QuadExt(3, Fraction(1, 2), Fraction(1, 3))
        y = QuadExt(3, Fraction(-2), Fraction(1, 7))
        fx, fy = float(x), float(y)
        assert math.isclose(float(x + y), fx + fy)
        assert math.isclose(float(x - y), fx - fy)
        assert math.isclose(float(x * y), fx * fy)
        assert math.isclose(float(x / y), fx / fy)
        assert math.isclose(float(2 - x), 2 - fx)
        assert math.isclose(float(5 / x), 5 / fx)

    def test_sqrt3_squares_to_3(self):
        s = QuadExt(3, 0, 1)
        assert s * s == 3
        assert s * s == Fraction(3)

    def test_sign_exact(self):
        # 265/153 < sqrt(3) < 1351/780; both comparisons need exact squaring
        s = QuadExt(3, 0, 1)
        assert s - Fraction(265, 153) > 0
        assert s - Fraction(1351, 780) < 0
        assert (s - s).sign() == 0
        assert not (s - s)

    def test_ordering_total(self):
        s = QuadExt(2, 0, 1)
        assert Fraction(1) < s < Fraction(3, 2)
        assert s <= s
        assert s >= QuadExt(2, 0, 1)

    def test_mixed_rational_arithmetic(self):
        s = QuadExt(5, Fraction(1), Fraction(2))
        assert s + Fraction(1, 2) == QuadExt(5, Fraction(3, 2), Fraction(2))
        assert 3 * s == QuadExt(5, 3, 6)

    def test_incompatible_radicands_rejected(self):
        with pytest.raises(TypeError):
            QuadExt(2, 0, 1) + QuadExt(3, 0, 1)

    def test_division_by_irrational(self):
        s = QuadExt(3, Fraction(1), Fraction(1))  # 1 + sqrt(3)
        inv = 1 / s
        assert s * inv == 1

    @pytest.mark.parametrize("d, a, b, k", [
        (2, -1, 1, 1), (2, -1, 1, 40), (2, -1, 1, 400), (2, -1, 1, 800),
        (2, -1, 1, 1000), (2, 1, 1, 800), (2, 1, -1, 41), (3, -2, 1, 60),
        (5, 2, -1, 90), (7, Fraction(-8, 3), 1, 30), (3, Fraction(1, 9), 0, 5),
    ])
    def test_float_within_one_ulp(self, d, a, b, k):
        # for large k the coefficients of the power lie far beyond the
        # float range, and cancel to a small value unless a and b agree in
        # sign
        x = QuadExt(d, 1)
        for _ in range(k):
            x *= QuadExt(d, a, b)
        with localcontext() as ctx:
            ctx.prec = 400
            a = Fraction(a)
            base = (Decimal(a.numerator) / Decimal(a.denominator)
                    + Decimal(b) * Decimal(d).sqrt())
            ref = float(base ** k)
        assert abs(float(x) - ref) <= math.ulp(ref)

    def test_float_beyond_range_overflows(self):
        x = QuadExt(2, 1)
        for _ in range(900):  # (1 + sqrt(2))^900 is about 1e344
            x *= QuadExt(2, 1, 1)
        with pytest.raises(OverflowError):
            float(x)

    def test_str_of_rationals(self):
        assert exact_str(Fraction(-6, 4)) == "-3/2"
        assert exact_str(Fraction(5)) == "5"
        assert [exact_str(x) for x in (7, -2, True, False)] \
            == ["7", "-2", "1", "0"]

    def test_str_roundtrip_readable(self):
        s = QuadExt(3, Fraction(1, 2), Fraction(-1, 3))
        text = exact_str(s)
        assert "sqrt(3)" in text


class TestParsing:
    def test_parse_fraction_string(self):
        assert parse_exact("3/7") == Fraction(3, 7)
        assert parse_exact("-12/8") == Fraction(-3, 2)

    def test_parse_decimal_string(self):
        assert parse_exact("0.25") == Fraction(1, 4)
        assert parse_exact("-1.5") == Fraction(-3, 2)

    def test_parse_integer(self):
        assert parse_exact(7) == Fraction(7)
        assert parse_exact("7") == Fraction(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_exact("1/0")
        with pytest.raises((ValueError, TypeError)):
            parse_exact("pi")


class TestHelpers:
    def test_sign(self):
        assert sign(Fraction(-3, 7)) == -1
        assert sign(0) == 0
        assert sign(QuadExt(2, 0, 1)) == 1

    def test_is_exact_scalar(self):
        assert is_exact_scalar(Fraction(1, 2))
        assert is_exact_scalar(3)
        assert is_exact_scalar(QuadExt(3, 1, 1))
        assert not is_exact_scalar(0.5)
