"""Exact scalar helpers: quadratic-field numbers, parsing, square roots."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from framescale.exactnum import (
    QuadExt,
    exact_str,
    is_exact_scalar,
    parse_exact,
    rational_sqrt,
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

    def test_rational_sqrt_perfect_square(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == 0

    def test_rational_sqrt_non_square(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(1, 3)) is None
