"""Symmetric matrices and the cyclic Jacobi eigensolver."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from framescale.exactnum import ExactModeError
from framescale.linalg import (
    SymmetricMatrix,
    jacobi_eigensystem,
    ordered_sum,
    symmetric_eigs,
)


def count_positive_eigenvalues(a: SymmetricMatrix) -> int:
    """Numerical rank of a PSD matrix: Jacobi eigenvalues above
    order * machine epsilon * max(largest |eigenvalue|, 1)."""
    values, _, _ = jacobi_eigensystem(a, 1e-12)
    scale = max((abs(x) for x in values), default=0.0)
    rank_tol = a.order * 2.220446049250313e-16 * max(scale, 1.0)
    return sum(1 for x in values if x > rank_tol)


def random_symmetric(n: int, seed: int) -> SymmetricMatrix:
    rng = random.Random(seed)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.uniform(-5, 5)
    return SymmetricMatrix.from_rows(rows)


class TestSymmetricMatrix:
    def test_from_rows_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_rows([[1, 2], [3, 4]])

    def test_entry_and_rows_roundtrip(self):
        s = SymmetricMatrix.from_rows([[1, 2], [2, 5]])
        assert s.entry(0, 1) == s.entry(1, 0) == 2
        assert s.rows() == [[1, 2], [2, 5]]
        assert s.trace() == 6

    def test_identity(self):
        i3 = SymmetricMatrix.identity(3)
        assert i3.rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_one_pass_reads_match_entry(self, n):
        """rows() and deviation() read the stored triangle in one pass and
        give what entry() gives, object for object."""
        upper = [Fraction(k, 3) - 2 for k in range(n * (n + 1) // 2)]
        s = SymmetricMatrix(n, upper)
        assert s.rows() == [[s.entry(i, j) for j in range(n)]
                            for i in range(n)]
        assert all(x is s.entry(i, j) for i, row in enumerate(s.rows())
                   for j, x in enumerate(row))
        for c in (0, 1, Fraction(-7, 2)):
            assert s.deviation(c) == max(
                abs(s.entry(p, q) - (c if p == q else 0))
                for p in range(n) for q in range(p, n))

    def test_exactness_detection(self):
        assert SymmetricMatrix.from_rows([[Fraction(1), Fraction(0)],
                                          [Fraction(0), Fraction(2)]]).is_exact()
        assert not SymmetricMatrix.from_rows([[1.0, 0.0], [0.0, 2.0]]).is_exact()


class TestJacobi:
    def test_textbook_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1
        s = SymmetricMatrix.from_rows([[2.0, 1.0], [1.0, 2.0]])
        values, vectors, off = jacobi_eigensystem(s, 1e-12)
        assert values == pytest.approx([3.0, 1.0], abs=1e-12)
        assert off < 1e-12
        v = vectors[0]
        assert abs(abs(v[0]) - 1 / math.sqrt(2)) < 1e-12

    def test_identity_spectrum(self):
        s = SymmetricMatrix.identity(5, one=1.0, zero=0.0)
        spec = symmetric_eigs(s, 1e-12)
        assert spec.eigenvalues == pytest.approx([1.0] * 5)

    def test_diagonal_needs_no_rotations(self):
        s = SymmetricMatrix.from_rows([[3.0, 0.0], [0.0, -7.0]])
        values, _, off = jacobi_eigensystem(s, 1e-14)
        assert values == [3.0, -7.0]
        assert off == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numpy(self, seed):
        n = 2 + seed % 6
        s = random_symmetric(n, seed)
        values, vectors, _ = jacobi_eigensystem(s, 1e-12)
        expected = sorted(np.linalg.eigvalsh(np.array(s.rows())), reverse=True)
        assert values == pytest.approx(expected, abs=1e-9)
        # eigenvector residuals: A v = lambda v
        a = np.array(s.rows())
        for lam, vec in zip(values, vectors):
            v = np.array(vec)
            assert np.linalg.norm(a @ v - lam * v) < 1e-8
            assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_exact_input_refused(self):
        s = SymmetricMatrix.from_rows([[Fraction(2), Fraction(1)],
                                       [Fraction(1), Fraction(2)]])
        with pytest.raises(ExactModeError):
            jacobi_eigensystem(s, 1e-10)

    def test_bad_tol_refused(self):
        s = SymmetricMatrix.identity(2, one=1.0, zero=0.0)
        with pytest.raises(ValueError):
            jacobi_eigensystem(s, 0.0)

    def test_1x1(self):
        s = SymmetricMatrix.from_rows([[4.0]])
        values, vectors, off = jacobi_eigensystem(s, 1e-12)
        assert values == [4.0] and vectors == [[1.0]] and off == 0.0


class TestRank:
    def test_projection_rank(self):
        # rank-1 projection onto (1,1)/sqrt(2)
        s = SymmetricMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        assert count_positive_eigenvalues(s) == 1

    def test_full_rank(self):
        s = random_symmetric(4, 7)
        g = SymmetricMatrix.from_rows(
            (np.array(s.rows()) @ np.array(s.rows()).T).tolist()
        )
        assert count_positive_eigenvalues(g) == 4


def test_ordered_sum_adds_left_to_right():
    """No compensation, on every interpreter: 1e16 + 1 rounds back to 1e16
    before -1e16 cancels it."""
    row = [1e16, 1.0, -1e16]
    assert ordered_sum(row) == 0.0 and math.fsum(row) == 1.0
    assert ordered_sum(reversed(row)) == 0.0
    assert ordered_sum([1.0, 1e16, -1e16]) == 0.0
    assert ordered_sum([2, 3], 1) == 6
    assert ordered_sum([Fraction(1, 3)] * 3) == 1
