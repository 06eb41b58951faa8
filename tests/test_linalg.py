"""Symmetric matrices and the cyclic Jacobi eigensolver."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from framescale.exactnum import ExactModeError, QuadExt
from framescale.linalg import (
    SymmetricMatrix,
    eliminate,
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


def field_det(rows):
    """Reference determinant: Gaussian elimination with row exchanges over
    Fractions, or over Q(sqrt 3) for QuadExt entries."""
    a = [[x if isinstance(x, QuadExt) else Fraction(x) for x in r]
         for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        i = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i is None:
            return Fraction(0)
        if i != k:
            a[k], a[i], det = a[i], a[k], -det
        det = det * a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


class TestEliminate:
    """The fraction-free elimination of PSD Gram matrices G = V V^t of n
    vectors in R^k: of rank k < n, or with a repeated vector, G is singular
    and must read exactly 0."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "sqrt3"])
    @pytest.mark.parametrize("seed", range(12))
    def test_determinant_of_gram_matrices(self, kind, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        k = rng.randint(max(n - 2, 1), n + 2)

        def draw():
            a = rng.randint(-3, 3)
            if kind == "fraction":
                return Fraction(a, rng.randint(1, 6))
            if kind == "sqrt3":
                return QuadExt(3, a, Fraction(rng.randint(-3, 3), 2))
            return a

        vs = [[draw() for _ in range(k)] for _ in range(n)]
        if seed % 4 == 0 and n > 1:  # a zero pivot at row 1
            vs[1] = vs[0]
        g = [[sum((x * y for x, y in zip(u, v)), draw() * 0) for v in vs]
             for u in vs]
        want = field_det(g)
        if k < n or (seed % 4 == 0 and n > 1):
            assert want == 0
        rhs = [draw() for _ in range(n)]
        for extra in ([], [[b, draw()] for b in rhs]):
            rows = [(g[i][i:] + (extra[i] if extra else []))[::-1]
                    for i in range(n)]
            assert eliminate(rows) == want
            # pivot i is the leading principal minor of order i + 1; from
            # the first zero pivot z on, the elimination stops, and row
            # i > z keeps the minor on rows and columns 0..z-1 and i
            z = next((i for i, row in enumerate(rows) if not row[-1]), n)
            for i, row in enumerate(rows):
                idx = list(range(min(i, z))) + [i]
                assert row[-1] == field_det([[g[a][b] for b in idx]
                                             for a in idx])
        if kind == "int":
            assert all(type(x) is int for row in rows for x in row)


def test_ordered_sum_adds_left_to_right():
    """No compensation, on every interpreter: 1e16 + 1 rounds back to 1e16
    before -1e16 cancels it."""
    row = [1e16, 1.0, -1e16]
    assert ordered_sum(row) == 0.0 and math.fsum(row) == 1.0
    assert ordered_sum(reversed(row)) == 0.0
    assert ordered_sum([1.0, 1e16, -1e16]) == 0.0
    assert ordered_sum([2, 3], 1) == 6
    assert ordered_sum([Fraction(1, 3)] * 3) == 1
