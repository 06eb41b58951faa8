"""Invariance properties of the oracle and the filter battery.

A scaling answer is a property of the frame, not of how it is written
down: the order of the vectors, an orthogonal change of coordinates, a
rescaling of each vector, or one more copy of a vector (or of zero) must
not move the verdict.  Each property is checked on seeded frames."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from framescale.frames import Frame, is_frame, verify_weights
from framescale.graphs import FrameGraph
from framescale.linalg import SymmetricMatrix
from framescale.report import AnalysisConfig, analyze_graph
from framescale.scaler import (
    build_lp,
    solve_gram,
    solve_strict,
    verify_farkas,
)

SEEDS = range(40)


def oracle(frame: Frame):
    """The strict answer as the report takes it."""
    return solve_gram(frame) or solve_strict(build_lp(frame))


def draw_frame(rng: random.Random) -> Frame:
    """A spanning exact frame of m <= n(n+1)/2 + 2 vectors in R^n, n <= 4,
    with entries p/q; half of them end in the coordinate vectors, each
    scaled by its own p/q, so that they are scalable."""
    while True:
        n = rng.randint(2, 4)
        m = rng.randint(n, n * (n + 1) // 2 + 2)
        vecs = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5)))
                 for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            vecs[m - n:] = [[Fraction(rng.randint(1, 4), rng.randint(1, 3))
                             * (i == j) for j in range(n)] for i in range(n)]
        frame = Frame.from_vectors(vecs, exact=True)
        if is_frame(frame):
            return frame


def transform(u, frame: Frame) -> Frame:
    """The frame u f_1, ..., u f_m for an n x n matrix u, given by rows."""
    return Frame(frame.dim, [[sum(a * x for a, x in zip(row, v))
                              for row in u] for v in frame.vectors],
                 frame.scalar_mode)


def conjugate(u, y: SymmetricMatrix) -> SymmetricMatrix:
    """u y u^t."""
    yr = y.rows()
    uy = [[sum(a * yr[k][j] for k, a in enumerate(row))
           for j in range(y.order)] for row in u]
    return SymmetricMatrix.from_rows(
        [[sum(a * b for a, b in zip(r, row)) for row in u] for r in uy])


def signed_permutation(rng: random.Random, n: int) -> list:
    order = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) * (j == order[i]) for j in range(n)]
            for i in range(n)]


def cayley(rng: random.Random, n: int) -> list:
    """U = (I - S)(I + S)^-1 for a random rational skew-symmetric S: a
    rational orthogonal matrix.  I + S is invertible, since the
    eigenvalues of S are imaginary; Gauss-Jordan on [I + S | I - S] gives
    (I + S)^-1 (I - S), the same U, because the two factors commute."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            s[j][i] = -s[i][j]
    rows = [[(i == j) + s[i][j] for j in range(n)]
            + [(i == j) - s[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def assert_same_answer(before, after):
    assert after.status == before.status
    assert after.margin == before.margin


class TestExactFrames:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_vector_permutation(self, seed):
        rng = random.Random(f"permute:{seed}")
        frame = draw_frame(rng)
        order = rng.sample(range(frame.count), frame.count)
        moved = Frame(frame.dim, [frame.vectors[i] for i in order],
                      frame.scalar_mode)
        before, after = oracle(frame), oracle(moved)
        assert_same_answer(before, after)
        if solve_gram(frame) is not None and before.weights is not None:
            # the Gram solve answers only when the weights are unique
            assert after.weights == tuple(before.weights[i] for i in order)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ["signed_permutation", "cayley"])
    def test_orthogonal_change_of_coordinates(self, seed, kind):
        rng = random.Random(f"{kind}:{seed}")
        frame = draw_frame(rng)
        u = (signed_permutation if kind == "signed_permutation"
             else cayley)(rng, frame.dim)
        turned = transform(u, frame)
        before, after = oracle(frame), oracle(turned)
        assert_same_answer(before, after)
        if before.farkas is not None:
            assert verify_farkas(turned, conjugate(u, before.farkas), 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vector_scaling(self, seed):
        rng = random.Random(f"scale:{seed}")
        frame = draw_frame(rng)
        c = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                      rng.randint(1, 7)) for _ in range(frame.count)]
        scaled = Frame(frame.dim, [[k * x for x in v]
                                   for k, v in zip(c, frame.vectors)],
                       frame.scalar_mode)
        before, after = oracle(frame), oracle(scaled)
        assert after.status == before.status
        if before.weights is not None:
            w = [x / (k * k) for x, k in zip(before.weights, c)]
            assert verify_weights(scaled, w).residual == 0

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("extra", ["zero", "repeat"])
    def test_one_more_vector(self, seed, extra):
        rng = random.Random(f"{extra}:{seed}")
        frame = draw_frame(rng)
        v = ([Fraction(0)] * frame.dim if extra == "zero"
             else frame.vectors[rng.randrange(frame.count)])
        vecs = list(frame.vectors)
        vecs.insert(rng.randint(0, frame.count), v)
        grown = Frame(frame.dim, vecs, frame.scalar_mode)
        assert oracle(grown).status == oracle(frame).status


class TestFloatFrames:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutations(self, seed):
        """Vector and signed coordinate permutations, at unit scale: the
        float images of the exact draws."""
        rng = random.Random(f"float:{seed}")
        frame = draw_frame(rng).to_float()
        order = rng.sample(range(frame.count), frame.count)
        moved = Frame(frame.dim, [frame.vectors[i] for i in order])
        turned = transform(signed_permutation(rng, frame.dim), frame)
        status = oracle(frame).status
        assert oracle(moved).status == status
        assert oracle(turned).status == status


class TestGraphFilters:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relabelled_vertices(self, seed):
        rng = random.Random(f"relabel:{seed}")
        m = rng.randint(3, 12)
        p = rng.choice((0.2, 0.3, 0.5, 0.7))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if rng.random() < p]
        label = rng.sample(range(m), m)
        relabelled = FrameGraph(m, [(label[i], label[j]) for i, j in edges])
        n = rng.randint(1, m - 1)

        def verdicts(g):
            rep = analyze_graph(g, n, AnalysisConfig(filters_only=True))
            return ([(f["filter_id"], f["verdict"]) for f in rep["filters"]],
                    rep["combined_filter_verdict"])

        assert verdicts(relabelled) == verdicts(FrameGraph(m, edges))
