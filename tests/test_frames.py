"""Frame construction, Gram/operator matrices, tightness, Naimark complement."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

import pytest

from framescale.corpus import load, names, onb, random_frame
from framescale.exactnum import QuadExt
from framescale.frames import (
    Frame,
    FrameError,
    Tightness,
    classify_tightness,
    frame_operator,
    gram,
    is_frame,
    naimark_complement,
    random_parseval,
    scale_frame,
    verify_weights,
)
from framescale.graphs import build_graph, zero_pattern_equal
from framescale.linalg import eliminate, symmetric_eigs
from framescale.report import AnalysisConfig, analyze_frame

M1 = load("paper/M1").frame
M2 = load("paper/M2").frame
MERCEDES = load("canonical/mercedes").frame


class TestFrame:
    def test_ragged_vectors_rejected(self):
        with pytest.raises(FrameError):
            Frame.from_vectors([[1.0, 0.0], [1.0]])

    def test_empty_rejected(self):
        with pytest.raises(FrameError):
            Frame.from_vectors([])

    def test_exact_mode_coerces_ints(self):
        fr = Frame.from_vectors([[1, 0], [0, 1]], exact=True)
        assert all(isinstance(x, Fraction) for v in fr.vectors for x in v)

    def test_exact_mode_refuses_floats(self):
        with pytest.raises((FrameError, TypeError)):
            Frame.from_vectors([[0.5, 0.5]], exact=True)

    def test_to_float(self):
        fr = M1.to_float()
        assert not fr.is_exact
        assert fr.vectors[0] == (1.0, 2.0, 0.0, 0.0)


class TestGram:
    def test_m1_block_structure(self):
        g = gram(M1)
        block = [[5, -3], [-3, 5]]
        rows = g.rows()
        for i in range(2):
            for j in range(2):
                assert rows[i][j] == block[i][j]
                assert rows[i + 2][j + 2] == block[i][j]
                assert rows[i][j + 2] == 0

    def test_onb_gram_is_identity(self):
        assert gram(onb(4)).rows() == [
            [1 if i == j else 0 for j in range(4)] for i in range(4)
        ]

    def test_single_vector(self):
        fr = Frame.from_vectors([[3, 4]], exact=True)
        assert gram(fr).rows() == [[25]]


class TestFrameOperator:
    def test_mercedes_tight(self):
        s = frame_operator(MERCEDES)
        for i in range(2):
            for j in range(2):
                want = Fraction(3, 2) if i == j else 0
                assert s.entry(i, j) == want

    def test_m1_diagonal(self):
        s = frame_operator(M1)
        assert s.rows() == [
            [2, 0, 0, 0], [0, 8, 0, 0], [0, 0, 2, 0], [0, 0, 0, 8]
        ]

    def test_onb(self):
        assert frame_operator(onb(3)).rows() == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1]
        ]

    @pytest.mark.parametrize("m, n, seed", [(16, 6, 0), (24, 8, 1),
                                            (48, 10, 2), (64, 12, 3)])
    def test_float_entries_keep_every_bit(self, m, n, seed):
        """Each entry adds the products left to right over the vectors,
        as the per-entry loop does, on Parseval and on Gaussian frames."""
        rng = random.Random(seed)
        gauss = Frame.from_vectors([[rng.gauss(0, 1) for _ in range(n)]
                                    for _ in range(m)])
        for fr in (random_parseval(m, n, seed), gauss):
            want = []
            for p in range(n):
                for q in range(p, n):
                    total = 0.0
                    for v in fr.vectors:
                        total = total + v[p] * v[q]
                    want.append(total.hex())
            s = frame_operator(fr)
            assert [s.entry(p, q).hex() for p in range(n)
                    for q in range(p, n)] == want

    def test_built_once_per_analysis(self, monkeypatch):
        """is_frame and classify_tightness read one operator."""
        built = []
        entries = Frame.__dict__["operator"].func

        def counted(frame):
            built.append(frame)
            return entries(frame)

        prop = cached_property(counted)
        prop.__set_name__(Frame, "operator")
        monkeypatch.setattr(Frame, "operator", prop)
        fr = random_parseval(24, 8, seed=5)
        report = analyze_frame(fr, AnalysisConfig(filters_only=True))
        assert built == [fr]
        assert report["input"]["tightness"]["kind"] == "parseval"
        assert frame_operator(fr) is frame_operator(fr)
        assert built == [fr]

    @pytest.mark.parametrize("frame", [
        pytest.param(Frame.from_vectors(
            [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(2, 3)],
             [Fraction(1, 3), Fraction(-2, 3)]], exact=True), id="L6"),
        pytest.param(MERCEDES, id="mercedes"),
    ])
    def test_exact_analysis_reads_the_exact_operator(self, frame,
                                                     monkeypatch):
        """A whole exact analysis, oracle included, builds
        Frame.exact_operator once, for is_frame and classify_tightness,
        and never the float loop of Frame.operator."""
        built = []
        for name in ("operator", "exact_operator"):
            def counted(fr, entries=Frame.__dict__[name].func, name=name):
                built.append(name)
                return entries(fr)

            prop = cached_property(counted)
            prop.__set_name__(Frame, name)
            monkeypatch.setattr(Frame, name, prop)
        fresh = Frame(frame.dim, frame.vectors, frame.scalar_mode)
        report = analyze_frame(fresh, AnalysisConfig())
        assert built == ["exact_operator"]
        assert report["conclusion"]["verdict"] == "strictly_scalable"

    @pytest.mark.parametrize("m, n, seed", [(6, 3, 0), (16, 6, 1),
                                            (40, 10, 2)])
    def test_float_weights_keep_the_loop_bits(self, m, n, seed):
        """At float weights the residual and the tightness are those of
        S_pq = sum_i w_i * (v_i[p] * v_i[q]) added left to right, on
        Gaussian and on Parseval frames, at weights near 1 (Parseval or
        nearly) and at weights that make a Parseval frame tight."""
        rng = random.Random(f"float-weights:{seed}")
        gauss = Frame.from_vectors([[rng.gauss(0, 1) for _ in range(n)]
                                    for _ in range(m)])
        parseval = random_parseval(m, n, seed)
        cases = [(gauss, [rng.uniform(0.5, 2) for _ in range(m)]),
                 (parseval, [1 + rng.uniform(-1e-10, 1e-10)
                             for _ in range(m)]),
                 (parseval, [1.0] * m), (parseval, [0.3] * m)]
        kinds = set()
        for fr, w in cases:
            s = {}
            for p in range(n):
                for q in range(p, n):
                    total = 0.0
                    for x, v in zip(w, fr.vectors):
                        total = total + x * (v[p] * v[q])
                    s[p, q] = total
            a = s[0, 0]
            for p in range(1, n):
                a = a + s[p, p]
            a = a / n
            residual = max(abs(x - (p == q)) for (p, q), x in s.items())
            gap = max(abs(x - (a if p == q else 0)) for (p, q), x in s.items())
            got = verify_weights(fr, w, 1e-9)
            assert got.residual.hex() == residual.hex()
            if residual < 1e-9:
                want = Tightness("parseval", 1.0)
            elif a > 0 and gap < 1e-9:
                want = Tightness("tight", a)
            else:
                want = Tightness("not_tight")
            assert repr(got.tightness) == repr(want)
            kinds.add(want.kind)
        assert kinds == {"parseval", "tight", "not_tight"}


class TestIsFrame:
    def test_m1_spans(self):
        assert is_frame(M1)

    def test_rank_deficient(self):
        fr = Frame.from_vectors([[1, 0, 0], [0, 1, 0]], exact=True)
        assert not is_frame(fr)

    def test_collinear(self):
        fr = Frame.from_vectors([[1, 0], [1, 0], [2, 0]], exact=True)
        assert not is_frame(fr)

    def test_float_mode(self):
        assert is_frame(M1.to_float())
        assert not is_frame(Frame.from_vectors([[1.0, 0.0], [2.0, 0.0]]))

    def test_operator_overflow(self):
        # S overflows to inf on the diagonal (1e308 + 1e308); the copy
        # scaled by a power of two decides, against the scaled tolerance
        fr = Frame.from_vectors([[1e154, 1e154], [1e154, -1e154],
                                 [3e153, 1.0], [1.0, 1.0]])
        assert not math.isfinite(fr.operator.entry(0, 0))
        assert is_frame(fr)
        assert not is_frame(Frame.from_vectors([[1e200, 0.0], [3e200, 0.0],
                                                [-1e154, 0.0]]))
        # scaling the vectors by 2**k and tol by 4**k keeps the answer, and
        # at k = 520 S overflows
        for k in (0, 200, 520):
            scaled = Frame.from_vectors([[math.ldexp(x, k) for x in v]
                                         for v in ([1.0, 0.0], [0.0, 1e-5])])
            assert is_frame(scaled, math.ldexp(1e-11, 2 * k))
            assert not is_frame(scaled, math.ldexp(1e-9, 2 * k))

    def test_large_finite_entries(self):
        # Jacobi on S itself stalled (exit 3) for many k in 75..153, where
        # S is finite; a trace above 2**200 sends the frame to the copy
        spans = [[1, 2, 0], [0, 1, 3], [2, 0, 1], [1, 1, 1]]
        plane = [[1, 2, 0], [0, 1, 0], [2, 0, 0], [1, 1, 0]]
        for k in range(155):
            def scaled(vectors):
                return Frame.from_vectors([[float(f"{x}e{k}") for x in v]
                                           for v in vectors])
            assert is_frame(scaled(spans))
            assert not is_frame(scaled(plane))


def fraction_rank(vectors) -> int:
    """Reference: Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_tightness(frame: Frame) -> Tightness:
    """Reference: the frame operator summed over Fractions."""
    n = frame.dim
    s = [[sum((v[p] * v[q] for v in frame.vectors), Fraction(0))
          for q in range(n)] for p in range(n)]
    a = s[0][0]
    if any(s[p][q] != (a if p == q else 0)
           for p in range(n) for q in range(n)):
        return Tightness("not_tight")
    if a == 1:
        return Tightness("parseval", Fraction(1))
    return Tightness("tight", a) if a > 0 else Tightness("not_tight")


DENOMINATORS = (1, 2, 3, 5, 7, 8)


def mixed_frame(rng, m, n, rank=None, zero_vectors=0) -> Frame:
    """Seeded exact frame with entries k/d over mixed denominators d; with
    `rank`, every vector is a rational combination of `rank` draws."""
    def draw():
        return [Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))
                for _ in range(n)]

    if rank is None:
        vectors = [draw() for _ in range(m)]
    else:
        basis = [draw() for _ in range(rank)]
        vectors = []
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
                      for _ in basis]
            vectors.append([sum((c * b[p] for c, b in zip(coeffs, basis)),
                                Fraction(0)) for p in range(n)])
    for i in rng.sample(range(m), zero_vectors):
        vectors[i] = [Fraction(0)] * n
    return Frame.from_vectors(vectors, exact=True)


class TestIntegerImage:
    def test_one_common_multiple(self):
        fr = Frame.from_vectors(
            [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(-5, 4)]], exact=True
        )
        image = fr.integer_image
        assert image.scale == 12
        assert image.vectors == ((6, 0), (4, -15))

    @pytest.mark.parametrize("seed", range(20))
    def test_uniform_scale_of_every_vector(self, seed):
        fr = mixed_frame(random.Random(seed), 7, 4)
        image = fr.integer_image
        assert all(type(x) is int for u in image.vectors for x in u)
        assert [[Fraction(x, image.scale) for x in u]
                for u in image.vectors] == [list(v) for v in fr.vectors]

    def test_built_once_per_frame(self):
        assert M1.integer_image is M1.integer_image

    def test_none_off_the_rationals(self):
        assert MERCEDES.integer_image is None
        assert M1.to_float().integer_image is None


class TestBareissRank:
    """Exact spanning: `is_frame` eliminates the frame operator fraction-free
    (T on the integer image, S over Q(sqrt d)); ranks over Fractions are
    the reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_fraction_elimination(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = rng.randint(1, 9)  # m < n included
        rank = rng.choice([None, rng.randint(0, min(m, n))])
        fr = mixed_frame(rng, m, n, rank=rank,
                         zero_vectors=rng.randint(0, m // 3))
        want = fraction_rank(fr.vectors)
        assert is_frame(fr) == (want == n)
        # the Fraction operator S = T / L^2 takes the field's division
        s = fr.operator.rows()
        assert bool(eliminate([r[p:][::-1] for p, r in enumerate(s)])) == (
            want == n)
        if rank is not None:
            assert want <= rank

    def test_fewer_vectors_than_dimensions(self):
        # each matrix read both ways: its rows as vectors, then its columns
        def frame(vectors):
            return Frame.from_vectors(vectors, exact=True)

        assert not is_frame(frame([(0, 2, 1), (0, 4, 2)]))
        assert not is_frame(frame([(0, 0), (2, 4), (1, 2)]))
        assert not is_frame(frame([(3, 0, 0, 1)]))
        assert is_frame(frame([(3,), (0,), (0,), (1,)]))

    def test_zero_vectors(self):
        assert not is_frame(Frame.from_vectors([(0, 0)] * 3, exact=True))
        assert not is_frame(Frame.from_vectors(
            [(0, 0), (2, -1), (0, 0), (-4, 2)], exact=True))
        assert is_frame(Frame.from_vectors(
            [(0, 0), (2, -1), (0, 0), (1, 2)], exact=True))
        # a zero first pivot: no vector has a first coordinate
        assert not is_frame(Frame.from_vectors([(0, 1), (0, 2), (0, 3)],
                                               exact=True))

    def test_quadratic_field(self):
        assert is_frame(MERCEDES)
        assert not is_frame(Frame(2, MERCEDES.vectors[:1] * 3, MERCEDES.scalar_mode))
        # f_2 = f_1 * sqrt(3): parallel over Q(sqrt 3), not over Q
        f = MERCEDES.vectors[1]
        r3 = QuadExt(3, 0, 1)
        assert not is_frame(Frame(2, [f, tuple(r3 * x for x in f), f],
                                  MERCEDES.scalar_mode))


class TestTightness:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_fraction_operator(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        if seed % 3 == 0:  # a multiple of a repeated ONB: tight
            c = Fraction(rng.randint(1, 5), rng.choice(DENOMINATORS))
            fr = Frame.from_vectors(
                [[c if i == j else 0 for j in range(n)] for i in range(n)]
                * rng.randint(1, 3), exact=True)
        else:
            fr = mixed_frame(rng, rng.randint(n, 2 * n + 2), n,
                             zero_vectors=rng.randint(0, 1))
        assert classify_tightness(fr) == fraction_tightness(fr)

    def test_rational_parseval(self):
        fr = Frame.from_vectors(
            [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]],
            exact=True)
        assert classify_tightness(fr) == Tightness("parseval", Fraction(1))

    def test_onb_times_two_thirds_tight(self):
        fr = scale_frame(onb(3), [Fraction(2, 3)] * 3)
        assert classify_tightness(fr) == Tightness("tight", Fraction(4, 9))

    def test_rational_not_tight(self):
        fr = Frame.from_vectors(
            [[Fraction(1, 2), 0], [0, Fraction(1, 3)]], exact=True)
        assert classify_tightness(fr) == Tightness("not_tight")

    def test_equal_diagonal_with_off_diagonal_not_tight(self):
        fr = Frame.from_vectors([[Fraction(1, 2), Fraction(1, 2)]] * 4,
                                exact=True)
        assert fraction_tightness(fr) == Tightness("not_tight")
        assert classify_tightness(fr) == Tightness("not_tight")

    def test_zero_frame_not_tight(self):
        fr = Frame.from_vectors([[0, 0], [0, 0]], exact=True)
        assert classify_tightness(fr) == Tightness("not_tight")

    def test_onb_parseval(self):
        assert classify_tightness(onb(5)).kind == "parseval"

    def test_mercedes_tight_bound(self):
        t = classify_tightness(MERCEDES)
        assert t.kind == "tight"
        assert t.bound == Fraction(3, 2)

    def test_m2_not_tight(self):
        assert classify_tightness(M2).kind == "not_tight"

    def test_float_parseval(self):
        fr = random_parseval(6, 3, 11)
        assert classify_tightness(fr, 1e-9).kind == "parseval"


def _rotated_onbs(n, scales):
    """Copies c * R * ONB in R^n, one per c in scales, R the rational
    rotation by (3/5, 4/5) in the first two coordinates: tight with bound
    the sum of the c^2, Parseval only when that sum is 1."""
    rot = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    vectors = []
    for k, c in enumerate(scales):
        for i in range(n):
            v = [c if j == i else 0 for j in range(n)]
            if k % 2 and i < 2:
                v[:2] = [c * x for x in rot[i]]
            vectors.append(v)
    return Frame.from_vectors(vectors, exact=True)


UNIT_WEIGHT_FRAMES = (
    [pytest.param(load(name).frame, id=name)
     for name in names() if load(name).frame is not None]
    + [pytest.param(onb(n), id=f"onb{n}") for n in (1, 3)]
    + [pytest.param(random_frame(7, 3, seed), id=f"random_frame{seed}")
       for seed in range(3)]
    + [pytest.param(_rotated_onbs(n, scales), id=f"rotated{n}_{i}")
       for n in (2, 3)
       for i, scales in enumerate([(Fraction(2, 3),),
                                   (Fraction(1, 2), Fraction(2, 7)),
                                   (Fraction(3, 5), Fraction(4, 5)),
                                   (Fraction(5, 4), 3, Fraction(1, 8))])]
    + [pytest.param(Frame.from_vectors(vectors, exact=True), id=name)
       for name, vectors in [
           ("sqrt2_parseval", [[QuadExt(2, 0, Fraction(1, 2))] * 2,
                               [QuadExt(2, 0, Fraction(-1, 2)),
                                QuadExt(2, 0, Fraction(1, 2))]]),
           ("sqrt2_tight", [[QuadExt(2, 0, 1), 0], [0, QuadExt(2, 0, 1)]]),
           ("sqrt2_not_tight", [[1, QuadExt(2, 0, 1)], [0, 1],
                                [QuadExt(2, 1, 1), 2]]),
       ]]
    + [pytest.param(random_parseval(m, n, seed), id=f"parseval{m}_{n}_{seed}")
       for m, n, seed in [(5, 3, 1), (9, 4, 2), (12, 6, 3)]]
    + [pytest.param(MERCEDES.to_float(), id="float_mercedes"),
       pytest.param(M1.to_float(), id="float_M1")]
)


@pytest.mark.parametrize("tol", [1e-8, 1e-9])
@pytest.mark.parametrize("frame", UNIT_WEIGHT_FRAMES)
def test_tightness_is_the_weight_check_at_unit_weights(frame, tol):
    assert classify_tightness(frame, tol) == verify_weights(
        frame, [1] * frame.count, tol).tightness


class TestScaleFrame:
    def test_all_ones_identity(self):
        out = scale_frame(M1, [1, 1, 1, 1])
        assert out.vectors == M1.vectors

    def test_mercedes_to_parseval(self):
        a = math.sqrt(2 / 3)
        out = scale_frame(MERCEDES.to_float(), [a, a, a])
        assert classify_tightness(out, 1e-9).kind == "parseval"

    def test_zero_weights_zero_vectors(self):
        out = scale_frame(M1, [1, 1, 0, 0])
        assert out.vectors[2] == (0, 0, 0, 0)
        assert out.vectors[3] == (0, 0, 0, 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(FrameError):
            scale_frame(M1, [1, 1, 1, -1])

    def test_exact_quadext_weight(self):
        # sqrt(2/3) = sqrt(6)/3 lives in Q(sqrt(6)); mixed-field scaling
        # falls back to float
        w = [math.sqrt(2 / 3)] * 3
        out = scale_frame(MERCEDES.to_float(), w)
        assert not out.is_exact


class TestRandomParseval:
    @pytest.mark.parametrize("m,n", [(5, 3), (4, 2), (6, 6), (9, 4)])
    def test_parseval_within_1e12(self, m, n):
        fr = random_parseval(m, n, 7)
        s = frame_operator(fr)
        for i in range(n):
            for j in range(i, n):
                want = 1.0 if i == j else 0.0
                assert abs(s.entry(i, j) - want) < 1e-12

    def test_square_case_is_orthonormal(self):
        fr = random_parseval(4, 4, 1)
        g = build_graph(fr, 1e-10)
        assert not g.edges

    def test_deterministic(self):
        assert random_parseval(4, 2, 1).vectors == random_parseval(4, 2, 1).vectors


class TestNaimark:
    def test_basic_shape_and_pattern(self):
        fr = random_parseval(5, 2, 3)
        comp = naimark_complement(fr)
        assert comp.dim == 3 and comp.count == 5
        assert classify_tightness(comp, 1e-9).kind == "parseval"
        assert zero_pattern_equal(build_graph(fr, 1e-8),
                                  build_graph(comp, 1e-8))

    def test_square_rejected(self):
        with pytest.raises(FrameError):
            naimark_complement(random_parseval(3, 3, 1))

    def test_non_parseval_rejected(self):
        with pytest.raises(FrameError):
            naimark_complement(M1.to_float())

    def test_exact_mode_rejected(self):
        fr = Frame.from_vectors([[1, 0], [0, 1], [0, 0]], exact=True)
        with pytest.raises((FrameError, TypeError)):
            naimark_complement(fr)

    def test_normalized_mercedes_complete_in_r1(self):
        fr = scale_frame(MERCEDES.to_float(), [math.sqrt(2 / 3)] * 3)
        comp = naimark_complement(fr)
        assert comp.dim == 1
        g = build_graph(comp, 1e-10)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)

    def test_double_complement_parseval(self):
        fr = random_parseval(7, 3, 5)
        comp2 = naimark_complement(naimark_complement(fr))
        assert comp2.dim == 3
        assert classify_tightness(comp2, 1e-9).kind == "parseval"


class TestSpectralIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_gram_vs_operator_nonzero_eigs(self, seed):
        fr = random_parseval(5 + seed % 3, 3, seed).to_float()
        ge = [x for x in symmetric_eigs(gram(fr), 1e-12).eigenvalues
              if abs(x) > 1e-8]
        se = [x for x in symmetric_eigs(frame_operator(fr), 1e-12).eigenvalues
              if abs(x) > 1e-8]
        assert ge == pytest.approx(se, abs=1e-8)
