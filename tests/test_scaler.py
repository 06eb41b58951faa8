"""Feasibility oracle: LP assembly, simplex, certificates, verification."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from framescale.corpus import load, names, onb, random_frame
from framescale.exactnum import QuadExt
from framescale.frames import (
    DEFAULT_TOL,
    Frame,
    Tightness,
    classify_tightness,
    random_parseval,
    scale_frame,
)
from framescale.linalg import SymmetricMatrix, ordered_sum
from framescale import scaler
from framescale.report import oracle_json, scale_report
from framescale.scaler import (
    WeightReport,
    build_lp,
    solve_gram,
    solve_scalable,
    solve_strict,
    verify_farkas,
    verify_weights,
)

M1 = load("paper/M1").frame
M2 = load("paper/M2").frame
M = load("paper/M").frame
MERCEDES = load("canonical/mercedes").frame


def _system(lp):
    """A and b of a rational LP, from the scaled system the simplex reads."""
    c = lp.scaled_rhs[0]
    a = tuple(tuple(Fraction(x, c) for x in row) for row in lp.scaled_matrix)
    return a, tuple(Fraction(x, c) for x in lp.scaled_rhs)


class TestBuildLP:
    def test_row_count_and_rhs(self):
        lp = build_lp(M1)
        a, b = _system(lp)
        assert lp.frame is M1
        assert len(a) == len(b) == 10 and all(len(row) == 4 for row in a)
        # rhs is vec of the identity over the upper triangle
        for (p, q), bv in zip(lp.row_index, b):
            assert bv == (1 if p == q else 0)

    def test_m1_rows(self):
        lp = build_lp(M1)
        rows = dict(zip(lp.row_index, _system(lp)[0]))
        assert list(rows[(0, 0)]) == [1, 1, 0, 0]
        assert list(rows[(0, 1)]) == [2, -2, 0, 0]
        assert list(rows[(1, 1)]) == [4, 4, 0, 0]

    def test_two_basis_vectors_in_r2(self):
        lp = build_lp(Frame.from_vectors([[1, 0], [0, 1]], exact=True))
        rows = dict(zip(lp.row_index, _system(lp)[0]))
        assert list(rows[(0, 0)]) == [1, 0]
        assert list(rows[(0, 1)]) == [0, 0]
        assert list(rows[(1, 1)]) == [0, 1]

    def test_single_vector_infeasible_shape(self):
        lp = build_lp(Frame.from_vectors([[1, 1]], exact=True))
        a = _system(lp)[0]
        assert len(a) == 3 and all(len(row) == 1 for row in a)


    @pytest.mark.parametrize("seed", range(20))
    def test_entries_are_the_fraction_products(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        fr = Frame.from_vectors(
            [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7, 8)))
              for _ in range(n)] for _ in range(m)], exact=True)
        lp = build_lp(fr)
        c = fr.integer_image.scale ** 2
        assert lp.scaled_rhs[0] == c and lp.frame is fr
        a, b = _system(lp)
        for (p, q), row, scaled, bv, scaled_b in zip(
                lp.row_index, a, lp.scaled_matrix, b, lp.scaled_rhs):
            assert list(row) == [v[p] * v[q] for v in fr.vectors]
            assert list(scaled) == [c * v[p] * v[q] for v in fr.vectors]
            assert all(type(x) is int for x in scaled)
            assert bv == (1 if p == q else 0) and scaled_b == c * bv


class TestSolveScalable:
    def test_m1_infeasible_exact(self):
        res = solve_scalable(build_lp(M1))
        assert res.status == "infeasible"
        assert res.farkas is not None
        assert verify_farkas(M1, res.farkas, 0)

    def test_m1_known_certificate(self):
        y = SymmetricMatrix.from_rows([
            [Fraction(4, 6), 0, 0, 0],
            [0, Fraction(-1, 6), 0, 0],
            [0, 0, Fraction(4, 6), 0],
            [0, 0, 0, Fraction(-1, 6)],
        ])
        assert verify_farkas(M1, y, 0)

    def test_m2_infeasible(self):
        assert solve_scalable(build_lp(M2)).status == "infeasible"

    def test_mercedes_weights(self):
        res = solve_scalable(build_lp(MERCEDES))
        assert res.status == "feasible"
        assert list(res.weights) == [Fraction(2, 3)] * 3
        assert res.scalings == pytest.approx([math.sqrt(2 / 3)] * 3)

    def test_onb_weights_one(self):
        res = solve_scalable(build_lp(onb(4)))
        assert res.status == "feasible"
        assert list(res.weights) == [1] * 4

    def test_float_mode_agrees(self):
        for fr, want in ((M1, "infeasible"), (MERCEDES, "feasible")):
            res = solve_scalable(build_lp(fr.to_float()))
            assert res.status == want

    def test_m_oracle_verifies_either_branch(self):
        res = solve_scalable(build_lp(M))
        if res.status == "feasible":
            assert verify_weights(M, res.weights).residual == 0
        else:
            assert verify_farkas(M, res.farkas, 0)


class TestSolveStrict:
    def test_mercedes_margin(self):
        res = solve_strict(build_lp(MERCEDES))
        assert res.status == "strictly_feasible"
        assert res.margin == Fraction(2, 3)

    def test_duplicated_direction_split(self):
        fr = Frame.from_vectors(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [1, 0, 0, 0]],
            exact=True,
        )
        res = solve_strict(build_lp(fr))
        assert res.status == "strictly_feasible"
        w = list(res.weights)
        assert w[0] + w[4] == 1 and w[1] == w[2] == w[3] == 1
        assert 0 < res.margin <= Fraction(1, 2)

    def test_m2_infeasible_with_certificate(self):
        res = solve_strict(build_lp(M2))
        assert res.status == "infeasible"
        assert verify_farkas(M2, res.farkas, 0)

    def test_boundary_case(self):
        # e1, e2, e3: scalable only with the third weight pinned by spanning;
        # adding a vector orthogonal to nothing... use e1,e1,e2 in R^2:
        # w1 + w2 = 1, w3 = 1 strictly feasible; instead force a zero weight
        # with e1,e2,(1,0) scaled? e1,e2 plus (3,4)/5 needs w3 = 0.
        fr = Frame.from_vectors(
            [[1, 0], [0, 1], [Fraction(3, 5), Fraction(4, 5)]], exact=True
        )
        res = solve_strict(build_lp(fr))
        assert res.status == "boundary"
        assert min(res.weights) == 0

    def test_onb_strict(self):
        res = solve_strict(build_lp(onb(3)))
        assert res.status == "strictly_feasible" and res.margin == 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_float_drift_does_not_loop(self, seed):
        # a dense tableau let float drift leave a basic column at reduced
        # cost -1e-10 here, and entering it pivoted in place forever; the
        # condensed tableau stores no basic column, so none can drift
        fr = random_parseval(32, 10, seed)
        res = solve_strict(build_lp(fr))
        assert res.status == "strictly_feasible"
        assert verify_weights(fr, res.weights).residual < 1e-7

    @pytest.mark.parametrize("m, n, seed", [(52, 12, 120), (56, 12, 8)])
    def test_artificials_leave_for_nonbasic_columns(self, m, n, seed):
        # a dense tableau let float drift leave entries above PIVOT_TOL in
        # basic columns of an artificial's row; pivoting one in listed a
        # column twice in the basis, and (52, 12, 120) answered
        # numerically_ambiguous.  The condensed tableau offers only
        # nonbasic columns to drive an artificial out
        fr = random_parseval(m, n, seed)
        res = solve_strict(build_lp(fr))
        assert res.status == "strictly_feasible"
        report = verify_weights(fr, res.weights)
        assert report.residual < 1e-7
        assert report.tightness.kind == "parseval"


@pytest.mark.parametrize("k", [1, 10, 40, 200, 900])
def test_scaling_of_irrational_weights(k):
    """(sqrt 2 - 1)^k = a + b*sqrt 2 with a and b of opposite signs: the
    float of a + b*sqrt 2 loses all its digits to cancellation from k = 40
    on, and at k = 900 a and b lie above the float range and the weight
    below it.  The scaling (sqrt 2 - 1)^(k/2) comes out within 1 ulp."""
    w = QuadExt(2, 1)
    for _ in range(k):
        w = w * QuadExt(2, -1, 1)
    with localcontext() as ctx:
        ctx.prec = 400
        want = float(((Decimal(2).sqrt() - 1) ** k).sqrt())
    assert abs(scaler._scaling(w) - want) <= math.ulp(want)


def test_irrational_weights_take_no_float(monkeypatch):
    """The scaling of a + b*sqrt(d), b != 0, comes from exact arithmetic
    alone; a rational weight in a QuadExt still reads its float."""
    w = QuadExt(2, 3, 2)  # (1 + sqrt 2)^2
    monkeypatch.setattr(QuadExt, "__float__", lambda self: 1 / 0)
    assert abs(scaler._scaling(w) - (1 + math.sqrt(2))) <= 4e-16
    assert scaler._scaling(QuadExt(2, -1, Fraction(1, 2))) == 0.0
    monkeypatch.undo()
    assert scaler._scaling(QuadExt(2, Fraction(9, 4), 0)) == 1.5


class TestOneSolve:
    def test_feasible_projection_keeps_weights(self):
        fr = Frame.from_vectors([[1, 0], [0, 1], [1, 0], [0, 1]], exact=True)
        st = solve_strict(build_lp(fr))
        nn = solve_scalable(build_lp(fr))
        assert nn.status == "feasible" and nn.margin is None
        assert nn.weights == st.weights and nn.residual == st.residual
        # the nonneg weights are the max-floor weights
        assert min(nn.weights) == st.margin > 0

    def test_boundary_projects_to_feasible(self):
        fr = Frame.from_vectors(
            [[1, 0], [0, 1], [Fraction(3, 5), Fraction(4, 5)]], exact=True
        )
        assert solve_scalable(build_lp(fr)).status == "feasible"

    def test_infeasible_projection_keeps_certificate(self):
        st = solve_strict(build_lp(M1))
        nn = solve_scalable(build_lp(M1))
        assert nn == st and nn.status == "infeasible"


class TestScalingInvariance:
    """Multiplying every vector by c multiplies A by c^2.  The pivot path is
    the same, so the weights and the margin scale by 1/c^2 and the
    normalized certificate and the verdict stay as they are.  c = 2/3 gives
    the rational LP new denominators to clear; Mercedes takes the Q(sqrt 3)
    path."""

    C = Fraction(2, 3)

    @pytest.mark.parametrize("frame, status, margin", [
        (M1, "infeasible", None),
        (MERCEDES, "strictly_feasible", Fraction(3, 2)),
        (random_frame(4, 2, 1), "boundary", 0),
    ], ids=["M1", "mercedes", "random_frame_boundary"])
    def test_scaled_frame(self, frame, status, margin):
        base = solve_strict(build_lp(frame))
        scaled = solve_strict(
            build_lp(scale_frame(frame, [self.C] * frame.count))
        )
        assert base.status == scaled.status == status
        if status == "infeasible":
            assert scaled.farkas.rows() == base.farkas.rows()
            return
        factor = 1 / self.C ** 2
        assert scaled.weights == tuple(w * factor for w in base.weights)
        assert scaled.margin == base.margin * factor == margin

    @pytest.mark.parametrize("frame", [
        M1, MERCEDES, random_frame(4, 2, 1),
    ], ids=["M1", "mercedes", "random_frame_boundary"])
    def test_common_multiple_of_the_system(self, frame, monkeypatch):
        """The simplex reads c * [A | b]; another common factor k takes the
        same pivots to the same answer."""
        pivots = []
        pivot = scaler._Tableau.pivot

        def recorded(tab, row, col):
            pivots.append((row, col))
            pivot(tab, row, col)

        monkeypatch.setattr(scaler._Tableau, "pivot", recorded)
        lp = build_lp(frame)
        base = solve_strict(lp)
        base_pivots, pivots[:] = pivots[:], []
        k = 36
        scaled = solve_strict(lp._replace(
            scaled_matrix=tuple(tuple(k * a for a in r)
                                for r in lp.scaled_matrix),
            scaled_rhs=tuple(k * b for b in lp.scaled_rhs),
        ))
        assert base_pivots and pivots == base_pivots
        assert scaled == base


class TestVerifiers:
    def test_verify_weights_mercedes(self):
        rep = verify_weights(MERCEDES, [Fraction(2, 3)] * 3)
        assert rep.residual == 0
        assert rep.tightness.kind == "parseval"

    def test_verify_weights_onb(self):
        rep = verify_weights(onb(3), [1, 1, 1])
        assert rep.residual == 0 and rep.tightness.kind == "parseval"

    def test_verify_weights_m1_half(self):
        rep = verify_weights(M1, [Fraction(1, 2)] * 4)
        assert rep.residual == 3  # entry (2,2): 4*(1/2+1/2) - 1
        assert rep.tightness.kind != "parseval"

    @pytest.mark.parametrize("weights", [[1, 1], [Fraction(1, 3), 2]])
    def test_verify_weights_residual_beyond_float_range(self, weights):
        """max|T - c * I| / c beyond the float range reads math.inf; unit
        weights, the tightness test, leave the residual None."""
        big = Frame.from_vectors([[10 ** 999, 0], [0, 1]], exact=True)
        rep = verify_weights(big, weights)
        assert rep.residual == math.inf and rep.tightness.kind == "not_tight"
        assert verify_weights(big).residual is None

    @pytest.mark.parametrize("exponent", [200, 400])
    def test_float_weights_on_a_fine_rational_frame(self, exponent):
        """Float weights on a rational frame of scale L = 10**exponent are
        read exactly, so no float meets a table int L^2 * f_i[p] * f_i[q]
        beyond the float range: the answers are those of the same weights
        as Fractions."""
        x = Fraction(1, 10 ** exponent)
        fr = Frame.from_vectors([[1, x], [0, 1]], exact=True)
        rep = verify_weights(fr, [0.5, 0.25])
        assert rep.residual == 0.75 and rep.tightness.kind == "not_tight"
        assert rep.residual == verify_weights(
            fr, [Fraction(1, 2), Fraction(1, 4)]).residual
        # 0.5 * (e1 e1^t + e2 e2^t) is tight; x e1 has weight 0
        fr = Frame.from_vectors([[1, 0], [0, 1], [x, 0]], exact=True)
        rep = verify_weights(fr, [0.5, 0.5, 0.0])
        assert rep == WeightReport(0.5, Tightness("tight", 0.5))

    def test_float_weights_on_a_quadratic_frame(self):
        """Float weights on a frame in Q(sqrt 2) are read exactly, as on a
        rational frame, and the tight test compares a float with tol."""
        r2 = QuadExt(2, 0, 1)
        fr = Frame.from_vectors([[1, r2], [0, 1]], exact=True)
        rep = verify_weights(fr, [0.5, 0.25])
        assert rep.residual == float(r2 / 2)
        assert rep.tightness.kind == "not_tight"
        assert rep.residual == verify_weights(
            fr, [Fraction(1, 2), Fraction(1, 4)]).residual
        # 0.5 * e1 e1^t + 0.25 * e2 e2^t + 0.125 * 2 e2 e2^t = 0.5 * I
        fr = Frame.from_vectors([[1, 0], [0, 1], [0, r2]], exact=True)
        rep = verify_weights(fr, [0.5, 0.25, 0.125])
        assert rep == WeightReport(0.5, Tightness("tight", 0.5))

    @pytest.mark.parametrize("scale", [3, 10 ** 400], ids=["L=3", "L=1e400"])
    @pytest.mark.parametrize("w, residual", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf")])
    def test_non_finite_float_weights(self, scale, w, residual):
        """A nan or infinite weight gives the answer of a small scale at
        every scale L, with no product of a float and a table int."""
        fr = Frame.from_vectors([[1, Fraction(1, scale)], [0, 1]],
                                exact=True)
        rep = verify_weights(fr, [w, 0.25])
        assert repr(rep.residual) == residual
        assert rep.tightness == Tightness("not_tight")

    def test_verify_farkas_zero_matrix_fails(self):
        y = SymmetricMatrix.identity(4, one=Fraction(0), zero=Fraction(0))
        assert not verify_farkas(M1, y, 0)

    def test_verify_farkas_feasible_frame_has_none(self):
        rng = random.Random(5)
        for _ in range(10):
            rows = [[0.0] * 2 for _ in range(2)]
            for i in range(2):
                for j in range(i, 2):
                    rows[i][j] = rows[j][i] = rng.uniform(-1, 1)
            tr = rows[0][0] + rows[1][1]
            if abs(tr) < 1e-9:
                continue
            y = SymmetricMatrix.from_rows(
                [[x / tr for x in row] for row in rows]
            )
            assert not verify_farkas(MERCEDES.to_float(), y, 1e-9)

    def test_scaled_frame_is_parseval(self):
        res = solve_scalable(build_lp(MERCEDES.to_float()))
        out = scale_frame(MERCEDES.to_float(), res.scalings)
        assert classify_tightness(out, 1e-9).kind == "parseval"


def _assert_weights_or_certificate(fr):
    res = solve_scalable(build_lp(fr))
    if res.status == "feasible":
        assert verify_weights(fr, res.weights).residual == 0
        assert all(w >= 0 for w in res.weights)
    else:
        assert res.status == "infeasible"
        assert verify_farkas(fr, res.farkas, 0)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(30))
    def test_exact_float_agreement(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        fr = random_frame(m, n, seed)
        exact = solve_scalable(build_lp(fr))
        approx = solve_scalable(build_lp(fr.to_float()))
        if approx.status != "numerically_ambiguous":
            assert exact.status == approx.status

    @pytest.mark.parametrize("seed", range(20))
    def test_feasible_weights_verify(self, seed):
        fr = random_parseval(6, 3, seed)
        res = solve_scalable(build_lp(fr))
        assert res.status == "feasible"
        assert verify_weights(fr, res.weights, 1e-7).residual < 1e-7

    @pytest.mark.parametrize("seed", range(20))
    def test_dichotomy_weights_or_certificate(self, seed):
        _assert_weights_or_certificate(random_frame(6, 3, seed + 100))

    @pytest.mark.parametrize("seed", range(20))
    def test_fractional_entries_weights_or_certificate(self, seed):
        # each entry over its own denominator, so the LP rows have
        # different denominators; the oracle must clear them as one
        rng = random.Random(seed)
        fr = random_frame(6, 3, seed + 100)
        _assert_weights_or_certificate(Frame.from_vectors(
            [[x / rng.randint(1, 5) for x in v] for v in fr.vectors],
            exact=True,
        ))

    @pytest.mark.parametrize("seed", range(15))
    def test_strict_consistent_with_nonneg(self, seed):
        fr = random_frame(5, 3, seed + 300)
        nn = solve_scalable(build_lp(fr))
        st = solve_strict(build_lp(fr))
        if nn.status == "infeasible":
            assert st.status == "infeasible"
        else:
            assert st.status in ("strictly_feasible", "boundary")
            if st.status == "strictly_feasible":
                assert min(st.weights) > 0


DENOMINATORS = (1, 2, 3, 5, 7, 8)


def mixed_frame(seed: int) -> Frame:
    """Seeded exact frame whose entries have denominators in DENOMINATORS.
    By seed % 4: fewer vectors than dimensions, rank-deficient, m >= n
    random, or random vectors plus scaled coordinate vectors (scalable)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))

    kind = seed % 4
    if kind == 0:
        vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
    elif kind == 1:
        vecs = [[entry() for _ in range(n - 1)] + [0]
                for _ in range(rng.randint(n, 7))]
    elif kind == 2:
        vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(n, 7))]
    else:
        vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(1, 4))]
        vecs += [[Fraction(rng.randint(1, 4), rng.choice(DENOMINATORS))
                  if j == i else 0 for j in range(n)] for i in range(n)]
    return Frame.from_vectors(vecs, exact=True)


EXACT_FRAMES = (
    [pytest.param(load(name).frame, id=name)
     for name in names() if load(name).frame is not None]
    + [pytest.param(mixed_frame(seed), id=f"mixed{seed}") for seed in range(40)]
)


@pytest.mark.parametrize("frame", EXACT_FRAMES)
def test_exact_feasible_residual_is_zero(frame):
    """Exact weights solve the system exactly; the report says so."""
    for answer in oracle_json(solve_strict(build_lp(frame))).values():
        if "weights" in answer:
            assert answer["residual"] == 0.0


def reference_classify(s, tol):
    """Parseval / tight / neither for a frame operator S: an exact S
    compared with a * I, a float S within tol."""
    n = s.order
    if s.is_exact():
        a = s.entry(0, 0)
        if s == SymmetricMatrix.identity(n, one=a, zero=0):
            if a == 1:
                return Tightness("parseval", Fraction(1))
            if a > 0:
                return Tightness("tight", a / Fraction(1))
        return Tightness("not_tight")
    a = float(s.trace()) / n
    dev_ident = max(abs(float(s.entry(i, j)) - (1.0 if i == j else 0.0))
                    for i in range(n) for j in range(i, n))
    if dev_ident < tol:
        return Tightness("parseval", 1.0)
    dev_tight = max(abs(float(s.entry(i, j)) - (a if i == j else 0.0))
                    for i in range(n) for j in range(i, n))
    if a > 0 and dev_tight < tol:
        return Tightness("tight", a)
    return Tightness("not_tight")


def reference_verify_weights(frame, weights, tol=DEFAULT_TOL):
    """The Fraction-arithmetic weight check, kept as the reference for
    the integer-image path of verify_weights."""
    weights = list(weights)
    if len(weights) != frame.count:
        raise ValueError("weight count mismatch")
    exact = frame.is_exact and all(
        not isinstance(w, float) for w in weights
    )
    zero = Fraction(0) if exact else 0.0

    def entry(p, q):
        total = zero
        for w, v in zip(weights, frame.vectors):
            total = total + w * (v[p] * v[q])
        return total

    s = SymmetricMatrix.from_function(frame.dim, entry)
    residual = max(
        abs(float(s.entry(i, j)) - (1.0 if i == j else 0.0))
        for i in range(frame.dim)
        for j in range(i, frame.dim)
    )
    return WeightReport(residual, reference_classify(s, tol))


def _quad(v, y):
    n = len(v)
    return sum(v[p] * y.entry(p, q) * v[q] for p in range(n) for q in range(n))


def _moved(frame, y, target):
    """y with one diagonal entry moved until <f_i, y f_i> = target for the
    first nonzero f_i."""
    v = next(v for v in frame.vectors if any(v))
    p = next(p for p, x in enumerate(v) if x)
    rows = y.rows()
    rows[p][p] += (target - _quad(v, y)) / (v[p] * v[p])
    return SymmetricMatrix.from_rows(rows)


def _farkas_holds(frame, y, tol):
    """The Farkas conditions in exact arithmetic, tol taken at its exact
    binary value."""
    t = Fraction(tol)
    return (all(_quad(v, y) <= t for v in frame.vectors)
            and y.trace() >= 1 - t)


class TestVerifiersOnMixedDenominators:
    """verify_weights (on the integer image) gives the Fraction reference's
    answers, and verify_farkas the exact Farkas conditions, on the
    oracle's own answers and on tampered ones."""

    @staticmethod
    def _same_weights(frame, w, tol):
        new = verify_weights(frame, w, tol)
        ref = reference_verify_weights(frame, w, tol)
        assert new.tightness == ref.tightness
        assert (new.residual == 0) == (ref.residual == 0)
        assert new.residual == pytest.approx(ref.residual, rel=1e-12)
        return new

    @pytest.mark.parametrize("tol", [0, 1e-8])
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mixed_denominators(self, seed, tol):
        fr = mixed_frame(seed)
        res = solve_strict(build_lp(fr))
        if res.weights is not None:
            assert self._same_weights(fr, res.weights, tol).residual == 0
            w = list(res.weights)
            w[seed % len(w)] += Fraction(1, 7)
            assert self._same_weights(fr, w, tol).residual > 0
            # I/n is no certificate for a frame with a nonzero vector
            y = SymmetricMatrix.identity(fr.dim, one=Fraction(1, fr.dim),
                                         zero=Fraction(0))
            assert not verify_farkas(fr, y, tol)
        else:
            assert res.status == "infeasible"
            assert verify_farkas(fr, res.farkas, tol)
            assert not verify_farkas(fr, _moved(fr, res.farkas, 1), tol)
            # one quadratic form at tol / 2 and at 2 * tol
            for target in (Fraction(tol) / 2, 2 * Fraction(tol)):
                y = _moved(fr, res.farkas, target)
                assert verify_farkas(fr, y, tol) == _farkas_holds(fr, y, tol)
            shrunk = SymmetricMatrix.from_rows(
                [[Fraction(6, 7) * x for x in row]
                 for row in res.farkas.rows()])
            assert not verify_farkas(fr, shrunk, tol)
        # weights that solve nothing in particular
        self._same_weights(fr, [Fraction(1, 2 + i % 3)
                                for i in range(fr.count)], tol)
        # quadratic irrational weights on the rational frame
        self._same_weights(fr, [QuadExt(2, Fraction(1, 1 + i % 3),
                                        Fraction(i % 2, 5))
                                for i in range(fr.count)], tol)
        # rational weights on a copy in Q(sqrt 2): every other vector is
        # multiplied by 1 + sqrt(2) / 3
        lift = QuadExt(2, 1, Fraction(1, 3))
        qfr = Frame.from_vectors([[lift * x for x in v] if i % 2 else v
                                  for i, v in enumerate(fr.vectors)],
                                 exact=True)
        if fr.count > 1:
            assert qfr.integer_image is None
        self._same_weights(qfr, [Fraction(1, 2 + i % 3)
                                 for i in range(fr.count)], tol)


def reference_strict(lp):
    """Textbook two-phase simplex with Bland's rule for solve_strict's LP,
    the reference for the condensed tableau.  The dense tableau holds every
    column, the s x s artificial identity block included, and every pivot
    divides its row by the pivot over Fractions (or the quadratic field).
    Returns the pivots as (entering column, leaving basic column) and the
    answer: ("infeasible", y) with Farkas row multipliers y, or (status,
    weights)."""
    def exact(x):
        return Fraction(x) if isinstance(x, int) else x

    a = [[exact(x) for x in [sum(r, r[0] * 0)] + list(r)]
         for r in lp.scaled_matrix]
    b = [exact(x) for x in lp.scaled_rhs]
    s, k = len(a), len(a[0])
    flips = [-1 if v < 0 else 1 for v in b]
    t = [[f * x for x in row] + [Fraction(int(i == j)) for j in range(s)]
         + [f * v] for i, (row, v, f) in enumerate(zip(a, b, flips))]
    basis = list(range(k, k + s))
    pivots = []

    def pivot(i, j):
        pivots.append((j, basis[i]))
        p = t[i][j]
        t[i] = [x / p for x in t[i]]
        for r, row in enumerate(t):
            if r != i and row[j] != 0:
                t[r] = [x - row[j] * y for x, y in zip(row, t[i])]
        basis[i] = j

    def reduced(cost, j):
        return cost[j] - sum((cost[bi] * row[j] for bi, row in zip(basis, t)),
                             Fraction(0))

    def run(cost, ncols):
        while True:
            enter = next((j for j in range(ncols)
                          if j not in basis and reduced(cost, j) < 0), None)
            if enter is None:
                return
            rows = [i for i, row in enumerate(t) if row[enter] > 0]
            assert rows, "unbounded"
            pivot(min(rows, key=lambda i: (t[i][-1] / t[i][enter],
                                           basis[i])), enter)

    cost = [0] * k + [1] * s
    run(cost, k + s)
    if sum((row[-1] for bi, row in zip(basis, t) if bi >= k), Fraction(0)) > 0:
        return pivots, ("infeasible", [f * (1 - reduced(cost, k + i))
                                       for i, f in enumerate(flips)])
    for i in range(s - 1, -1, -1):
        if basis[i] >= k:
            j = next((j for j in range(k)
                      if j not in basis and t[i][j] != 0), None)
            if j is None:
                del t[i], basis[i]
            else:
                pivot(i, j)
    run([-1] + [0] * (k - 1), k)
    x = [Fraction(0)] * k
    for bi, row in zip(basis, t):
        x[bi] = row[-1]
    w = tuple(x[0] + u for u in x[1:])
    return pivots, ("strictly_feasible" if x[0] > 0 else "boundary", w)


def _coordinates_plus(n, seed):
    """n random integer vectors plus the n coordinate vectors: scalable."""
    rng = random.Random(seed)
    vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    vecs = [v for v in vecs if any(v)]
    return Frame.from_vectors(
        vecs + [[int(i == j) for j in range(n)] for i in range(n)], exact=True)


def _wide_integer(m, n, bits, seed, coordinates=False):
    """m random integer vectors with entries up to 2^bits in absolute
    value, plus n coordinate vectors of length about 2^bits when asked
    (scalable)."""
    rng = random.Random(seed)
    vecs = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
            for _ in range(m)]
    if coordinates:
        vecs += [[(2 ** bits - seed) * int(i == j) for j in range(n)]
                 for i in range(n)]
    return Frame.from_vectors(vecs, exact=True)


def _wide_denominators():
    """Denominators products of the primes 1021-1039: the integer image
    multiplies by L = 1021 * 1031 * 1033 * 1039 > 2^40."""
    p = (1021, 1031, 1033, 1039)
    return Frame.from_vectors(
        [[Fraction(3, p[0] * p[1]), Fraction(1, p[2] * p[3])],
         [Fraction(1, p[0]), Fraction(-1, p[2])]], exact=True)


SQRT2 = QuadExt(2, 0, 1)
REFERENCE_DRAWS = {
    "random_frame": [random_frame(m, n, seed)
                     for m, n, count in ((4, 2, 15), (6, 3, 25), (7, 4, 20),
                                         (8, 4, 20), (10, 5, 12), (12, 6, 8))
                     for seed in range(count)],
    "scalable": [_coordinates_plus(n, seed)
                 for n in (2, 3, 4) for seed in range(17)],
    "mixed": [mixed_frame(seed) for seed in range(40)],
    # integer LPs whose tableau entries run past 2^128, from input entries
    # up to 2^40 and from a denominator lcm L > 2^40
    "wide": [_wide_integer(m, n, bits, seed, coordinates=m == n)
             for m, n, bits in ((4, 2, 24), (5, 3, 14), (6, 3, 12),
                                (2, 2, 24), (3, 3, 12), (4, 2, 40), (6, 3, 40))
             for seed in range(4)]
            + [_wide_denominators()],
    "boundary_and_quadratic": [
        Frame.from_vectors([[1, 0], [0, 1], [Fraction(3, 5), Fraction(4, 5)]],
                           exact=True),
        random_frame(4, 2, 1), MERCEDES,
        Frame.from_vectors([[1, 0], [SQRT2, 1], [1, SQRT2], [0, 1]],
                           exact=True),
        M1, M2, onb(3),
    ],
}


@pytest.mark.parametrize("group", sorted(REFERENCE_DRAWS))
def test_condensed_tableau_follows_the_reference(group, monkeypatch):
    """The condensed tableau takes the reference's pivots, entering and
    leaving column by column, and gives the answer they imply."""
    pivots = []
    pivot = scaler._Tableau.pivot

    def recorded(tab, row, slot):
        pivots.append((tab.cols[slot], tab.basis[row]))
        pivot(tab, row, slot)

    monkeypatch.setattr(scaler._Tableau, "pivot", recorded)
    reentries = 0
    for frame in REFERENCE_DRAWS[group]:
        lp = build_lp(frame)
        pivots.clear()
        got = solve_strict(lp)
        want_pivots, (status, answer) = reference_strict(lp)
        assert pivots == want_pivots
        if status == "infeasible":
            want = scaler.OracleResult(
                status, farkas=scaler._farkas_matrix(lp, answer))
        else:
            want = scaler.OracleResult(
                status, weights=answer,
                scalings=tuple(map(scaler._scaling, answer)),
                residual=verify_weights(frame, answer).residual,
                margin=min(answer))
        assert got == want
        # an artificial column entering again (phase 1 only)
        reentries += sum(enter > frame.count for enter, _ in pivots)
    if group == "random_frame":
        assert reentries > 0


def _crosses(seed):
    """The direct sum of one to three planar blocks (a, b), (a, -b),
    (0, 1) with rational 0 < |b| < |a|, whose unique weights 1/(2a^2),
    1/(2a^2) and 1 - b^2/a^2 are positive."""
    rng = random.Random(seed)
    n = 2 * rng.randint(1, 3)
    vecs = []
    for k in range(0, n, 2):
        a = Fraction(rng.randint(2, 9), rng.randint(1, 5))
        b = a * Fraction(rng.choice((-5, -1, 1, 3, 5)), 6)
        vecs += [[0] * k + v + [0] * (n - k - 2)
                 for v in ([a, b], [a, -b], [0, 1])]
    return Frame.from_vectors(vecs, exact=True)


GRAM_FRAMES = (
    [frame for group in sorted(REFERENCE_DRAWS)
     for frame in REFERENCE_DRAWS[group]]
    + [random_frame(m, n, seed)
       for m, n in ((3, 2), (5, 3), (6, 3), (9, 4), (10, 4), (12, 6), (15, 6))
       for seed in range(10)]
    + [_crosses(seed) for seed in range(12)]
    + [load(name).frame for name in names() if load(name).frame is not None]
)


def test_gram_solve_agrees_with_the_tableau():
    """Where the Gram solve answers, its status is the tableau's, its
    feasible answer is the tableau's to the last field (the weights are
    unique), and its certificate is the normalized residual: every
    <f_i, Y f_i> is exactly 0 and the trace 1."""
    statuses = []
    for frame in GRAM_FRAMES:
        got = solve_gram(frame)
        if got is None:
            continue
        want = solve_strict(build_lp(frame))
        assert got.status == want.status
        statuses.append(got.status)
        if got.status != "infeasible":
            assert got == want
            continue
        y = got.farkas
        assert verify_farkas(frame, y, 0) and y.trace() == 1
        assert all(_quad(v, y) == 0 for v in frame.vectors)
    assert {statuses.count(s) >= 5 for s in
            ("infeasible", "strictly_feasible", "boundary")} == {True}


@pytest.mark.parametrize("frame, status", [
    (Frame.from_vectors([[1, 0], [0, 0], [0, 1]], exact=True),
     "strictly_feasible"),
    (Frame.from_vectors([[1, 0], [1, 0], [0, 1]], exact=True),
     "strictly_feasible"),
    (Frame.from_vectors([[1, 0], [0, 1], [1, 1], [1, -1]], exact=True),
     "strictly_feasible"),
    (MERCEDES, "strictly_feasible"),
    (M1.to_float(), "infeasible"),
    # I = f1 f1^t / 2 - f2 f2^t + 3 f3 f3^t / 2, the unique solution
    (Frame.from_vectors([[1, 2], [1, 1], [1, 0]], exact=True), "infeasible"),
], ids=["zero_vector", "repeated_vector", "m_above_n(n+1)/2", "mercedes",
        "float", "negative_weight"])
def test_gram_solve_falls_back_to_the_tableau(frame, status):
    """A zero or repeated vector makes H singular, as does m > n(n+1)/2;
    Q(sqrt d) and float frames have no integer image; a negative unique
    weight has no residual certificate.  The report is then the
    tableau's."""
    assert solve_gram(frame) is None
    want = solve_strict(build_lp(frame))
    assert want.status == status
    report = scale_report(frame, DEFAULT_TOL)
    assert {k: report[k] for k in ("nonneg", "strict")} == oracle_json(want)


@pytest.mark.parametrize("frame", [
    M1, MERCEDES, random_frame(12, 6, 3), _coordinates_plus(4, 2),
    random_parseval(8, 3, 4),
], ids=["M1", "mercedes", "random_frame", "scalable", "float"])
def test_stored_slots_and_basis_partition_the_columns(frame, monkeypatch):
    """After every pivot the stored slots and the basis are disjoint and
    together cover every column: the k real ones and the s artificials in
    phase 1 (less the artificials of deleted redundant rows while they are
    driven out; "scalable" deletes two), the k real ones in phase 2.  Every
    row, objective row included, holds one entry per slot plus the rhs."""
    lp = build_lp(frame)
    k, s = frame.count + 1, len(lp.scaled_matrix)
    phases, checked = [], []
    set_objective, pivot = scaler._Tableau.set_objective, scaler._Tableau.pivot

    def recorded_objective(tab, cost):
        phases.append(len(cost))
        set_objective(tab, cost)

    def recorded_pivot(tab, row, slot):
        pivot(tab, row, slot)
        cols, basis = set(tab.cols), set(tab.basis)
        assert len(cols) == len(tab.cols) and len(basis) == len(tab.basis)
        assert not cols & basis
        both = cols | basis
        if tab.obj is None:  # driving artificials out
            assert set(range(k)) <= both <= set(range(k + s))
        else:
            assert both == set(range(phases[-1]))
            assert len(tab.obj) == len(tab.cols) + 1
        assert all(len(row) == len(tab.cols) + 1 for row in tab.t)
        checked.append((row, slot))

    monkeypatch.setattr(scaler._Tableau, "set_objective", recorded_objective)
    monkeypatch.setattr(scaler._Tableau, "pivot", recorded_pivot)
    solve_strict(lp)
    assert checked and phases[0] == k + s and phases[1:] in ([], [k])


@pytest.mark.parametrize("group", sorted(REFERENCE_DRAWS))
def test_phase1_objective_from_the_input_rows(group, monkeypatch):
    """The phase-1 objective row equals 0 minus the column sums of the
    input rows, added left to right, on every reference LP and on its
    float copy (to the bit, signed zeros included)."""
    checked = []
    init = scaler._Tableau.__init__

    def recorded(tab, rows, cols, basis, exact, cost):
        # every basic column is an artificial of cost 1, every other 0, so
        # entry j is 0 minus the sum of column j of the input rows
        assert [cost[j] for j in basis] == [1] * len(basis)
        assert not any(cost[j] for j in cols)
        want = [0 - ordered_sum(column) for column in zip(*rows)]
        init(tab, rows, cols, basis, exact, cost)
        assert list(map(repr, tab.obj)) == list(map(repr, want))
        checked.append(tab.exact)

    monkeypatch.setattr(scaler._Tableau, "__init__", recorded)
    frames = REFERENCE_DRAWS[group]
    for frame in frames + [fr.to_float() for fr in frames]:
        solve_strict(build_lp(frame))
    assert checked == [True] * len(frames) + [False] * len(frames)


def test_float_t_column_adds_left_to_right(monkeypatch):
    """The t column of the float LP is each row summed left to right:
    the row [1e16, 1, -1e16] gives 0, where a compensated sum gives 1."""
    seen = []
    phase1 = scaler._phase1

    def recorded(rows, rhs, exact, tol):
        seen.extend(rows)
        return phase1(rows, rhs, exact, tol)

    monkeypatch.setattr(scaler, "_phase1", recorded)
    frame = Frame.from_vectors([[1e8, 1e8], [1.0, 1.0], [1e8, -1e8]])
    lp = build_lp(frame)
    solve_strict(lp)
    row = dict(zip(lp.row_index, seen))[(0, 1)]
    assert row[1:] == [1e16, 1.0, -1e16] and row[0] == 0.0
    assert math.fsum(row[1:]) == 1.0
