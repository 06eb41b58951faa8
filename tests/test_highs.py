"""Differential check of the simplex oracle against SciPy's HiGHS solver.

Both verdicts are compared on seeded frames: nonneg feasibility of
{Aw = b, w >= 0}, and whether the largest floor t with w_i >= t exceeds the
tolerance.  Every certificate the oracle returns is replayed through the
package verifiers as well.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

linprog = pytest.importorskip("scipy.optimize").linprog

from framescale.corpus import random_frame  # noqa: E402
from framescale.frames import random_parseval  # noqa: E402
from framescale.scaler import (  # noqa: E402
    build_lp,
    solve_strict,
    verify_farkas,
    verify_weights,
)

TOL = 1e-8


def highs(lp):
    """(nonneg feasible, max floor t or None) from HiGHS."""
    c = lp.scaled_rhs[0]
    a = [[float(Fraction(x) / c) for x in row] for row in lp.scaled_matrix]
    b = [float(Fraction(x) / c) for x in lp.scaled_rhs]
    m = lp.frame.count
    nonneg = linprog([0.0] * m, A_eq=a, b_eq=b, bounds=(0, None),
                     method="highs")
    assert nonneg.status in (0, 2), nonneg.message
    ext = [[sum(row)] + row for row in a]
    strict = linprog([-1.0] + [0.0] * m, A_eq=ext, b_eq=b,
                     bounds=(0, None), method="highs")
    assert strict.status == nonneg.status, strict.message
    return nonneg.status == 0, (strict.x[0] if strict.status == 0 else None)


def check_against_highs(fr):
    res = solve_strict(build_lp(fr), TOL)
    assert res.status != "numerically_ambiguous", res.detail
    feasible, t_star = highs(build_lp(fr))
    assert (res.nonneg().status == "feasible") == feasible
    if not feasible:
        assert verify_farkas(fr, res.farkas, 0 if fr.is_exact else TOL)
        return
    assert (res.status == "strictly_feasible") == (t_star > TOL)
    assert float(res.margin) == pytest.approx(t_star, abs=1e-6)
    rep = verify_weights(fr, res.weights, TOL)
    if fr.is_exact:
        assert rep.residual == 0 and min(res.weights) >= 0
    else:
        assert rep.residual <= 10 * TOL and min(res.weights) >= -TOL


def _shapes(seed: int, max_m: int, max_n: int):
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    return rng.randint(n, max_m), n


@pytest.mark.parametrize("seed", range(40))
def test_random_frame_exact_and_float(seed):
    m, n = _shapes(seed, 12, 5)
    fr = random_frame(m, n, seed)
    check_against_highs(fr)
    check_against_highs(fr.to_float())


@pytest.mark.parametrize("shape", [(16, 6), (24, 8), (32, 10)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("seed", range(3))
def test_random_frame_exact_large(shape, seed):
    check_against_highs(random_frame(*shape, seed))


@pytest.mark.parametrize("seed", range(12))
def test_random_parseval_float(seed):
    m, n = _shapes(seed + 1000, 32, 6)
    check_against_highs(random_parseval(m, n, seed))


@pytest.mark.parametrize("seed", range(3))
def test_random_parseval_float_large(seed):
    # the float tableau at its largest benchmark size, about 1 s each
    check_against_highs(random_parseval(64, 12, seed))
