"""The documented input checks: each bad call raises its error."""

from __future__ import annotations

from fractions import Fraction

import pytest

from framescale import linalg
from framescale.corpus import load
from framescale.exactnum import ExactModeError, QuadExt, parse_exact
from framescale.frames import (
    Frame,
    FrameError,
    random_parseval,
    scale_frame,
    verify_weights,
)
from framescale.graphs import (
    GraphError,
    build_graph,
    complete_graph,
    cycle_graph,
    zero_pattern_equal,
)
from framescale.linalg import (
    JacobiConvergenceError,
    SymmetricMatrix,
    jacobi_eigensystem,
)
from framescale.scaler import verify_farkas

M1 = load("paper/M1").frame  # four vectors in R^4


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Frame(0, [[1]]), FrameError, "dim",
                 id="frame-dim-0"),
    pytest.param(lambda: Frame(2, []), FrameError, "at least one vector",
                 id="frame-no-vectors"),
    pytest.param(lambda: Frame(1, [[1]], "decimal"), FrameError,
                 "unknown scalar mode", id="frame-scalar-mode"),
    pytest.param(lambda: SymmetricMatrix(0, []), ValueError, "order",
                 id="matrix-order-0"),
    pytest.param(lambda: SymmetricMatrix(2, [1, 0]), ValueError,
                 "number of upper-triangle entries", id="matrix-entries"),
    pytest.param(lambda: SymmetricMatrix.from_rows([[1, 0], [0]]),
                 ValueError, "not square", id="matrix-not-square"),
    pytest.param(lambda: build_graph(M1, -1e-9), GraphError, "tol_zero",
                 id="graph-negative-tol-zero"),
    pytest.param(lambda: build_graph(M1, float("nan")), GraphError,
                 "tol_zero", id="graph-nan-tol-zero"),
    pytest.param(lambda: build_graph(M1, float("inf")), GraphError,
                 "tol_zero", id="graph-inf-tol-zero"),
    pytest.param(lambda: build_graph(M1, 10 ** 400), GraphError,
                 "tol_zero", id="graph-tol-zero-beyond-floats"),
    pytest.param(lambda: cycle_graph(2), GraphError, "at least 3 vertices",
                 id="cycle-2"),
    pytest.param(lambda: zero_pattern_equal(complete_graph(2),
                                            complete_graph(3)),
                 GraphError, "vertex counts differ", id="pattern-k2-k3"),
    pytest.param(lambda: verify_weights(M1, [1, 1, 1]), ValueError,
                 "weight count", id="verify-weights-count"),
    pytest.param(lambda: scale_frame(M1, [1, 1, 1]), FrameError,
                 "expected 4 weights, got 3", id="scale-frame-count"),
    pytest.param(lambda: verify_farkas(M1, SymmetricMatrix(3, [0] * 6)),
                 ValueError, "certificate order", id="farkas-order"),
    pytest.param(lambda: random_parseval(2, 3, 0), FrameError, "m >= n",
                 id="parseval-m-below-n"),
    pytest.param(lambda: QuadExt(4), ValueError, "non-square",
                 id="quadext-square"),
    pytest.param(lambda: QuadExt(2, 1) / QuadExt(2), ZeroDivisionError,
                 "division by zero", id="quadext-divide-by-zero"),
    pytest.param(lambda: parse_exact(0.5), ExactModeError, "non-integral",
                 id="parse-half"),
    pytest.param(lambda: parse_exact([1]), ValueError, "cannot parse",
                 id="parse-list"),
])
def test_bad_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_jacobi_sweep_cap(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
    with pytest.raises(JacobiConvergenceError) as exc:
        jacobi_eigensystem(SymmetricMatrix(2, [2.0, 1.0, 2.0]), 1e-12)
    assert exc.value.sweeps == 0
    assert exc.value.achieved_offdiag == 1.0


def test_exact_values():
    assert parse_exact(2.0) == 2
    # equal values hash alike
    assert QuadExt(3, Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(QuadExt(3, Fraction(1, 2), 0)) == hash(Fraction(1, 2))
