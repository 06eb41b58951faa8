"""The documented input checks: each bad call raises its error."""

from __future__ import annotations

import contextlib
import json
import random
from fractions import Fraction

import pytest

from framescale import linalg
from framescale.cli import _graph_from_json
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
    FrameGraph,
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


def reference_graph_from_json(data) -> FrameGraph:
    """The adjacency reader entry by entry: the checks of
    `cli._graph_from_json` in row order, each entry as it is met."""
    if isinstance(data, dict) and "adjacency" in data:
        data = data["adjacency"]
    if not isinstance(data, list) or not data:
        raise GraphError("graph file needs an adjacency matrix")
    m = len(data)
    edges = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != m:
            raise GraphError("adjacency matrix must be square")
        for j, x in enumerate(row):
            if type(x) is not int or x not in (0, 1):
                raise GraphError(
                    f"adjacency entry ({i + 1},{j + 1}) must be 0 or 1")
            if j < i and x != data[j][i]:
                raise GraphError(
                    f"adjacency matrix is not symmetric at ({j + 1},{i + 1})")
        if row[i]:
            raise GraphError(
                f"adjacency diagonal entry ({i + 1},{i + 1}) must be 0")
        edges += [(i, j) for j in range(i + 1, m) if row[j]]
    return FrameGraph(m, edges)


def read_both(data):
    """What each reader gives on a JSON document: the masks, or the
    error message."""
    out = []
    for reader in (_graph_from_json, reference_graph_from_json):
        try:
            out.append(reader(json.loads(json.dumps(data))).masks)
        except GraphError as exc:
            out.append(str(exc))
    return out


def random_adjacency(rng: random.Random, m: int) -> list:
    rows = [[0] * m for _ in range(m)]
    p = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = int(rng.random() < p)
    return rows


# one corruption of a matrix in place at (i, j), i != j when it needs two
# entries; the entries a JSON file can hold that are not the ints 0 and 1
_BAD_ENTRIES = (True, False, 2, -1, 256, 10 ** 30, 1.0, 0.0, "1", None, [1],
                {})


def _set_entry(value):
    def corrupt(rows, i, j):
        rows[i][j] = value
    corrupt.__name__ = f"entry_{json.dumps(value)}"
    return corrupt


def _set_pair(value):
    """The entry at (i, j) and at (j, i), so symmetry does not catch it."""
    def corrupt(rows, i, j):
        rows[i][j] = rows[j][i] = value
    corrupt.__name__ = f"pair_{json.dumps(value)}"
    return corrupt


def _asymmetric(rows, i, j):
    if i != j:
        rows[i][j] ^= 1


def _diagonal(rows, i, j):
    rows[i][i] = 1


def _short_row(rows, i, j):
    rows[i].pop()


def _long_row(rows, i, j):
    rows[i].append(0)


def _extra_row(rows, i, j):
    rows.insert(i, [0] * len(rows[0]))


def _not_a_row(rows, i, j):
    rows[i] = 0 if j % 2 else "0" * len(rows)


CORRUPTIONS = ([_set_entry(x) for x in _BAD_ENTRIES]
               + [_set_pair(x) for x in _BAD_ENTRIES]
               + [_asymmetric, _diagonal, _short_row, _long_row, _extra_row,
                  _not_a_row])


class TestGraphReaderMatchesEntryLoop:
    """The whole-matrix reader gives the entry-by-entry reader's graph on
    every well-formed matrix and its error message on every corrupted one,
    so a file's first bad entry is named as before."""

    @pytest.mark.parametrize("m", range(1, 41))
    def test_well_formed(self, m):
        rng = random.Random(f"reader:{m}")
        for _ in range(4):
            rows = random_adjacency(rng, m)
            masks, expected = read_both(rows)
            assert masks == expected and isinstance(masks, tuple)
            assert read_both({"adjacency": rows}) == [masks, masks]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS,
                             ids=lambda c: c.__name__)
    def test_one_corruption(self, corrupt):
        rng = random.Random(f"reader:corrupt:{corrupt.__name__}")
        for m in (1, 2, 3, 7, 24, 40):
            cells = {(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)}
            cells |= {(rng.randrange(m), rng.randrange(m)) for _ in range(4)}
            for i, j in sorted(cells):
                rows = random_adjacency(rng, m)
                corrupt(rows, i, j)
                got, expected = read_both(rows)
                assert got == expected, (m, i, j)

    def test_two_corruptions_name_the_first(self):
        rng = random.Random("reader:two")
        for _ in range(200):
            m = rng.randint(2, 12)
            rows = random_adjacency(rng, m)
            for corrupt in rng.sample(CORRUPTIONS, 2):
                i = rng.choice([k for k, row in enumerate(rows)
                                if type(row) is list])
                # the first corruption may leave no entry at (i, i) or (i, j)
                with contextlib.suppress(IndexError):
                    corrupt(rows, i, rng.randrange(m))
            got, expected = read_both(rows)
            assert got == expected

    @pytest.mark.parametrize("data", [[], {}, {"adjacency": []}, 0, "01",
                                      {"adjacency": {}}, [[]]])
    def test_not_a_matrix(self, data):
        got, expected = read_both(data)
        assert got == expected and isinstance(got, str)
