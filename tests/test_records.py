"""Value records: NamedTuples (and the plain `Frame` class) keep the value
equality, immutability and checks of frozen records."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from framescale.corpus import NamedInstance, load
from framescale.filters import (
    INCONCLUSIVE,
    NOT_SCALABLE,
    FilterReport,
    run_all_filters,
)
from framescale.frames import (
    EXACT_MODE,
    Frame,
    FrameError,
    IntegerImage,
    Tightness,
)
from framescale.graphs import build_graph, compute_stats
from framescale.linalg import SymmetricMatrix, symmetric_eigs
from framescale.report import AnalysisConfig, stable_dumps
from framescale.scaler import build_lp, solve_strict, verify_weights

M1 = load("paper/M1").frame
MERCEDES = load("canonical/mercedes").frame

# each factory builds a new record with the same value on every call
RECORDS = {
    "IntegerImage": lambda: IntegerImage(2, ((1, 0), (0, 1))),
    "Tightness": lambda: Tightness("tight", Fraction(3, 2)),
    "GraphStats": lambda: compute_stats(build_graph(M1, 0)),
    "Spectrum": lambda: symmetric_eigs(
        SymmetricMatrix.from_function(2, lambda p, q: float(p + q + 1)),
        1e-12),
    "AnalysisConfig": lambda: AnalysisConfig(tol=1e-9),
    "ScaleLP": lambda: build_lp(M1),
    "OracleResult": lambda: solve_strict(build_lp(M1)),
    "WeightReport": lambda: verify_weights(MERCEDES,
                                           [Fraction(2, 3)] * 3),
    "FilterReport": lambda: FilterReport("x", "c", applicable=False),
    "FilterBattery": lambda: run_all_filters(build_graph(M1, 0), M1.dim,
                                             frame=M1),
    "NamedInstance": lambda: load("paper/M1"),
    "Frame": lambda: Frame.from_vectors([[1, 2], [3, 4]], exact=True),
}


def _first_field(record) -> str:
    return "dim" if isinstance(record, Frame) else record._fields[0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_value_equality(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_immutable(name):
    record = RECORDS[name]()
    field = _first_field(record)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


class TestFrame:
    def test_hash_follows_value(self):
        a = Frame.from_vectors([[1, 2], [3, 4]], exact=True)
        b = Frame(2, [(Fraction(1), 2), [3, Fraction(4)]], EXACT_MODE)
        assert a == b and hash(a) == hash(b)
        assert a != a.to_float()
        assert a != (a.dim, a.vectors, a.scalar_mode)

    def test_repr_names_the_fields(self):
        fr = Frame.from_vectors([[1.5, 0.0]])
        assert repr(fr) == ("Frame(dim=2, vectors=((1.5, 0.0),), "
                            "scalar_mode='float64')")

    def test_cached_properties(self):
        fr = Frame.from_vectors([[Fraction(1, 2), 0], [0, 1]], exact=True)
        image = fr.integer_image
        assert image == IntegerImage(2, ((1, 0), (0, 2)))
        assert fr.integer_image is image
        assert fr.operator is fr.operator

    def test_float_rows_kept(self):
        row = (0.25, -1.5)
        assert Frame(2, [row, (1.0, 0.0)]).vectors[0] is row
        fr = Frame(2, [row, [1, True]])
        assert fr.vectors == ((0.25, -1.5), (1.0, 1.0))
        assert {type(x) for v in fr.vectors for x in v} == {float}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, bad):
        with pytest.raises(FrameError):
            Frame(2, [(1.0, bad)])


class TestFilterReport:
    """The two checks themselves: tests/test_filters.py."""

    def test_default_certificate_is_no_certificate(self):
        with pytest.raises(ValueError):
            FilterReport("x", "c", applicable=True, verdict=NOT_SCALABLE)

    def test_defaults(self):
        report = FilterReport("x", "c", applicable=True)
        assert report == ("x", "c", True, INCONCLUSIVE, {}, False, ())


def test_default_dicts_not_shared():
    a, b = (FilterReport("x", "c", applicable=True) for _ in range(2))
    assert a.certificate == {} and a.certificate is not b.certificate


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_stable_dumps_rejects_records(name):
    record = RECORDS[name]()
    for obj in (record, {"x": record}, [record], [1, record]):
        with pytest.raises(TypeError):
            stable_dumps(obj)
