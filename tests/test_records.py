"""The records of the library: slotted values that are frozen once built."""

import pytest

from awbm.affine_weyl import (
    Flags,
    GroupContext,
    WeylElement,
    WeylTuple,
    classify,
    finite,
    invert,
    multiply,
)
from awbm.bk_gauge import Coefficients, SeriesMatrix, TwistData, shape_semisimple
from awbm.descent import descent_data
from awbm.errors import ArgumentError, InputError
from awbm.inertial_types import TameTypePresentation, make_type
from awbm.modp_flag import LaurentMatrix, cell_geometry, chart_template, component_data
from awbm.weight_sets import CycleExpr, w_question
from awbm.weights import CentralCharacter, SerreWeightPresentation


def _ctx(n=2, p=37):
    return GroupContext(n, 1, p)


def _rho(mu=(5, 0)):
    return make_type(_ctx(), [(1, 2)], [mu], "F")


def _copy(record):
    """A new record with the fields of one that a cache may hand out again."""
    return type(record)(*(getattr(record, name) for name in record.__slots__))


def _component(omega):
    w1 = WeylTuple((WeylElement((1, 2, 3), (0, 0, 0)),))
    return component_data(w1, (omega,), GroupContext(3, 1, 211))


# each record class, built twice from two different inputs
RECORDS = {
    "WeylElement": lambda k: WeylElement((2, 1), (k, 0)),
    "WeylTuple": lambda k: WeylTuple((finite((2, 1)), WeylElement((1, 2), (k, 0)))),
    "GroupContext": lambda k: GroupContext(2, 1 + k, 37),
    "Flags": lambda k: classify(WeylElement((2, 1), (k, 0)), 1, 37),
    "SerreWeightPresentation": lambda k: SerreWeightPresentation(
        WeylTuple((WeylElement((1, 2), (3, 3)),)), ((8 + k, 3),), _ctx()),
    "PredictedWeight": lambda k: _copy(w_question(_rho())[k]),
    "CentralCharacter": lambda k: CentralCharacter((k,)),
    "TameTypePresentation": lambda k: _rho((5 + k, 0)),
    "DescentData": lambda k: descent_data(make_type(_ctx(), [(1, 2)], [(5 + k, 0)])),
    "CycleExpr": lambda k: CycleExpr.of({("Z", k): 1}),
    "TwistData": lambda k: TwistData(WeylTuple((finite((2, 1)),)), ((1 + k, 0),),
                                     _ctx(p=5)),
    "ShapeResult": lambda k: shape_semisimple(
        _rho(), make_type(_ctx(), [(1, 2)], [(4, k)])),
    "ChartTemplate": lambda k: chart_template(WeylElement((1, 3, 2), (2, 1, 1)), k),
    "CellGeometry": lambda k: cell_geometry(WeylElement((2, 1), (2 + k, 0))),
    "ComponentData": lambda k: _component((187 + k, 102, 25)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_frozen_values(make):
    a, b, other = make(0), make(0), make(1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert type(other) is type(a) and a != other
    names = type(a).__slots__
    fields = tuple(getattr(a, name) for name in names)
    # the hash is that of the field tuple, so sets of records keep the
    # iteration order, and the output order, they have always had
    assert hash(a) == hash(fields)
    assert a != fields and type(a)(*fields) == a
    assert not hasattr(a, "__dict__")
    for name, value in zip(names, fields):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == fields


def test_series_matrices_compare_by_value_and_are_unhashable():
    field = Coefficients(7)
    a, b = SeriesMatrix.identity(field, 2), SeriesMatrix.identity(field, 2)
    assert a is not b and a == b and a != a.shift(1)
    m = LaurentMatrix.identity(field, 2)
    assert LaurentMatrix.__slots__ == () and not hasattr(m, "__dict__")
    for matrix in (a, m):
        with pytest.raises(TypeError):
            hash(matrix)


def test_defaults_and_keywords():
    assert GroupContext(3) == GroupContext(n=3, f=1, p=None)
    flags = Flags(dominant=True, restricted=True, regular=False)
    assert flags == classify(WeylElement((2, 1), (1, 0)))
    assert (flags.m_small, flags.m_generic) == (None, None)
    rho = _rho()
    assert TameTypePresentation(rho.s, mu=rho.mu, ctx=rho.ctx).kind == "E"
    m = SeriesMatrix.identity(Coefficients(7), 2)
    assert m == SeriesMatrix(field=m.field, n=2, lo=0, coeffs=m.coeffs)
    assert m.prec is None


@pytest.mark.parametrize("build,error", [
    (lambda: WeylElement((1, 1), (0, 0)), InputError),
    (lambda: WeylElement((2, 1), (0,)), InputError),
    (lambda: WeylTuple(()), InputError),
    (lambda: GroupContext(1), ArgumentError),
    (lambda: GroupContext(2, 1, 4), ArgumentError),
    (lambda: make_type(_ctx(), [(1, 2)], [(5, 0)], "X"), InputError),
    (lambda: TwistData(WeylTuple((finite((2, 1)),)), ((1, 0, 0),), _ctx()),
     ArgumentError),
])
def test_every_construction_validates(build, error):
    with pytest.raises(error):
        build()


def test_weyl_element_validates_once_per_construction(monkeypatch):
    calls = []
    validate = WeylElement.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(WeylElement, "__post_init__", counted)
    a = WeylElement([2, 1], [1, 0])
    assert len(calls) == 1 and (a.w, a.nu) == ((2, 1), (1, 0))
    multiply(a, invert(a))
    assert len(calls) == 3
