"""The records of the library: slotted values that are frozen once built."""

import ast
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import awbm
from awbm.affine_weyl import (
    Flags,
    GroupContext,
    Record,
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
from awbm.highest_weights import lap_of
from awbm.inertial_types import TameTypePresentation, compatible_zeta, make_type
from awbm.modp_flag import (
    LaurentMatrix,
    cell_geometry,
    chart_template,
    component_data,
    special_fiber_components,
)
from awbm.polynomials import genericity
from awbm.weight_sets import CycleExpr, jh_set, w_question
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


def _library_records():
    """Every Record subclass of the library, after every layer has run."""
    for info in pkgutil.iter_modules(awbm.__path__):
        importlib.import_module(f"awbm.{info.name}").__name__  # runs a lazy layer
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("awbm.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return found


def test_every_record_is_listed_and_writes_no_equality_or_hash():
    classes = _library_records()
    assert sorted(cls.__name__ for cls in classes) == sorted(RECORDS)
    for cls in classes:
        body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
        written = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        assert not written & {"__eq__", "__hash__"}, cls.__name__
        for name in ("__eq__", "__hash__", "_fields"):
            assert vars(cls)[name].__qualname__ == \
                f"Record.__init_subclass__.<locals>.{name}", (cls.__name__, name)


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_a_record_never_equals_another_class_with_its_fields(make):
    a = make(0)
    twin_class = type(type(a).__name__, (Record,),
                      {"__slots__": type(a).__slots__, "__module__": __name__})
    twin = twin_class.trusted(*a._fields())
    assert twin._fields() == a._fields() and hash(twin) == hash(a)
    assert a != twin and twin != a and not a == twin
    assert len({a, twin}) == 2


def _gl3_f2():
    ctx = GroupContext(3, 2, 211)
    return ctx, make_type(ctx, [(1, 2, 3), (2, 1, 3)], [(150, 100, 0), (140, 90, 10)])


@pytest.mark.parametrize("call,field", [
    # an f x n weight tuple of the wrong shape is refused, naming the field,
    # in every layer that takes one: these three once raised IndexError or
    # read a short row as a value
    (lambda ctx, tau: compatible_zeta(tau, [(1, 0, 0)]), "lambda"),
    (lambda ctx, tau: compatible_zeta(tau, [(1, 0), (0, 0)]), "lambda"),
    (lambda ctx, tau: special_fiber_components(ctx, [(5, 3)], tau, None), "lambda"),
    (lambda ctx, tau: make_type(ctx, tau.s, [(150, 100, 0)]), "mu"),
    (lambda ctx, tau: SerreWeightPresentation(tau.s, [(5, 3, 1), (5, 3)], ctx),
     "omega"),
    (lambda ctx, tau: component_data(tau.s, [(5, 3, 1)], ctx), "omega"),
    (lambda ctx, tau: TwistData(tau.s, [(1, 0, 0)] * 3, ctx), "mu"),
    (lambda ctx, tau: lap_of(ctx, [(2, 1)] * 2, CentralCharacter((0, 0))), "kappa"),
    (lambda ctx, tau: genericity(ctx, [(2, 1, 0)], 1), "mu"),
    (lambda ctx, tau: jh_set(tau, [(0, 0, 0, 0)] * 2), "lambda"),
])
def test_weight_tuples_of_the_wrong_shape_are_argument_errors(call, field):
    ctx, tau = _gl3_f2()
    with pytest.raises(ArgumentError, match=f"^{field} must be 2 rows of length 3$"):
        call(ctx, tau)


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
