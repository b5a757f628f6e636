"""The contract of the library's immutable value types.

Angle, SumSpec, SumValue, Route, Point2, ConstructionConfig, PointSeq,
OrbitCurve and BenchResult are values: they are built positionally or by
keyword with the documented defaults, compare and hash by field and only
against their own class, print as ClassName(field=value, ...), refuse
assignment and deletion, validate their inputs in a fixed order, and survive
pickle and copy unchanged.
"""

import copy
import importlib
import math
import pickle
import pkgutil
from dataclasses import make_dataclass

import pytest

import trigsum
from trigsum.angle import Angle, Record
from trigsum.bench import BenchResult
from trigsum.geometry import ConstructionConfig, Line, Point2, PointSeq
from trigsum.kernels import ROUTES, Family, Method, Route, SumSpec, SumValue, sum_auto
from trigsum.orbit import OrbitCurve

A = Angle(0.25)
P0 = Point2(0.0, 0.0)
P1 = Point2(1.0, 0.0)
SAMPLES = ((0.0, 0.0, 0.0), (0.5, 1.5, -0.25))

#: (class, positional args, the same value by keyword, its repr).
CASES = [
    (Angle, (1.0,), {"radians": 1.0}, "Angle(radians=1.0)"),
    (SumSpec, (A, 5, Family.ODD), {"angle": A, "count": 5, "family": Family.ODD},
     "SumSpec(angle=Angle(radians=0.25), count=5, family=<Family.ODD: 'odd'>)"),
    (SumValue, (0.5, Method.CLOSED_FORM, 0.125),
     {"value": 0.5, "method": Method.CLOSED_FORM, "singular_proximity": 0.125},
     "SumValue(value=0.5, method=<Method.CLOSED_FORM: 'ClosedForm'>, "
     "singular_proximity=0.125)"),
    (Route, ("r", Family.EVEN, "sin(alpha)", math.sin, math.hypot),
     {"name": "r", "family": Family.EVEN, "label": "sin(alpha)", "denominator": math.sin,
      "evaluate": math.hypot},
     "Route(name='r', family=<Family.EVEN: 'even'>, label='sin(alpha)', "
     "denominator=<built-in function sin>, evaluate=<built-in function hypot>)"),
    (Point2, (1.0, -2.0), {"x": 1.0, "y": -2.0}, "Point2(x=1.0, y=-2.0)"),
    (ConstructionConfig, (A, 7, Line.E), {"alpha": A, "n": 7, "start_line": Line.E},
     "ConstructionConfig(alpha=Angle(radians=0.25), n=7, start_line=<Line.E: 'e'>)"),
    (PointSeq, (A, Line.X, (P0, P1), (1,)),
     {"alpha": A, "start_line": Line.X, "points": (P0, P1), "tangency_events": (1,)},
     "PointSeq(alpha=Angle(radians=0.25), start_line=<Line.X: 'x'>, points=("
     "Point2(x=0.0, y=0.0), Point2(x=1.0, y=0.0)), tangency_events=(1,))"),
    (OrbitCurve, (3, 0.0, 0.5, 2, SAMPLES),
     {"n": 3, "alpha_min": 0.0, "alpha_max": 0.5, "steps": 2, "samples": SAMPLES},
     "OrbitCurve(n=3, alpha_min=0.0, alpha_max=0.5, steps=2, "
     "samples=((0.0, 0.0, 0.0), (0.5, 1.5, -0.25)))"),
    (BenchResult, (1234.5, 6.25), {"naive_ns_per_eval": 1234.5, "closed_ns_per_eval": 6.25},
     "BenchResult(naive_ns_per_eval=1234.5, closed_ns_per_eval=6.25)"),
]

IDS = [case[0].__name__ for case in CASES]


def test_cases_name_every_record_type():
    # a record added to any module cannot skip the contract below
    for module in pkgutil.iter_modules(trigsum.__path__):
        importlib.import_module(f"trigsum.{module.name}")
    records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("trigsum.")}
    assert records == {case[0] for case in CASES}


def read(value, names) -> dict:
    """The named fields of value, by name."""
    return {name: getattr(value, name) for name in names}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, args, kwargs, text):
    by_position = cls(*args)
    by_keyword = cls(**kwargs)
    assert read(by_position, kwargs) == read(by_keyword, kwargs) == kwargs
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == text


def test_defaults():
    assert SumSpec(A, 3) == SumSpec(A, 3, Family.FULL)
    cfg = ConstructionConfig(A, 4)
    assert cfg.start_line is Line.X


def test_angles_are_coerced():
    assert SumSpec(0.25, 2).angle == A
    assert ConstructionConfig(0.25, 2).alpha == A
    assert type(SumSpec(1, 2).angle.radians) is float


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash_by_field(cls, args, kwargs, text):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert hash(value) == hash(cls(*args)) == hash(tuple(kwargs.values()))
    assert len({value, cls(**kwargs)}) == 1
    for changed in kwargs:  # every field takes part
        other = object.__new__(cls)
        for name, field_value in kwargs.items():
            object.__setattr__(other, name, "changed" if name == changed else field_value)
        assert value != other and not value == other


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_never_equal_to_another_type_with_the_same_fields(cls, args, kwargs, text):
    value = cls(*args)
    twin = make_dataclass(cls.__name__, list(kwargs), frozen=True)(**kwargs)
    subclass = type(cls.__name__, (cls,), {})(*args)
    for other in (twin, subclass, tuple(kwargs.values())):
        assert value != other and not value == other
        assert other != value and not other == value


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, kwargs, text):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert read(value, kwargs) == kwargs


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, args, kwargs, text):
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls
        assert other == value and hash(other) == hash(value) and repr(other) == text


#: SumValues as sum_auto returns them, one per route, and a fallback: the
#: closed form's are built without calling SumValue.__init__.
RETURNED = {
    "lagrange": sum_auto(SumSpec(1.0, 7), full_form="lagrange"),
    "halfangle": sum_auto(SumSpec(1.0, 7), full_form="halfangle"),
    "even": sum_auto(SumSpec(1.0, 7, Family.EVEN)),
    "odd": sum_auto(SumSpec(1.0, 7, Family.ODD)),
    "fallback": sum_auto(SumSpec(3.1415, 7)),
}


@pytest.mark.parametrize("value", RETURNED.values(), ids=RETURNED)
def test_values_sum_auto_returns_keep_the_record_contract(value):
    fields = {"value": value.value, "method": value.method,
              "singular_proximity": value.singular_proximity}
    built = SumValue(*fields.values())
    assert type(value) is SumValue
    assert value == built and not value != built and hash(value) == hash(built)
    assert hash(value) == hash(tuple(fields.values()))
    assert repr(value) == repr(built)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is SumValue and other == value and repr(other) == repr(value)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert read(value, fields) == fields
    assert value.method is (Method.NAIVE_FALLBACK if value is RETURNED["fallback"]
                            else Method.CLOSED_FORM)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_routes_copy(name):
    route = ROUTES[name]
    for other in (copy.copy(route), copy.deepcopy(route)):
        assert other == route and other.evaluate is route.evaluate
        assert other(1.0, 3, 1e-4) == route(1.0, 3, 1e-4)


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: Angle(NAN), "angle must be finite, got nan"),
    (lambda: Angle(math.inf), "angle must be finite, got inf"),
    (lambda: SumSpec(NAN, 0), "angle must be finite, got nan"),
    (lambda: SumSpec(1.0, 0), "count must be >= 1, got 0"),
    (lambda: Point2(NAN, 1.0), r"coordinates must be finite, got \(nan, 1.0\)"),
    (lambda: Point2(1.0, -math.inf), r"coordinates must be finite, got \(1.0, -inf\)"),
    (lambda: ConstructionConfig(NAN, 0), "angle must be finite, got nan"),
    (lambda: ConstructionConfig(1.0, 0), "n must be >= 1, got 0"),
])
def test_validation_order(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_signature_errors(cls, args, kwargs, text):
    with pytest.raises(TypeError):
        cls(*args, *args)
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls()
