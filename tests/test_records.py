"""The package's record classes: fields, defaults, validation, equality, immutability.

Each record class writes out its ``__init__`` on ``groupwindows.record.Frozen``
and declares the fields it compares by; these tests pin the behaviour the classes
had as frozen dataclasses, and keep dataclasses out of the package.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import groupwindows
from groupwindows.control import Certificate
from groupwindows.errors import InputError
from groupwindows.intlinalg import IntMatrix, SnfResult
from groupwindows.record import Frozen, store
from groupwindows.synthesis import (
    Block,
    BlockReport,
    CombinedEncoder,
    Encoder,
    GeneratingSet,
    SynthesisResult,
)
from groupwindows.templates import FixedGenerator, ShiftedGenerator, TemplateSpec, UnrollResult
from groupwindows.torsion import PrimaryDecomposition, PrimaryPart
from groupwindows.window import ComponentGroup, Element, ProductWindow


def _window():
    return ProductWindow((ComponentGroup((4,)), ComponentGroup((2, 3))))


def _fixed():
    return FixedGenerator(((1, (2,)), (2, (1, 0))))


def _shifted():
    return ShiftedGenerator(2, 1, ((0, (1,)), (1, (1,))))


def _part():
    window = ProductWindow((ComponentGroup((4,)), ComponentGroup((2,))))
    return PrimaryPart(2, (1, 2), window, window.full_subgroup(), (0, 1))


def _generating_set():
    window = _window()
    x = window.from_flat([2, 0, 0])
    y = window.from_flat([1, 0, 0])
    return GeneratingSet(2, (Block(1, 1),), (x,), (y,), (1,), {1: 1}, True)


def _decomposition():
    return PrimaryDecomposition(_window(), (2,), (_part(),))


def _certificate():
    return Certificate("controllable", 2, "holds", {"1": 1}, None, None, {"1": True}, {"margin": 1})


def _combined():
    gs = _generating_set()
    group = gs.generators[0].window.full_subgroup()
    return CombinedEncoder(group, _decomposition(), ((2, Encoder(group, gs)),))


# Each record class, its fields in constructor order, and fresh field values.
RECORDS = {
    ComponentGroup: (("factor_orders",), lambda: ((4, 2),)),
    ProductWindow: (("components",), lambda: ((ComponentGroup((4,)), ComponentGroup((2, 3))),)),
    Element: (("window", "flat"), lambda: (_window(), (1, 0, 2))),
    IntMatrix: (("rows", "cols", "data"), lambda: (2, 2, ((1, 0), (0, 1)))),
    SnfResult: (
        ("D", "U", "V"),
        lambda: (IntMatrix.identity(2), IntMatrix.identity(2), IntMatrix.identity(2)),
    ),
    FixedGenerator: (("support",), lambda: (((1, (2,)), (2, (1, 0))),)),
    ShiftedGenerator: (("start", "stride", "pattern"), lambda: (2, 1, ((0, (1,)), (1, (1,))))),
    TemplateSpec: (
        ("period", "component_orders", "fixed_generators", "shifted_generators"),
        lambda: (1, ((4,),), (_fixed(),), (_shifted(),)),
    ),
    UnrollResult: (
        ("window", "group", "skipped"),
        lambda: (_window(), _window().full_subgroup(), (("fixed", 3),)),
    ),
    PrimaryPart: (
        ("prime", "coordinates", "window", "subgroup", "flat_positions"),
        lambda: _fields(_part()),
    ),
    PrimaryDecomposition: (("window", "primes", "parts"), lambda: (_window(), (2,), (_part(),))),
    Block: (("d", "size"), lambda: (1, 2)),
    GeneratingSet: (
        ("prime", "blocks", "socle_elements", "generators", "heights", "n_sequence", "determined"),
        lambda: _fields(_generating_set()),
    ),
    BlockReport: (("checks",), lambda: ({"a": (True, "")},)),
    Encoder: (("group", "generating_set"), lambda: (_window().full_subgroup(), _generating_set())),
    CombinedEncoder: (
        ("group", "decomposition", "encoders"),
        lambda: _fields(_combined()),
    ),
    SynthesisResult: (
        (
            "group", "certificate", "decomposition", "part_certificates", "generating_sets",
            "combined", "verdicts",
        ),
        lambda: (
            _window().full_subgroup(), _certificate(), _decomposition(), {}, {2: _generating_set()},
            _combined(), {},
        ),
    ),
    Certificate: (
        (
            "property", "window", "status", "indices", "witness", "witness_context",
            "stabilization", "notes",
        ),
        lambda: _fields(_certificate()),
    ),
}


def _fields(record):
    return tuple(getattr(record, name) for name in RECORDS[type(record)][0])


# Records compared by identity, as their dataclasses had eq=False.
BY_IDENTITY = {Certificate, GeneratingSet, BlockReport, Encoder, CombinedEncoder, SynthesisResult}

CLASSES = sorted(RECORDS, key=lambda cls: cls.__name__)


def _modules():
    return [
        importlib.import_module(f"groupwindows.{info.name}")
        for info in pkgutil.iter_modules(groupwindows.__path__)
    ]


def _classes():
    return [
        value
        for module in _modules()
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]


def test_the_records_are_the_frozen_classes():
    assert len(RECORDS) == 18
    frozen = {cls for cls in _classes() if issubclass(cls, Frozen) and cls is not Frozen}
    assert frozen == set(RECORDS)


def test_no_class_of_the_package_is_a_dataclass():
    # dataclass code generation cost about 18 ms of every import
    assert [cls.__qualname__ for cls in _classes() if dataclasses.is_dataclass(cls)] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_by_position_and_keyword(cls):
    names, make = RECORDS[cls]
    assert tuple(inspect.signature(cls).parameters) == names
    values = make()
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


def test_defaults():
    spec = TemplateSpec(1, ((4,),))
    assert spec.fixed_generators == () and spec.shifted_generators == ()
    window = _window()
    assert UnrollResult(window, window.full_subgroup()).skipped == ()
    assert GeneratingSet(*_fields(_generating_set())[:-1]).determined is True


def test_construction_normalises_component_orders():
    assert ComponentGroup([4.0, 2]).factor_orders == (4, 2)
    window = ProductWindow(((4,), (2, 3)))
    assert window.components == (ComponentGroup((4,)), ComponentGroup((2, 3)))
    assert window.flat_orders == (4, 2, 3) and window.coord_starts == (0, 1, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ShiftedGenerator(1, 0, ()), "shifted generator stride must be >= 1"),
        (
            lambda: TemplateSpec(2, ((4,),)),
            "component template lists 1 coordinate shapes but declares period 2",
        ),
        (lambda: ComponentGroup((6,)), "factor order 6 is not a prime power"),
        (lambda: IntMatrix(2, 2, ((1, 0),)), "expected 2 rows, got 1"),
        (lambda: IntMatrix(1, 2, ((1, 0, 0),)), "row 0: expected 2 entries, got 3"),
        (
            lambda: GeneratingSet(2, (Block(1, 1),), (_window().zero(),), (), (0,), {}),
            "generating set fields disagree on the generator count",
        ),
        (lambda: ProductWindow(()), "a window needs at least one coordinate"),
    ],
    ids=[
        "stride-0", "period-mismatch", "factor-order-6", "matrix-rows", "matrix-cols",
        "generator-count", "no-coordinates",
    ],
)
def test_validation_raises_input_error(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    names, make = RECORDS[cls]
    a, b = cls(*make()), cls(*make())
    assert a == a and not a != a
    assert a != object() and a.__eq__(object()) is NotImplemented
    if cls in BY_IDENTITY:
        assert a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # the dataclass hash, which orders sets of records
    fields = _fields(a)
    assert hash(a) == (hash(fields[0]) if cls is ProductWindow else hash(fields))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    names, make = RECORDS[cls]
    record = cls(*make())
    before = getattr(record, names[0])
    with pytest.raises(AttributeError):
        setattr(record, names[0], None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, names[0]) is before


def test_window_keeps_its_derived_fields_and_snf_its_cached_factors():
    window = _window()
    assert window.subwindow((1, 1)) is window.subwindow((1, 1))
    d, u, v = IntMatrix.identity(2), IntMatrix.zeros(2, 2), IntMatrix.from_rows([[0, 1], [1, 0]])
    snf = SnfResult(d, u, v)
    assert snf.D is d and snf.U is u and snf.V is v


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_value_records_declare_their_init_parameters_as_fields(cls):
    # a record compared by identity declares none
    expected = () if cls in BY_IDENTITY else tuple(inspect.signature(cls).parameters)
    assert cls.fields == expected


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in CLASSES if cls not in BY_IDENTITY for name in RECORDS[cls][0]],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_changing_one_field_makes_records_unequal(cls, name):
    _, make = RECORDS[cls]
    a, b = cls(*make()), cls(*make())
    assert a == b
    store(b, name, object())
    assert a != b and b != a and not a == b
