"""``repro._record.record`` builds the class ``dataclasses.dataclass``
would build, for every record shape the package declares."""

from __future__ import annotations

import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._record import field, record

SRC = Path(repro.__file__).resolve().parent.parent


def _validate(self):
    if self.op not in ("+", "-"):
        raise ValueError(f"unknown operator: {self.op!r}")


#: name -> (decorator options, annotations, class attributes given a
#: ``field`` function, base shape, constructor arguments of two unequal
#: instances).
SHAPES = {
    "Empty": ({}, {}, lambda field: {}, None, ((), ())),
    "One": ({"frozen": True, "slots": True}, {"value": "object"}, lambda field: {}, None,
            ((1,), ("1",))),
    "Three": ({}, {"a": "str", "b": "int", "c": "tuple"}, lambda field: {"c": ()}, None,
              (("x", 1), ("x", 1, (2,)))),
    "Factory": ({}, {"name": "str", "items": "list", "seen": "set"},
                lambda field: {"items": field(default_factory=list),
                         "seen": field(default_factory=set)},
                None, (("a",), ("a", [1]))),
    "Validated": ({"frozen": True, "slots": True}, {"op": "str", "left": "int", "right": "int"},
                  lambda field: {"__post_init__": _validate}, None, (("+", 1, 2), ("-", 1, 2))),
    "Frozen": ({"frozen": True}, {"key": "str", "count": "int"}, lambda field: {"count": 0}, None,
               (("k",), ("k", 3))),
    "Slots": ({"slots": True}, {"name": "str", "fields": "dict"},
              lambda field: {"fields": field(default_factory=dict)}, None, (("c",), ("d",))),
    "Identity": ({"frozen": True, "eq": False}, {"method": "str"}, lambda field: {}, None,
                 (("m",), ("m",))),
    "Base": ({"frozen": True}, {"x": "int", "y": "int"}, lambda field: {}, None, ((1, 2), (1, 3))),
    "Derived": ({"frozen": True}, {"label": "str"}, lambda field: {"label": "p"}, "Base",
                ((1, 2), (1, 2, "q"))),
}


def _define(shape: str, kind: str):
    """Build ``shape`` with ``record`` (kind "Rec") or ``dataclass``
    ("Dc"), registered in this module so that pickle can find it."""
    name = f"{shape}{kind}"
    if name in globals():
        return globals()[name]
    options, annotations, attrs, base, _ = SHAPES[shape]
    bases = (_define(base, kind),) if base else ()
    namespace = {
        "__module__": __name__,
        "__qualname__": name,
        "__annotations__": dict(annotations),
        **attrs(field if kind == "Rec" else dataclasses.field),
    }
    decorate = record if kind == "Rec" else dataclasses.dataclass
    cls = decorate(**options)(type(name, bases, namespace))
    globals()[name] = cls
    return cls


def _pair(shape: str):
    return _define(shape, "Rec"), _define(shape, "Dc")


def _rename(text: str, shape: str, kind: str) -> str:
    return text.replace(f"{shape}{kind}", shape)


@pytest.mark.parametrize("shape", SHAPES)
class TestParityWithDataclass:
    def test_signature_and_match_args(self, shape):
        rec, dc = _pair(shape)
        assert str(inspect.signature(rec)) == str(inspect.signature(dc))
        assert rec.__match_args__ == dc.__match_args__
        assert getattr(rec, "__slots__", None) == getattr(dc, "__slots__", None)
        args = SHAPES[shape][4][0]
        assert hasattr(rec(*args), "__dict__") == hasattr(dc(*args), "__dict__")

    def test_equality_and_hash(self, shape):
        rec, dc = _pair(shape)
        first, second = SHAPES[shape][4]
        for cls in (rec, dc):
            assert cls.__eq__(cls(*first), object()) is NotImplemented
        assert (rec(*first) == rec(*first)) == (dc(*first) == dc(*first))
        assert (rec(*first) != rec(*second)) == (dc(*first) != dc(*second))
        assert (rec.__hash__ is None) == (dc.__hash__ is None)
        if dc.__hash__ is not None and dc.__eq__ is not object.__eq__:
            assert hash(rec(*first)) == hash(dc(*first))

    def test_repr(self, shape):
        rec, dc = _pair(shape)
        for args in SHAPES[shape][4]:
            assert _rename(repr(rec(*args)), shape, "Rec") == _rename(repr(dc(*args)), shape, "Dc")

    def test_frozen_fields_refuse_set_and_delete(self, shape):
        rec, dc = _pair(shape)
        args = SHAPES[shape][4][0]
        names = [f.name for f in dataclasses.fields(dc)]
        for instance in (rec(*args), dc(*args)):
            for name in names:
                if SHAPES[shape][0].get("frozen"):
                    with pytest.raises(dataclasses.FrozenInstanceError, match="assign"):
                        setattr(instance, name, None)
                    with pytest.raises(dataclasses.FrozenInstanceError, match="delete"):
                        delattr(instance, name)
                else:
                    setattr(instance, name, None)
                    assert getattr(instance, name) is None

    def test_pickle_state_and_round_trip(self, shape):
        rec, dc = _pair(shape)
        for args in SHAPES[shape][4]:
            a, b = rec(*args), dc(*args)
            if hasattr(b, "__getstate__"):
                assert a.__getstate__() == b.__getstate__()
            loaded = pickle.loads(pickle.dumps(a))
            assert type(loaded) is rec
            assert dataclasses.astuple(loaded) == dataclasses.astuple(a)

    def test_dataclasses_functions(self, shape):
        rec, dc = _pair(shape)
        assert dataclasses.is_dataclass(rec) and dataclasses.is_dataclass(rec(*SHAPES[shape][4][0]))
        described = [
            [(f.name, f.type, f.default, f.default_factory) for f in dataclasses.fields(cls)]
            for cls in (rec, dc)
        ]
        assert described[0] == described[1]
        first, second = SHAPES[shape][4]
        a, b = rec(*first), dc(*first)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        changes = dict(zip(rec.__match_args__, dataclasses.astuple(dc(*second))))
        assert dataclasses.astuple(dataclasses.replace(a, **changes)) == dataclasses.astuple(
            dataclasses.replace(b, **changes)
        )


def test_post_init_validator_runs():
    rec, dc = _pair("Validated")
    for cls in (rec, dc):
        with pytest.raises(ValueError, match="unknown operator: '\\*'"):
            cls("*", 1, 2)


def test_factory_gives_each_instance_its_own_value():
    rec, _ = _pair("Factory")
    assert rec("a").items is not rec("a").items


def test_frozen_hash_is_the_field_tuple_hash():
    rec, _ = _pair("Base")
    assert hash(rec(1, 2)) == hash((1, 2))


def test_repr_of_a_record_that_contains_itself():
    rec, dc = _pair("Three")
    a, b = rec("x", 1), dc("x", 1)
    a.c, b.c = [a], [b]
    assert _rename(repr(a), "Three", "Rec") == _rename(repr(b), "Three", "Dc")


def test_dataclasses_is_imported_only_to_introspect():
    code = (
        "import sys\n"
        "from repro._record import field, record\n"
        "@record(frozen=True, slots=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    tags: tuple = ()\n"
        "@record\n"
        "class Bag:\n"
        "    items: list = field(default_factory=list)\n"
        "assert Point(1) == Point(1) and hash(Point(1)) == hash((1, ()))\n"
        "assert repr(Bag()) == 'Bag(items=[])'\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import dataclasses\n"
        "assert [f.name for f in dataclasses.fields(Point)] == ['x', 'tags']\n"
        "try:\n"
        "    Point(1).x = 2\n"
        "except dataclasses.FrozenInstanceError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('assigned a frozen field')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr


class TestUnsupported:
    @pytest.mark.parametrize("option", ["order", "unsafe_hash", "kw_only", "repr", "init"])
    def test_unknown_decorator_option(self, option):
        with pytest.raises(TypeError):
            record(**{option: True})

    @pytest.mark.parametrize(
        "flags",
        [{"default": 0}, {"repr": False}, {"compare": False}, {"init": False},
         {"hash": True}, {"metadata": {"unit": "ms"}}, {"kw_only": True}],
    )
    def test_field_flags(self, flags):
        with pytest.raises(TypeError, match="unexpected keyword"):
            @record
            class Flagged:
                value: int = field(default_factory=int, **flags)

    @pytest.mark.parametrize("annotation", ["ClassVar[int]", "InitVar[int]", "KW_ONLY"])
    def test_pseudo_fields(self, annotation):
        with pytest.raises(TypeError, match="pseudo-fields"):
            record(type("Pseudo", (), {"__annotations__": {"value": annotation}}))

    def test_field_without_annotation(self):
        with pytest.raises(TypeError, match="no type annotation"):
            record(type("Bare", (), {"value": field(default_factory=int)}))

    def test_dataclasses_field(self):
        namespace = {"__annotations__": {"value": "int"}, "value": dataclasses.field(default=0)}
        with pytest.raises(TypeError, match="repro._record.field"):
            record(type("Stdlib", (), namespace))

    def test_mutable_default(self):
        with pytest.raises(ValueError, match="default_factory"):
            record(type("Mutable", (), {"__annotations__": {"items": "list"}, "items": []}))

    def test_non_default_after_default(self):
        with pytest.raises(TypeError, match="follows default argument"):
            record(type("Order", (), {"__annotations__": {"a": "int", "b": "int"}, "a": 0}))

    def test_mutable_record_from_a_frozen_one(self):
        base, _ = _pair("Base")
        with pytest.raises(TypeError, match="non-frozen"):
            record(type("Thawed", (base,), {"__annotations__": {}}))

    def test_dataclass_base(self):
        _, base = _pair("Base")
        with pytest.raises(TypeError, match="bases must be records"):
            record(frozen=True)(type("Mixed", (base,), {"__annotations__": {}}))

    def test_frozen_record_with_its_own_setattr(self):
        def __setattr__(self, name, value):
            object.__setattr__(self, name, value)

        with pytest.raises(TypeError, match="__setattr__"):
            record(frozen=True)(type("Settable", (), {"__setattr__": __setattr__}))

