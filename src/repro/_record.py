"""Record classes: ``dataclasses.dataclass`` without its start-up cost.

``@dataclass`` compiles five or six methods per class, one ``exec`` each,
every time the defining module is imported: about 1 ms a class, and a
default ``nchecker scan`` defines 62 of them.  Importing ``dataclasses``
costs another 10 ms (2-vCPU VM), most of it ``inspect``.  :func:`record` builds the
same class for the subset of features this package uses::

    @record(frozen=True, slots=True)
    class FieldSig:
        class_name: str
        name: str
        type_name: str = OBJECT

    @record
    class Finding:
        details: dict = field(default_factory=dict)

Only the methods that run on every instance -- ``__init__``, ``__eq__``
and ``__hash__`` -- are generated, and they are compiled together in one
``exec`` per class.  ``__repr__``, the frozen ``__setattr__`` and
``__delattr__`` and the slots pickle state are shared functions that read
the class's tuple of field names (``__record_fields__``).

The class behaves as the ``@dataclass`` one does: the same ``__init__``
signature, ``==`` on the field tuple (``NotImplemented`` for another
class), ``hash()`` of the field tuple when frozen and unhashable when not,
the same ``repr`` text, ``FrozenInstanceError``, ``__slots__``,
``__match_args__`` and pickle state (a list of field values).  Its
``__dataclass_fields__`` holds real :class:`dataclasses.Field` objects,
built on first access, so ``dataclasses.fields``, ``replace``, ``asdict``
and ``is_dataclass`` work on it and only they import ``dataclasses``.

Supported: field defaults, ``field(default_factory=...)``,
``__post_init__``, fields inherited from record bases, ``frozen``,
``slots`` and ``eq=False``.  Anything else raises ``TypeError`` when the
class is decorated.
"""

from __future__ import annotations

import _thread
import re
import sys
import types
from typing import Any, Callable

__all__ = ["field", "record"]


_MISSING = object()


class _Factory:
    """The ``__init__`` default of a ``default_factory`` field."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


class _Spec:
    """One field of a record: what its ``dataclasses.Field`` will hold."""

    __slots__ = ("type", "default", "default_factory")

    def __init__(self, type: Any, default: Any = _MISSING, default_factory: Any = _MISSING) -> None:
        self.type = type
        self.default = default
        self.default_factory = default_factory


def field(*, default_factory: Callable[[], Any]) -> Any:
    """A field whose default is ``default_factory()``, made per instance."""
    return _Spec(None, default_factory=default_factory)


class _DataclassFields:
    """A record's ``__dataclass_fields__``: a dict of ``dataclasses.Field``
    built from the record's specs the first time anything reads it."""

    __slots__ = ("specs", "_fields")

    def __init__(self, specs: dict[str, _Spec]) -> None:
        self.specs = specs
        self._fields: dict | None = None

    def __get__(self, instance, owner) -> dict:
        if self._fields is None:
            import dataclasses

            def given(value):
                return dataclasses.MISSING if value is _MISSING else value

            fields = {}
            for name, spec in self.specs.items():
                f = dataclasses.field(
                    default=given(spec.default), default_factory=given(spec.default_factory)
                )
                f.name = name
                f.type = spec.type
                # ``dataclasses.fields()`` lists only fields with this mark.
                f._field_type = dataclasses._FIELD
                f.kw_only = False
                fields[name] = f
            self._fields = fields
        return self._fields


#: ``(id(instance), thread)`` pairs whose ``repr`` is being computed, so
#: a record that contains itself prints ``...`` instead of recursing.
_repr_running: set[tuple[int, int]] = set()


def _record_repr(self) -> str:
    key = id(self), _thread.get_ident()
    if key in _repr_running:
        return "..."
    _repr_running.add(key)
    try:
        cls = self.__class__
        return f"{cls.__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in cls.__record_fields__]
        ) + ")"
    finally:
        _repr_running.discard(key)


def _frozen_setattr(self, name: str, value) -> None:
    cls = type(self)
    if "__record_fields__" in cls.__dict__ or name in cls.__record_fields__:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _frozen_delattr(self, name: str) -> None:
    cls = type(self)
    if "__record_fields__" in cls.__dict__ or name in cls.__record_fields__:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)


def _slots_getstate(self) -> list:
    return [getattr(self, name) for name in type(self).__record_fields__]


def _slots_setstate(self, state: list) -> None:
    for name, value in zip(type(self).__record_fields__, state):
        object.__setattr__(self, name, value)


def record(cls=None, /, *, frozen: bool = False, slots: bool = False, eq: bool = True):
    """Decorate ``cls`` as a record; usable bare or with options."""

    def wrap(cls):
        return _build(cls, frozen, slots, eq)

    return wrap if cls is None else wrap(cls)


#: Annotations that declare pseudo-fields, which records do not support.
_PSEUDO_FIELD_RE = re.compile(r"\b(?:ClassVar|InitVar|KW_ONLY)\b")


def _own_spec(cls, name: str, annotation) -> _Spec:
    if _PSEUDO_FIELD_RE.search(
        annotation if isinstance(annotation, str) else repr(annotation)
    ):
        raise TypeError(f"{cls.__name__}.{name}: records have no pseudo-fields")
    default = getattr(cls, name, _MISSING)
    if isinstance(default, _Spec):
        return _Spec(annotation, default_factory=default.default_factory)
    if isinstance(default, types.MemberDescriptorType):
        return _Spec(annotation)  # a slot of a base class, not a default
    if type(default).__hash__ is None:
        raise ValueError(
            f"mutable default {type(default)} for field {name} is not allowed: "
            "use default_factory"
        )
    return _Spec(annotation, default)


def _collect_specs(cls, frozen: bool) -> dict[str, _Spec]:
    specs: dict[str, _Spec] = {}
    frozen_bases = []
    for base in cls.__mro__[-1:0:-1]:
        base_fields = base.__dict__.get("__dataclass_fields__")
        if base_fields is None:
            continue
        if not isinstance(base_fields, _DataclassFields):
            raise TypeError(f"{cls.__name__}: a record's bases must be records")
        specs.update(base_fields.specs)
        frozen_bases.append(base.__dict__.get("__setattr__") is _frozen_setattr)
    if frozen_bases:
        if any(frozen_bases) and not frozen:
            raise TypeError("cannot inherit non-frozen dataclass from a frozen one")
        if not any(frozen_bases) and frozen:
            raise TypeError("cannot inherit frozen dataclass from a non-frozen one")

    body = cls.__dict__
    annotations = body.get("__annotations__", {})
    dataclasses = sys.modules.get("dataclasses")
    for name, value in body.items():
        if dataclasses is not None and isinstance(value, dataclasses.Field):
            raise TypeError(f"{name!r}: records take repro._record.field")
        if isinstance(value, _Spec) and name not in annotations:
            raise TypeError(f"{name!r} is a field but has no type annotation")
    for name, annotation in annotations.items():
        specs[name] = _own_spec(cls, name, annotation)
        if isinstance(body.get(name), _Spec):
            delattr(cls, name)
    return specs


def _generate(cls, specs: dict[str, _Spec], frozen: bool, eq: bool, add_hash: bool) -> dict:
    """Compile ``__init__`` and, as needed, ``__eq__`` and ``__hash__`` in
    one ``exec``; return them by name."""
    namespace = {
        "__name__": cls.__module__,
        "__rec_setattr": object.__setattr__,
        "__rec_factory": _FACTORY,
    }
    params = ["self"]
    body = []
    seen_default = False
    for name, spec in specs.items():
        value = name
        if spec.default_factory is not _MISSING:
            namespace[f"__rec_make_{name}"] = spec.default_factory
            params.append(f"{name}=__rec_factory")
            value = f"__rec_make_{name}() if {name} is __rec_factory else {name}"
            seen_default = True
        elif spec.default is not _MISSING:
            namespace[f"__rec_dflt_{name}"] = spec.default
            params.append(f"{name}=__rec_dflt_{name}")
            seen_default = True
        elif seen_default:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        else:
            params.append(name)
        if frozen:
            body.append(f"    __rec_setattr(self, {name!r}, {value})")
        else:
            body.append(f"    self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    lines = [f"def __init__({', '.join(params)}):", *(body or ["    pass"])]
    names = ["__init__"]
    own = "".join(f"self.{name}," for name in specs)
    if eq:
        other = "".join(f"other.{name}," for name in specs)
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({own}) == ({other})",
            "    return NotImplemented",
        ]
        names.append("__eq__")
    if add_hash:
        lines += ["def __hash__(self):", f"    return hash(({own}))"]
        names.append("__hash__")
    exec("\n".join(lines), namespace)
    methods = {name: namespace[name] for name in names}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__init__"].__annotations__ = {
        **{name: spec.type for name, spec in specs.items()}, "return": None,
    }
    return methods


def _build(cls, frozen: bool, slots: bool, eq: bool):
    specs = _collect_specs(cls, frozen)
    names = tuple(specs)
    body = cls.__dict__
    # The hash rule of ``@dataclass`` without ``unsafe_hash``: an explicit
    # ``__hash__`` stays; otherwise ``eq`` makes a frozen record hash its
    # fields and leaves a mutable one unhashable.
    class_hash = body.get("__hash__", _MISSING)
    explicit_hash = not (class_hash is _MISSING or (class_hash is None and "__eq__" in body))
    add_hash = eq and frozen and not explicit_hash
    methods = _generate(cls, specs, frozen, eq and "__eq__" not in body, add_hash)

    cls.__dataclass_fields__ = _DataclassFields(specs)
    cls.__record_fields__ = names
    added = {"__repr__": _record_repr, "__match_args__": names, **methods}
    if frozen:
        for name in ("__setattr__", "__delattr__"):
            if name in body:
                raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
        added["__setattr__"] = _frozen_setattr
        added["__delattr__"] = _frozen_delattr
    elif eq and not explicit_hash:
        added["__hash__"] = None
    for name, value in added.items():
        if name not in body:
            setattr(cls, name, value)
    return _with_slots(cls, names, frozen) if slots else cls


def _with_slots(cls, names: tuple[str, ...], frozen: bool):
    """Recreate ``cls`` with ``__slots__`` for its fields, as ``@dataclass``
    does: slots can only be declared when a class is created."""
    body = dict(cls.__dict__)
    if "__slots__" in body:
        raise TypeError(f"{cls.__name__} already specifies __slots__")
    inherited = set()
    for base in cls.__mro__[1:-1]:
        base_slots = base.__dict__.get("__slots__", ())
        inherited.update((base_slots,) if isinstance(base_slots, str) else base_slots)
    body["__slots__"] = tuple(name for name in names if name not in inherited)
    for name in (*names, "__dict__", "__weakref__"):
        body.pop(name, None)
    slotted = type(cls)(cls.__name__, cls.__bases__, body)
    slotted.__qualname__ = cls.__qualname__
    if frozen:
        # Frozen instances cannot be restored by attribute assignment, so
        # pickling needs an explicit state: the list of field values.
        if "__getstate__" not in body:
            slotted.__getstate__ = _slots_getstate
        if "__setstate__" not in body:
            slotted.__setstate__ = _slots_setstate
    return slotted
