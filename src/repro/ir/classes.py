"""Classes and class hierarchies of the IR."""

from __future__ import annotations

from typing import Iterator, Optional

from .._record import field, record
from .method import IRMethod
from .values import FieldSig, OBJECT


@record(slots=True)
class IRClass:
    """A class (or interface) definition.

    Methods are indexed by ``(name, arity)`` — the "sub-signature".  The
    corpus and parser never produce same-name/same-arity overloads, and
    resolution by sub-signature matches how the original tool matched
    annotated library APIs against call sites.
    """

    name: str
    superclass: Optional[str] = OBJECT
    interfaces: tuple[str, ...] = ()
    is_interface: bool = False
    fields: dict[str, FieldSig] = field(default_factory=dict)
    _methods: dict[tuple[str, int], IRMethod] = field(default_factory=dict)

    def add_method(self, method: IRMethod) -> None:
        key = (method.sig.name, method.sig.arity)
        if key in self._methods:
            raise ValueError(
                f"duplicate method {method.sig.name}/{method.sig.arity} "
                f"in class {self.name}"
            )
        self._methods[key] = method

    def add_field(self, sig: FieldSig) -> None:
        self.fields[sig.name] = sig

    def get_method(self, name: str, arity: int) -> Optional[IRMethod]:
        return self._methods.get((name, arity))

    def methods(self) -> Iterator[IRMethod]:
        yield from self._methods.values()

    def method_keys(self) -> set[tuple[str, int]]:
        return set(self._methods)

    def __repr__(self) -> str:
        return f"<IRClass {self.name} ({len(self._methods)} methods)>"


class ClassHierarchy:
    """A collection of application classes with subtype queries.

    Classes *not* in the collection (Android framework classes, library
    classes) are opaque: ``is_subtype`` falls back to name equality plus
    any externally registered edges (the library models register the
    framework hierarchy they care about, e.g. ``Activity <: Context``).
    """

    __slots__ = ("_classes", "_external_supers", "_supertypes_cache")

    def __init__(self) -> None:
        self._classes: dict[str, IRClass] = {}
        self._external_supers: dict[str, set[str]] = {}
        #: Memoized transitive supertype sets; any edge change (a new
        #: class or external edge) drops the whole memo — both are rare
        #: setup-time events, while subtype queries run on every scan.
        self._supertypes_cache: dict[str, set[str]] = {}

    def add_class(self, cls: IRClass) -> None:
        if cls.name in self._classes:
            raise ValueError(f"duplicate class {cls.name}")
        self._classes[cls.name] = cls
        self._supertypes_cache.clear()

    def add_external_edge(self, subclass: str, superclass: str) -> None:
        """Register a supertype edge for a class outside the application
        (used to model the Android framework hierarchy)."""
        self._external_supers.setdefault(subclass, set()).add(superclass)
        self._supertypes_cache.clear()

    def get(self, name: str) -> Optional[IRClass]:
        return self._classes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[IRClass]:
        yield from self._classes.values()

    def __len__(self) -> int:
        return len(self._classes)

    def supertypes(self, name: str) -> set[str]:
        """All transitive supertypes of ``name`` (classes and interfaces),
        excluding ``name`` itself.  Memoized; callers must not mutate the
        returned set."""
        cached = self._supertypes_cache.get(name)
        if cached is not None:
            return cached
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            parents: set[str] = set()
            cls = self._classes.get(current)
            if cls is not None:
                if cls.superclass:
                    parents.add(cls.superclass)
                parents.update(cls.interfaces)
            parents.update(self._external_supers.get(current, ()))
            for parent in parents:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        self._supertypes_cache[name] = seen
        return seen

    def is_subtype(self, name: str, supertype: str) -> bool:
        return name == supertype or supertype in self.supertypes(name)

    def resolve_method(
        self, class_name: str, method_name: str, arity: int
    ) -> Optional[IRMethod]:
        """Virtual-dispatch resolution: walk up the superclass chain from
        ``class_name`` and return the first matching body."""
        current: Optional[str] = class_name
        while current is not None:
            cls = self._classes.get(current)
            if cls is None:
                return None
            method = cls.get_method(method_name, arity)
            if method is not None:
                return method
            current = cls.superclass
        return None
