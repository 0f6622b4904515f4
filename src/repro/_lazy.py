"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule as soon as anything under the package loads.
Instead it declares where each name lives and lets the first attribute
access import the defining submodule::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "checker": ("NChecker", "NCheckerOptions"),
        "patcher": ("Patcher",),
    })

``from package import name`` and ``package.name`` behave as before; a
resolved name is cached in the package namespace, so later lookups cost
nothing.  A name the map does not list raises ``AttributeError``, which
lets ``from package import submodule`` fall through to the import
system as usual.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's module ``__getattr__`` and ``__dir__``.

    ``exports`` maps each submodule (relative to ``package``, without
    the leading dot) to the names it defines that the package exports.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | where.keys())

    return __getattr__, __dir__
