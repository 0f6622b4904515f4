"""Entry-point discovery (paper §4.4.2).

Entry points are methods the Android framework calls into: lifecycle
methods of manifest-declared components, and UI/event callbacks.  Each
entry point carries the *context* NChecker later uses to classify
requests as user-initiated (Activity / UI callback) vs. background
(Service).
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..app.apk import APK
from ..app.components import (
    ComponentKind,
    LIFECYCLE_METHODS,
    UI_CALLBACK_METHODS,
)
from ..ir.method import IRMethod

#: Call-graph node key: (class name, method name, arity).
MethodKey = tuple[str, str, int]


def method_key(method: IRMethod) -> MethodKey:
    key = method._cached_key
    if key is None:
        sig = method.sig
        key = (sig.class_name, sig.name, sig.arity)
        method._cached_key = key
    return key


@record(frozen=True)
class EntryPoint:
    """A framework-invoked method and the context it implies."""

    key: MethodKey
    component_kind: Optional[ComponentKind]
    #: True when this entry is a direct user interaction (click etc.);
    #: lifecycle methods of Activities are user-facing but not direct
    #: interactions — they still count as user-initiated per the paper.
    is_ui_callback: bool

    @property
    def user_initiated(self) -> bool:
        """Paper §4.4.2: requests from Activities (or UI callbacks) are
        user-initiated and time-sensitive; Service-originated requests are
        background."""
        if self.is_ui_callback:
            return True
        return self.component_kind is ComponentKind.ACTIVITY

    @property
    def background(self) -> bool:
        return self.component_kind is ComponentKind.SERVICE


def discover_entry_points(apk: APK) -> list[EntryPoint]:
    """All framework entry points of the app."""
    entries: list[EntryPoint] = []
    seen: set[MethodKey] = set()

    def add(method: IRMethod, kind: Optional[ComponentKind], is_ui: bool) -> None:
        key = method_key(method)
        if key not in seen:
            seen.add(key)
            entries.append(EntryPoint(key, kind, is_ui))

    for cls in apk.classes():
        kind = apk.component_kind_of(cls.name)
        lifecycle = LIFECYCLE_METHODS.get(kind, ()) if kind else ()
        for method in cls.methods():
            if method.name in UI_CALLBACK_METHODS:
                # UI callbacks inherit the kind of their declaring class
                # when it is a component, else Activity-context is assumed
                # (listeners are registered from Activities).
                add(method, kind or ComponentKind.ACTIVITY, is_ui=True)
            elif kind is not None and method.name in lifecycle:
                add(method, kind, is_ui=False)
    return entries

