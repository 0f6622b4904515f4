"""App-level builder: assembles whole synthetic APKs.

Wraps :class:`~repro.ir.builder.ClassBuilder` with manifest registration
and houses the auxiliary classes the snippet emitters create (listener
implementations, AsyncTasks, helper methods).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..app.apk import APK
from ..app.components import ComponentKind
from ..app.manifest import Manifest
from ..ir.builder import ClassBuilder


class AppBuilder:
    """Accumulates classes and manifest entries, then builds an APK."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.manifest = Manifest(
            package, permissions=["android.permission.INTERNET"]
        )
        self._class_builders: dict[str, ClassBuilder] = {}
        self._counter = 0

    def fresh_name(self, hint: str) -> str:
        self._counter += 1
        return f"{self.package}.{hint}{self._counter}"

    def new_class(
        self,
        name: str,
        superclass: str = "java.lang.Object",
        interfaces: Sequence[str] = (),
        component: Optional[ComponentKind] = None,
    ) -> ClassBuilder:
        if not name.startswith(self.package):
            name = f"{self.package}.{name}"
        builder = ClassBuilder(name, superclass, interfaces)
        if name in self._class_builders:
            raise ValueError(f"duplicate class {name}")
        self._class_builders[name] = builder
        if component is not None:
            self.manifest.declare(component, name)
        return builder

    def activity(self, name: str) -> ClassBuilder:
        return self.new_class(
            name, "android.app.Activity", component=ComponentKind.ACTIVITY
        )

    def service(self, name: str) -> ClassBuilder:
        return self.new_class(
            name, "android.app.Service", component=ComponentKind.SERVICE
        )

    def async_task(self, name: str) -> ClassBuilder:
        return self.new_class(name, "android.os.AsyncTask")

    def get_class_builder(self, name: str) -> ClassBuilder:
        return self._class_builders[name]

    def build(self) -> APK:
        apk = APK(self.manifest, [cb.build() for cb in self._class_builders.values()])
        apk.validate()
        return apk
