"""The AndroidManifest model: declared components and permissions."""

from __future__ import annotations

from typing import Iterator, Optional

from .._record import field, record
from .components import ComponentKind


@record
class Manifest:
    """Declared components of an app, as AndroidManifest.xml would list.

    NChecker reads the manifest to decide whether an entry point belongs
    to an Activity (user-initiated requests) or a Service (background
    requests) — paper §4.4.2.
    """

    package: str
    activities: list[str] = field(default_factory=list)
    services: list[str] = field(default_factory=list)
    receivers: list[str] = field(default_factory=list)
    providers: list[str] = field(default_factory=list)
    permissions: list[str] = field(default_factory=list)

    def component_kind(self, class_name: str) -> Optional[ComponentKind]:
        if class_name in self.activities:
            return ComponentKind.ACTIVITY
        if class_name in self.services:
            return ComponentKind.SERVICE
        if class_name in self.receivers:
            return ComponentKind.RECEIVER
        if class_name in self.providers:
            return ComponentKind.PROVIDER
        return None

    def components(self) -> Iterator[tuple[ComponentKind, str]]:
        for name in self.activities:
            yield ComponentKind.ACTIVITY, name
        for name in self.services:
            yield ComponentKind.SERVICE, name
        for name in self.receivers:
            yield ComponentKind.RECEIVER, name
        for name in self.providers:
            yield ComponentKind.PROVIDER, name

    def declare(self, kind: ComponentKind, class_name: str) -> None:
        bucket = {
            ComponentKind.ACTIVITY: self.activities,
            ComponentKind.SERVICE: self.services,
            ComponentKind.RECEIVER: self.receivers,
            ComponentKind.PROVIDER: self.providers,
        }[kind]
        if class_name not in bucket:
            bucket.append(class_name)
