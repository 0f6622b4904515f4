"""Loading and saving whole apps in the ``.apkt`` text format.

Layout of an ``.apkt`` file::

    apk com.example.app

    manifest {
      permission android.permission.INTERNET
      activity com.example.MainActivity
      service com.example.SyncService
    }

    class com.example.MainActivity extends android.app.Activity {
      ...
    }

The class bodies use the format of :mod:`repro.ir.parser`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Union

from ..ir.parser import ParseError, _strip_comment, parse_classes
from ..ir.printer import class_lines
from .apk import APK
from .components import ComponentKind
from .manifest import Manifest

_APK_RE = re.compile(r"^apk\s+([\w$.]+)\s*$")
_MANIFEST_ENTRY_RE = re.compile(r"^(activity|service|receiver|provider|permission)\s+([\w$.]+)$")


def loads_apk(text: str) -> APK:
    """Parse an ``.apkt`` document into an :class:`APK`."""
    lines = text.splitlines()
    package: str | None = None
    manifest: Manifest | None = None
    class_text_start: int | None = None
    # component class -> (line, entry) of its first manifest declaration
    declared: dict[str, tuple[int, str]] = {}
    i = 0
    while i < len(lines):
        line = _strip_comment(lines[i])
        i += 1
        if not line:
            continue
        apk_match = _APK_RE.match(line)
        if apk_match is not None:
            if package is not None:
                raise ParseError("duplicate apk header", i)
            package = apk_match.group(1)
            continue
        if line == "manifest {":
            if package is None:
                raise ParseError("manifest before apk header", i)
            manifest = Manifest(package)
            while i < len(lines):
                entry = lines[i].split("#", 1)[0].strip()
                i += 1
                if not entry:
                    continue
                if entry == "}":
                    break
                entry_match = _MANIFEST_ENTRY_RE.match(entry)
                if entry_match is None:
                    raise ParseError("malformed manifest entry", i, entry)
                kind, name = entry_match.groups()
                if kind == "permission":
                    manifest.permissions.append(name)
                else:
                    manifest.declare(ComponentKind(kind), name)
                    declared.setdefault(name, (i, entry))
            continue
        # First class header: the rest of the document is class definitions.
        class_text_start = i - 1
        break
    if package is None:
        raise ParseError("missing apk header", 1)
    if manifest is None:
        manifest = Manifest(package)
    classes = []
    if class_text_start is not None:
        classes = parse_classes(
            "\n".join(lines[class_text_start:]), first_line=class_text_start + 1
        )
    apk = APK(manifest, classes)
    for name, (line_no, entry) in declared.items():
        if name not in apk.hierarchy:
            raise ParseError("manifest declares missing class", line_no, entry)
    apk.validate()
    return apk


def dumps_apk(apk: APK) -> str:
    """Serialise an :class:`APK` to ``.apkt`` text (round-trips)."""
    out: list[str] = [f"apk {apk.package}", ""]
    out.append("manifest {")
    for permission in apk.manifest.permissions:
        out.append(f"  permission {permission}")
    for kind, name in apk.manifest.components():
        out.append(f"  {kind.value} {name}")
    out.append("}")
    out.append("")
    for cls in apk.classes():
        out.extend(class_lines(cls))
        out.append("")
    return "\n".join(out)


def load_apk(path: Union[str, Path]) -> APK:
    return loads_apk(Path(path).read_text())


def save_apk(apk: APK, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_apk(apk))
