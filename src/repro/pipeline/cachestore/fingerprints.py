"""Content addressing for the persistent artifact cache.

Every cache entry is addressed by a fingerprint folding together

* the **app content**: a hash per method of its printed IR (the same
  text ``dumps_apk`` round-trips) plus the manifest's components and
  permissions — any statement, method, or component change misses;
* the **library-model version** (:data:`repro.libmodels.
  LIBMODELS_VERSION`) and the registered library keys — re-annotating a
  library invalidates everything derived under the old annotations;
* the **cache format version** — unpicklable layout changes miss
  instead of crashing;
* the declared :class:`NCheckerOptions <repro.core.checker.
  NCheckerOptions>` subset read by the artifact's builder
  (:data:`OPTIONS_READ_BY`).  Today every builder is
  options-independent (options select *which* artifacts build, never
  their content), so artifacts are shared across flag combinations; an
  option-sensitive builder added later declares its fields here and
  splits its entries.

These functions are pure over their inputs: no backend ever influences
an address.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ...callgraph.entrypoints import method_key
from ...ir.method import IRMethod
from ...ir.printer import print_method
from ...libmodels import LIBMODELS_VERSION

if TYPE_CHECKING:
    from ...app.apk import APK
    from ...core.checker import NCheckerOptions

#: Bump on any change to the entry layout or the pickled object shapes
#: that older readers/writers cannot handle; old entries then miss (and
#: are garbage-collected by ``nchecker cache gc``) instead of crashing.
#: Folded into both the entry header (:mod:`.codec`) and the local
#: backend's ``v<N>`` path segment.
CACHE_FORMAT_VERSION = 2  # v2: __slots__ IR values/statements change pickle shapes

#: NCheckerOptions fields folded into each artifact kind's cache key —
#: the options subset the artifact's builder reads.  All empty today:
#: options decide which artifacts a scan plan *builds*, never what any
#: artifact *contains*, so entries are shared across flag combinations.
#: A future option-sensitive builder declares its fields here.
OPTIONS_READ_BY: dict[str, tuple[str, ...]] = {
    "callgraph": (),
    "summaries": (),
    "requests": (),
    "retry-loops": (),
    "icc-model": (),
    "threadcontext": (),
}


def method_content_hash(method: IRMethod) -> bytes:
    """Digest of one method's printed IR — the per-method unit of the app
    fingerprint (a patched method changes exactly its own hash)."""
    return hashlib.blake2b(
        print_method(method).encode(), digest_size=16
    ).digest()


def app_content_fingerprint(apk: "APK") -> str:
    """Content address of one app: package, manifest surface, and every
    method's IR hash, order-independent over class file layout."""
    h = hashlib.blake2b(digest_size=20)
    h.update(apk.package.encode())
    for permission in apk.manifest.permissions:
        h.update(b"\0perm\0" + permission.encode())
    for kind, name in apk.manifest.components():
        h.update(b"\0comp\0" + kind.value.encode() + b"\0" + name.encode())
    entries = sorted(
        (repr(method_key(m)).encode(), method_content_hash(m))
        for m in apk.methods()
    )
    for key_repr, digest in entries:
        h.update(b"\0m\0" + key_repr + digest)
    return h.hexdigest()


def registry_fingerprint(registry) -> str:
    """Annotation-model component of the cache key: the model version plus
    the set of registered libraries (default vs extended registry)."""
    keys = ",".join(sorted(registry.libraries))
    return f"v{LIBMODELS_VERSION}:{keys}"


def options_fingerprint(kind: str, options: "NCheckerOptions") -> str:
    """The declared options subset for ``kind``, rendered stably."""
    fields = OPTIONS_READ_BY.get(kind, ())
    return ";".join(f"{f}={getattr(options, f)!r}" for f in fields)


def scan_options_fingerprint(options: "NCheckerOptions") -> str:
    """One digest over every analysis-shaping option field — the whole-run
    counterpart of the per-kind :func:`options_fingerprint`.

    The run ledger (:mod:`repro.obs.events`) stamps this on every record
    so ``nchecker bench compare`` never silently diffs runs produced
    under different flags.  The storage-only ``cache_dir`` is excluded:
    it can never change scan output.  Unordered collections are sorted
    before hashing so the digest is stable across interpreter hash
    seeds.
    """
    import dataclasses

    h = hashlib.blake2b(digest_size=12)
    h.update(f"fmt{CACHE_FORMAT_VERSION};lib{LIBMODELS_VERSION}".encode())
    for field in dataclasses.fields(options):
        if field.name == "cache_dir":
            continue
        value = getattr(options, field.name)
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        h.update(f"\0{field.name}={value!r}".encode())
    return h.hexdigest()


def entry_digest(
    kind: str, app_fp: str, registry, options: "NCheckerOptions"
) -> str:
    """The per-entry digest of one (app, artifact-kind, options) triple —
    the backend-independent half of the entry address (the app
    fingerprint plus this digest name an entry on every backend)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(app_fp.encode())
    h.update(b"\0" + registry_fingerprint(registry).encode())
    h.update(b"\0" + options_fingerprint(kind, options).encode())
    return h.hexdigest()
