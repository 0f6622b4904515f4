"""Content addressing for the persistent artifact cache.

Every cache entry is addressed by a fingerprint folding together

* the **app content**: a hash per method of its printed IR (the same
  text ``dumps_apk`` round-trips) plus the manifest's components and
  permissions — any statement, method, or component change misses;
* the **library-model version** (:data:`repro.libmodels.
  LIBMODELS_VERSION`) and the registered library keys — re-annotating a
  library invalidates everything derived under the old annotations;
* the **cache format version** — unpicklable layout changes miss
  instead of crashing.

No :class:`NCheckerOptions <repro.core.checker.NCheckerOptions>` field
reaches an address: options select *which* artifacts a scan builds,
never their content, so entries are shared across flag combinations.
These functions are pure over their inputs: storage never influences an
address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it: hashlib has one
    from hashlib import blake2b

from ...callgraph.entrypoints import method_key
from ...ir.method import IRMethod
from ...ir.printer import print_method
from ...libmodels import LIBMODELS_VERSION

if TYPE_CHECKING:
    from ...app.apk import APK

#: Bump on any change to the entry layout or the pickled object shapes
#: that older readers/writers cannot handle; old entries then miss (and
#: are garbage-collected by ``nchecker cache gc``) instead of crashing.
#: Folded into both the entry header (:mod:`.codec`) and the local
#: directory's ``v<N>`` path segment.
CACHE_FORMAT_VERSION = 3  # v3: one entry per app, live objects by reference


def method_content_hash(method: IRMethod) -> bytes:
    """Digest of one method's printed IR — the per-method unit of the app
    fingerprint (a patched method changes exactly its own hash)."""
    return blake2b(
        print_method(method).encode(), digest_size=16
    ).digest()


def app_content_fingerprint(apk: "APK") -> str:
    """Content address of one app: package, manifest surface, and every
    method's IR hash, order-independent over class file layout."""
    h = blake2b(digest_size=20)
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


def entry_digest(app_fp: str, registry) -> str:
    """The per-entry digest of one app under one library registry — with
    the app fingerprint and the artifact kind, the address of an entry.

    The trailing ``\\0`` (an empty options field in earlier layouts)
    keeps addresses byte-identical to caches those layouts wrote."""
    h = blake2b(digest_size=16)
    h.update(app_fp.encode())
    h.update(b"\0" + registry_fingerprint(registry).encode())
    h.update(b"\0")
    return h.hexdigest()
