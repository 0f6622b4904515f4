"""Entry serialization: persistent-id pickling plus the integrity header.

Artifacts reference live analysis objects — the APK, its methods, the
library registry, the store itself, and each other (the summary engine
holds the call graph).  A :class:`pickle.Pickler` subclass swaps each of
these for a stable *persistent id* (``("method", key)``,
``("artifact", "callgraph")``, ...) at dump time; loading resolves the
ids against the live session, so a cached summary engine comes back
wired to the freshly loaded APK's method objects and to whatever call
graph the store holds.  Everything else in an artifact is plain frozen
dataclasses and containers, pickled by value.

Every encoded blob carries a ``NCKC``-magic header with the cache
format version and a blake2b checksum of the payload.  Decoding is
where **corruption-is-a-miss** is enforced for every backend: a
truncated, bit-flipped, or version-mismatched blob raises
:class:`CacheMiss` — always handled as a rebuild, never a crash —
regardless of where the bytes came from.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct

from ...callgraph.entrypoints import method_key
from ...dataflow.summaries import CONFIG_TOP
from ...ir.method import IRMethod
from ...libmodels.annotations import LibraryModel
from ..artifacts import ARTIFACTS, ArtifactStore
from . import fingerprints

#: Entry header: magic, format version, blake2b-128 digest of the payload.
MAGIC = b"NCKC"
HEADER = struct.Struct(">4sI16s")


class CacheMiss(Exception):
    """An entry could not be used (absent dependency, unknown reference,
    corruption, version mismatch) — always handled as a rebuild."""


class _ArtifactPickler(pickle.Pickler):
    """Pickles one artifact, swapping live session objects for stable ids.

    ``artifact_ids`` maps ``id(value) -> kind`` for the *other* app-scoped
    artifacts in the store, so cross-artifact references (the summary
    engine's call graph) serialize as one tag instead of a duplicate
    object graph.
    """

    def __init__(self, buf, store: ArtifactStore, artifact_ids: dict[int, str]):
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._store = store
        self._artifact_ids = artifact_ids

    def persistent_id(self, obj):
        name = self._artifact_ids.get(id(obj))
        if name is not None:
            return ("artifact", name)
        if obj is self._store:
            return ("store",)
        if obj is self._store.apk:
            return ("apk",)
        if obj is self._store.registry:
            return ("registry",)
        if obj is CONFIG_TOP:
            return ("config-top",)
        if isinstance(obj, IRMethod):
            return ("method", method_key(obj))
        if isinstance(obj, LibraryModel):
            return ("libmodel", obj.key)
        return None


class _ArtifactUnpickler(pickle.Unpickler):
    """Resolves persistent ids against the live session.

    An ``("artifact", kind)`` reference resolves through
    :meth:`ArtifactStore.get` — if the referenced dependency was not
    itself loadable it is built (an honest build, counted as such) so a
    valid dependent entry is never wasted.  Unknown method or library
    references raise :class:`CacheMiss` (they cannot occur when the
    fingerprint matched, but corruption must degrade to a rebuild).
    """

    def __init__(self, buf, store: ArtifactStore, methods: dict):
        super().__init__(buf)
        self._store = store
        self._methods = methods

    def persistent_load(self, pid):
        tag = pid[0]
        if tag == "artifact":
            return self._store.get(ARTIFACTS[pid[1]])
        if tag == "store":
            return self._store
        if tag == "apk":
            return self._store.apk
        if tag == "registry":
            return self._store.registry
        if tag == "config-top":
            return CONFIG_TOP
        if tag == "method":
            found = self._methods.get(pid[1])
            if found is None:
                raise CacheMiss(f"unknown method reference {pid[1]!r}")
            return found
        if tag == "libmodel":
            found = self._store.registry.libraries.get(pid[1])
            if found is None:
                raise CacheMiss(f"unknown library reference {pid[1]!r}")
            return found
        raise CacheMiss(f"unknown persistent id {pid!r}")


def encode_artifact(
    store: ArtifactStore, value, artifact_ids: dict[int, str]
) -> bytes:
    """One artifact → a self-verifying blob (header + pickled payload).

    May raise :class:`pickle.PicklingError` for an unpicklable artifact;
    the caller skips the write (best-effort policy)."""
    buf = io.BytesIO()
    _ArtifactPickler(buf, store, artifact_ids).dump(value)
    payload = buf.getvalue()
    header = HEADER.pack(
        MAGIC,
        fingerprints.CACHE_FORMAT_VERSION,
        hashlib.blake2b(payload, digest_size=16).digest(),
    )
    return header + payload


def decode_artifact(data: bytes, store: ArtifactStore, methods: dict):
    """A blob → the live artifact, or :class:`CacheMiss` for anything a
    backend could have mangled (truncation, corruption, version skew)."""
    if len(data) < HEADER.size:
        raise CacheMiss("truncated header")
    magic, version, digest = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CacheMiss("bad magic")
    if version != fingerprints.CACHE_FORMAT_VERSION:
        raise CacheMiss(
            f"format version {version} != {fingerprints.CACHE_FORMAT_VERSION}"
        )
    payload = data[HEADER.size:]
    if hashlib.blake2b(payload, digest_size=16).digest() != digest:
        raise CacheMiss("payload checksum mismatch")
    try:
        return _ArtifactUnpickler(io.BytesIO(payload), store, methods).load()
    except CacheMiss:
        raise
    except Exception as exc:  # any unpickling failure is just a miss
        raise CacheMiss(f"unpickle failed: {exc!r}")
