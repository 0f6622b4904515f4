"""Entry serialization: one pickle per app plus the integrity header.

An entry holds every app-scoped artifact of one store as a ``{kind:
artifact}`` dict, pickled in one pass.  Artifacts that reference each
other (the summary engine holds the call graph) therefore share one
object through the pickle memo, and come back sharing it.

Artifacts also reference live analysis objects: the APK, its methods,
the library registry and its models, the store itself and
:data:`~repro.dataflow.summaries.CONFIG_TOP`.  The pickler's
``dispatch_table``, keyed by exact type, writes each of these as a call
of the module-level marker :func:`_live` with a stable reference
(``("method", key)``, ``("libmodel", key)``, ``("apk",)``, ...), so the
C pickler reaches Python code once per distinct live object and never
for plain records and containers.  An APK, registry or store that is not
the encoding session's own refuses to encode, and that write is skipped.
On load, the unpickler's ``find_class`` binds ``_live`` to a resolver
over the loading session: a cached summary engine comes back wired to
the freshly loaded APK's method objects.  An unknown method or library
reference is a :class:`CacheMiss`.

Every encoded blob carries a ``NCKC``-magic header with the cache
format version and a blake2b checksum of the payload.  Decoding is
where **corruption-is-a-miss** is enforced: a truncated, bit-flipped or
version-mismatched blob, or a payload that is not a non-empty ``{known
kind: artifact}`` dict, raises :class:`CacheMiss` (always handled as a
rebuild, never a crash) wherever the bytes came from.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import pickle
import struct

from ...app.apk import APK
from ...callgraph.entrypoints import method_key
from ...dataflow.summaries import CONFIG_TOP
from ...ir.method import IRMethod
from ...libmodels.annotations import LibraryModel, LibraryRegistry
from ..artifacts import ARTIFACTS, ArtifactStore
from . import fingerprints

#: Entry header: magic, format version, blake2b-128 digest of the payload.
MAGIC = b"NCKC"
HEADER = struct.Struct(">4sI16s")


class CacheMiss(Exception):
    """An entry could not be used (unknown reference, corruption, version
    mismatch, wrong payload shape): always handled as a rebuild."""


def _live(*ref):
    """The marker an entry calls to name a live session object.  The
    unpickler binds it to the loading session's resolver; called
    directly, it resolves nothing."""
    raise CacheMiss(f"live reference {ref!r} outside a cache load")


def _method_ref(method: IRMethod):
    return _live, ("method", method_key(method))


def _libmodel_ref(model: LibraryModel):
    return _live, ("libmodel", model.key)


def _config_top_ref(_top):
    return _live, ("config-top",)


def _session_ref(tag: str, own):
    """Reducer for the one ``own`` object of its type a store may
    reference."""

    def reduce(obj):
        if obj is not own:
            raise pickle.PicklingError(f"{tag} of another session")
        return _live, (tag,)

    return reduce


def encode_entry(store: ArtifactStore, artifacts: dict[str, object]) -> bytes:
    """``{kind: artifact}`` of ``store`` → a self-verifying blob (header +
    pickled payload).

    May raise :class:`pickle.PicklingError` for an unpicklable artifact
    or a reference to another session's APK, registry or store; the
    caller skips the write (best-effort policy)."""
    table = copyreg.dispatch_table.copy()
    table[IRMethod] = _method_ref
    table[LibraryModel] = _libmodel_ref
    table[type(CONFIG_TOP)] = _config_top_ref
    table[APK] = _session_ref("apk", store.apk)
    table[LibraryRegistry] = _session_ref("registry", store.registry)
    table[ArtifactStore] = _session_ref("store", store)
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = table
    pickler.dump(artifacts)
    payload = buf.getvalue()
    header = HEADER.pack(
        MAGIC,
        fingerprints.CACHE_FORMAT_VERSION,
        hashlib.blake2b(payload, digest_size=16).digest(),
    )
    return header + payload


class _EntryUnpickler(pickle.Unpickler):
    """Binds the :func:`_live` marker to ``resolve``."""

    def __init__(self, buf, resolve) -> None:
        super().__init__(buf)
        self._resolve = resolve

    def find_class(self, module, name):
        if module == __name__ and name == "_live":
            return self._resolve
        return super().find_class(module, name)


def _resolver(store: ArtifactStore):
    """The live object each reference names in ``store``'s session."""
    methods = {method_key(m): m for m in store.apk.methods()}
    libraries = store.registry.libraries
    fixed = {
        "apk": store.apk,
        "registry": store.registry,
        "store": store,
        "config-top": CONFIG_TOP,
    }

    def resolve(tag, key=None):
        if tag == "method":
            found = methods.get(key)
        elif tag == "libmodel":
            found = libraries.get(key)
        else:
            found = fixed.get(tag)
        if found is None:
            raise CacheMiss(f"unknown {tag} reference {key!r}")
        return found

    return resolve


def decode_entry(data: bytes, store: ArtifactStore) -> dict[str, object]:
    """A blob → ``{kind: artifact}`` wired to ``store``'s session, or
    :class:`CacheMiss` for anything a backend could have mangled
    (truncation, corruption, version skew, a foreign payload)."""
    if len(data) < HEADER.size:
        raise CacheMiss("truncated header")
    magic, version, digest = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CacheMiss("bad magic")
    if version != fingerprints.CACHE_FORMAT_VERSION:
        raise CacheMiss(
            f"format version {version} != {fingerprints.CACHE_FORMAT_VERSION}"
        )
    payload = memoryview(data)[HEADER.size:]
    if hashlib.blake2b(payload, digest_size=16).digest() != digest:
        raise CacheMiss("payload checksum mismatch")
    try:
        artifacts = _EntryUnpickler(io.BytesIO(payload), _resolver(store)).load()
    except CacheMiss:
        raise
    except Exception as exc:  # any unpickling failure is just a miss
        raise CacheMiss(f"unpickle failed: {exc!r}")
    if not isinstance(artifacts, dict) or not artifacts or not all(
        kind in ARTIFACTS and value is not None
        for kind, value in artifacts.items()
    ):
        raise CacheMiss("payload is not a non-empty {kind: artifact} dict")
    return artifacts
