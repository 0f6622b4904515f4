"""The session-facing cache: artifacts in, artifacts out.

:class:`CacheStore` is what a :class:`~repro.pipeline.scan.ScanSession`
holds: it owns the addressing (:mod:`.fingerprints`), the serialization
(:mod:`.codec`), and the telemetry, and delegates storage to the
:class:`~repro.pipeline.cachestore.local.LocalDirBackend` over the
``cache_dir`` the options name.

An app has one entry holding every app-scoped artifact its store had
built (:mod:`.codec`), so a load reads one file and a write rewrites
it whole.

Telemetry: ``cache.local.<kind>.hits`` / ``.misses`` counters per
artifact kind and a ``cache.local.errors`` counter for unusable entries
land in the active metrics registry, riding the same snapshot/merge
protocol as every other counter — ``--metrics`` of a ``--jobs N`` run
sums them across workers.  The session times a read and a write with
its ``cache:load`` / ``cache:store`` spans.
A kind new to a written entry counts one miss (the cache could not
supply the artifact, so the scan built it), which is what makes
``hits/(hits+misses)`` a true hit rate.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Optional

from ...obs import get_logger, metrics
from ..artifacts import (
    _APP_ARTIFACT_ORDER, ARTIFACTS, ArtifactStore, record_graph_shape,
)
from .codec import CacheMiss, decode_entry, encode_entry
from .fingerprints import entry_digest
from .local import EntryKey, LocalDirBackend

if TYPE_CHECKING:
    from ...core.checker import NCheckerOptions

log = get_logger("cachestore")


class CacheStore:
    """Persistent artifact cache over one local directory."""

    def __init__(self, backend: LocalDirBackend) -> None:
        self.backend = backend

    @classmethod
    def from_options(cls, options: "NCheckerOptions") -> Optional["CacheStore"]:
        """A local-directory cache over ``options.cache_dir``, or ``None``
        when the options name no cache directory (the default)."""
        cache_dir = options.cache_dir
        return cls(LocalDirBackend(cache_dir)) if cache_dir else None

    def entry_key(self, app_fp: str, registry) -> EntryKey:
        return EntryKey(app_fp, entry_digest(app_fp, registry))

    # -- session API ---------------------------------------------------------

    def load_into(
        self, store: ArtifactStore, app_fp: str, options: "NCheckerOptions"
    ) -> set[str]:
        """Adopt every artifact of the app's cached entry into ``store``;
        returns the kinds loaded.

        An entry is one consistent snapshot, so it is read only into a
        store that holds no app-scoped artifact yet; any other store gets
        nothing.  An invalid entry (truncated, corrupt, wrong version,
        dangling references) is deleted and treated as a miss — the
        caller rebuilds on demand and :meth:`store_from` rewrites it.
        ``options`` never reaches an entry's address: options decide
        which artifacts a scan builds, never what one contains, so
        entries are shared across flag combinations.
        """
        if any(store.peek(key) is not None for key in _APP_ARTIFACT_ORDER):
            return set()
        entry = self.entry_key(app_fp, store.registry)
        blob = self.backend.get(entry)
        if blob is None:
            return set()
        try:
            artifacts = decode_entry(blob, store)
        except CacheMiss as exc:
            log.info(
                "cache entry %s unusable (%s): rebuilding", app_fp[:12], exc
            )
            metrics().inc("cache.local.errors")
            self.backend.delete(entry)
            return set()
        for kind, value in artifacts.items():
            store.adopt(ARTIFACTS[kind], value)
            metrics().inc(f"cache.local.{kind}.hits")
        graph = artifacts.get("callgraph")
        if graph is not None:
            record_graph_shape(graph)
        return set(artifacts)

    def store_from(
        self,
        store: ArtifactStore,
        app_fp: str,
        options: "NCheckerOptions",
        exclude: set[str] = frozenset(),
    ) -> set[str]:
        """Write every app-scoped artifact the store holds as the app's
        one entry, if it holds a kind not in ``exclude`` (the kinds
        already synced with this fingerprint); returns the kinds the
        written entry holds, or the empty set when nothing was written.

        Each kind not in ``exclude`` counts one
        ``cache.local.<kind>.misses`` — the cache could not supply the
        artifact, so the scan built it.
        """
        artifacts = {
            key.name: value
            for key in _APP_ARTIFACT_ORDER
            if (value := store.peek(key)) is not None
        }
        built = artifacts.keys() - exclude
        if not built:
            return set()
        try:
            blob = encode_entry(store, artifacts)
        except pickle.PicklingError as exc:
            log.warning("cannot encode cache entry %s: %s", app_fp[:12], exc)
            return set()
        if not self.backend.put(self.entry_key(app_fp, store.registry), blob):
            return set()  # write failed; retried next run
        registry = metrics()
        for kind in built:
            registry.inc(f"cache.local.{kind}.misses")
        return set(artifacts)
