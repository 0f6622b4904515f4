"""The session-facing cache: artifacts in, artifacts out.

:class:`CacheStore` is what a :class:`~repro.pipeline.scan.ScanSession`
holds: it owns the addressing (:mod:`.fingerprints`), the serialization
(:mod:`.codec`), and the telemetry, and delegates storage to the
:class:`~repro.pipeline.cachestore.local.LocalDirBackend` over the
``cache_dir`` the options name.

Telemetry: ``cache.local.<kind>.hits`` / ``.misses`` counters and
``cache.local.<kind>.load_ms`` / ``.store_ms`` timers land in the
store's registry (and the active global one), riding the same
snapshot/merge protocol as every other counter — ``--metrics`` of a
``--jobs N`` run sums them across workers.  A write-back counts one
miss (the cache could not supply the artifact, so the scan built it),
which is what makes ``hits/(hits+misses)`` a true hit rate.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, Optional

from ...callgraph.entrypoints import method_key
from ...obs import get_logger
from ..artifacts import _APP_ARTIFACT_ORDER, ArtifactStore
from .codec import CacheMiss, decode_artifact, encode_artifact
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

    def entry_key(self, app_fp: str, kind: str, registry) -> EntryKey:
        return EntryKey(app_fp, kind, entry_digest(app_fp, registry))

    # -- session API ---------------------------------------------------------

    def load_into(
        self, store: ArtifactStore, app_fp: str, options: "NCheckerOptions"
    ) -> set[str]:
        """Adopt every valid cached artifact for ``store``'s app, in
        dependency order; returns the kinds loaded.

        Kinds already present in the store are left alone.  Invalid
        entries (truncated, corrupt, wrong version, dangling references)
        are deleted and treated as misses — the caller rebuilds on demand
        and :meth:`store_from` overwrites them.  ``options`` never reaches
        an entry's address: options decide which artifacts a scan builds,
        never what one contains, so entries are shared across flag
        combinations.
        """
        loaded: set[str] = set()
        methods: Optional[dict] = None
        for key in _APP_ARTIFACT_ORDER:
            if store.peek(key) is not None:
                continue
            entry = self.entry_key(app_fp, key.name, store.registry)
            blob = self.backend.get(entry)
            if blob is None:
                continue
            if methods is None:
                methods = {method_key(m): m for m in store.apk.methods()}
            start = time.perf_counter()
            try:
                value = decode_artifact(blob, store, methods)
            except CacheMiss as exc:
                log.info(
                    "cache entry %s/%s unusable (%s): rebuilding",
                    app_fp[:12], key.name, exc,
                )
                store._count(f"cache.local.{key.name}.misses")
                store._count("cache.local.errors")
                self.backend.delete(entry)
                continue
            store.adopt(key, value)
            store._count(f"cache.local.{key.name}.hits")
            store._observe(
                f"cache.local.{key.name}.load_ms",
                (time.perf_counter() - start) * 1000.0,
            )
            if key.name == "callgraph":
                # Parity with _build_callgraph's gauges, so --stats reads
                # the same whether the graph was built or loaded.
                store._global.set_gauge("callgraph.methods", len(value.methods))
                store._global.set_gauge(
                    "callgraph.edges",
                    sum(len(edges) for edges in value.out_edges.values()),
                )
            loaded.add(key.name)
        return loaded

    def store_from(
        self,
        store: ArtifactStore,
        app_fp: str,
        options: "NCheckerOptions",
        exclude: set[str] = frozenset(),
    ) -> set[str]:
        """Persist the store's built app-scoped artifacts (everything
        present and not in ``exclude`` — the kinds already synced with
        this fingerprint); returns the kinds written.

        Every entry written counts one ``cache.local.<kind>.misses`` —
        the cache could not supply the artifact, so the scan built it.
        """
        present = {
            key.name: store.peek(key)
            for key in _APP_ARTIFACT_ORDER
            if store.peek(key) is not None
        }
        artifact_ids = {id(value): name for name, value in present.items()}
        written: set[str] = set()
        for key in _APP_ARTIFACT_ORDER:
            value = present.get(key.name)
            if value is None or key.name in exclude:
                continue
            entry = self.entry_key(app_fp, key.name, store.registry)
            ids = dict(artifact_ids)
            del ids[id(value)]  # the dumped artifact itself is no reference
            start = time.perf_counter()
            try:
                blob = encode_artifact(store, value, ids)
            except pickle.PicklingError as exc:
                log.warning("cannot encode cache entry %s: %s", key.name, exc)
                continue
            if not self.backend.put(entry, blob):
                continue  # write failed; retried next run
            store._count(f"cache.local.{key.name}.misses")
            store._observe(
                f"cache.local.{key.name}.store_ms",
                (time.perf_counter() - start) * 1000.0,
            )
            written.add(key.name)
        return written
