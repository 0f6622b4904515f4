"""Scan sessions: the enabled checks run over one artifact store.

A :class:`ScanSession` owns the :class:`~repro.pipeline.artifacts.
ArtifactStore` of one APK.  A scan builds the artifacts the enabled
checks read into the shared ``AnalysisContext``, runs the checks in
catalog order (:func:`repro.core.checks.check_catalog`), and assembles
the :class:`~repro.core.checker.ScanResult`.

A session's app never changes under it: every artifact it builds stays
valid for the session's lifetime.  :class:`SessionCache` gives
``NChecker`` its repeat-scan behaviour (one session per package, keyed
by the app's content fingerprint, LRU-bounded for corpus sweeps), so an
edited or patched app always gets a fresh session.

Sessions are also where the opt-in **persistent cross-run cache**
(:mod:`repro.pipeline.cachestore`, ``NCheckerOptions.cache_dir``) plugs
in: before the first check runs, the app's cached entry for its content
fingerprint is adopted into the store (zero builds on a warm run), and
after a scan that built an artifact the entry lacks, the app's entry is
rewritten (``cache:load`` and ``cache:store`` spans).  Output is
byte-identical with the cache hot, cold, or disabled — the cache only
changes where artifacts come from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .._record import field, record
from ..obs import metrics, span
from .artifacts import (
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    THREADCONTEXT,
    ArtifactStore,
)

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..core.checker import NCheckerOptions, ScanResult
    from ..libmodels.annotations import LibraryRegistry


class ScanSession:
    """One APK's checks over its artifact store."""

    def __init__(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
        app_fp: Optional[str] = None,
    ) -> None:
        self.apk = apk
        self.registry = registry
        self.options = options
        self.store = ArtifactStore(apk, registry)
        #: Persistent cross-run cache, or ``None`` (no ``cache_dir`` in
        #: the options).  A scan without one never imports the cache
        #: code (and ``pickle`` with it).
        self.artifact_cache = None
        if options.cache_dir:
            from .cachestore import CacheStore

            self.artifact_cache = CacheStore.from_options(options)
        #: Artifact kinds already persisted under the current content
        #: fingerprint — loaded from or written to the cache by this
        #: session — so repeat scans rewrite nothing.
        self._cache_synced: set[str] = set()
        #: The app's content fingerprint (computed on first use unless
        #: the caller already has it).
        self._app_fp = app_fp

    # -- execution -----------------------------------------------------------

    def scan(self) -> "ScanResult":
        """Build the artifacts the enabled checks read, run the checks in
        catalog order, assemble the result.

        The summary engine is always handed out: it computes nothing until
        a check queries it.  Retry loops, the ICC model and the thread
        contexts are built only for the checks that read them.  Each check
        runs inside a ``pass:<name>`` span (its wall time) and counts its
        runs, findings emitted, and methods visited (the call-graph
        universe it analyses) into the active metrics registry.
        """
        from ..core.checker import ScanResult
        from ..core.checks import check_catalog
        from ..core.findings import Finding

        # Adopt persisted artifacts before anything is built, so a warm
        # run stays build-free.
        self._preload_from_disk()
        opts = self.options
        enabled = opts.enabled_checks
        store = self.store
        registry = metrics()

        icc_model = None
        if opts.inter_component and (
            "connectivity" in enabled or "failure-notification" in enabled
        ):
            icc_model = store.get(ICC_MODEL)
        catalog = check_catalog(opts, icc_model)

        with span("scan", package=self.apk.package):
            ctx = store.context
            ctx.summaries = store.get(SUMMARIES)
            if "ui-thread-network" in enabled:
                ctx.threadcontext = store.get(THREADCONTEXT)
            requests = store.get(REQUESTS)
            retry_loops = []
            if opts.detect_retry_loops and (
                "config-apis" in enabled or "retry-parameters" in enabled
            ):
                retry_loops = store.get(RETRY_LOOPS)
            ctx.retry_loops = retry_loops

            findings: list[Finding] = []
            for check, runs in catalog:
                if not runs:
                    continue
                name = check.name
                with span(f"pass:{name}", package=self.apk.package):
                    emitted = check.run(ctx, requests)
                registry.inc(f"pass.{name}.runs")
                registry.inc(f"pass.{name}.findings", len(emitted))
                registry.inc(
                    f"pass.{name}.methods_visited", len(ctx.callgraph.methods)
                )
                findings.extend(emitted)
            registry.inc("scan.apps")

        self._persist_to_disk()
        findings.sort(key=lambda f: (f.method_key, f.stmt_index, f.kind.value))
        checks = {check.name: check for check, _runs in catalog}
        return ScanResult(
            self.apk,
            requests,
            findings,
            retry_loops,
            config_info=dict(checks["config-apis"].info_by_request),
            notification_info=dict(
                checks["failure-notification"].info_by_request
            ),
        )

    # -- persistent cache ----------------------------------------------------

    def _content_fingerprint(self) -> str:
        """The app's content address, memoized for the session."""
        if self._app_fp is None:
            from .cachestore import app_content_fingerprint

            self._app_fp = app_content_fingerprint(self.apk)
        return self._app_fp

    def _preload_from_disk(self) -> None:
        if self.artifact_cache is None:
            return
        with span("cache:load", package=self.apk.package):
            self._cache_synced |= self.artifact_cache.load_into(
                self.store, self._content_fingerprint(), self.options
            )

    def _persist_to_disk(self) -> None:
        if self.artifact_cache is None:
            return
        with span("cache:store", package=self.apk.package):
            self._cache_synced |= self.artifact_cache.store_from(
                self.store, self._content_fingerprint(), self.options,
                exclude=self._cache_synced,
            )


@record
class SessionCache:
    """One scan session per APK package, keyed by content fingerprint.

    A repeat ``scan()`` of an unchanged app reuses the whole artifact
    store (call graph, CFGs, summaries, requests).  The fingerprint is
    recomputed on every call, so any edit — a new app object or the same
    one mutated in place — misses: ``hits``/``misses`` count one miss
    per distinct app content.  A caller about to mutate a scanned app in
    place first calls :meth:`evict`, so no cached session is ever left
    over an app whose content no longer matches its key.
    """

    max_entries: int = 64
    hits: int = 0
    misses: int = 0
    _sessions: dict[str, tuple[str, ScanSession]] = field(default_factory=dict)

    def session_for(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
    ) -> ScanSession:
        from .cachestore import app_content_fingerprint

        fingerprint = app_content_fingerprint(apk)
        entry = self._sessions.get(apk.package)
        if entry is not None and entry[0] == fingerprint:
            self.hits += 1
            # Refresh LRU position.
            self._sessions[apk.package] = self._sessions.pop(apk.package)
            return entry[1]
        self.misses += 1
        session = ScanSession(apk, registry, options, app_fp=fingerprint)
        self._sessions[apk.package] = (fingerprint, session)
        while len(self._sessions) > self.max_entries:
            self._sessions.pop(next(iter(self._sessions)))
        return session

    def evict(self, package: str) -> None:
        """Forget ``package``'s session, if any."""
        self._sessions.pop(package, None)
