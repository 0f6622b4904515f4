"""Scan sessions: the pass pipeline executed over one artifact store.

A :class:`ScanSession` owns the :class:`~repro.pipeline.artifacts.
ArtifactStore` of one APK and runs the enabled checks as scheduled
passes: the plan (from :mod:`repro.pipeline.passes`) says which passes
run in which order and which app artifacts they need; the session builds
exactly those, injects them into the shared ``AnalysisContext``, runs
the passes, and assembles the :class:`~repro.core.checker.ScanResult`
exactly as the hand-sequenced orchestrator did.

A session's app never changes under it: every artifact it builds stays
valid for the session's lifetime.  :class:`SessionCache` gives
``NChecker`` its repeat-scan behaviour (one session per package, keyed
by the app's content fingerprint, LRU-bounded for corpus sweeps), so an
edited or patched app always gets a fresh session.

Sessions are also where the opt-in **persistent cross-run cache**
(:mod:`repro.pipeline.cachestore`, ``NCheckerOptions.cache_dir``) plugs
in: before the first pass runs, every valid cached artifact for the
app's content fingerprint is adopted into the store (zero builds on a
warm run), and after each scan the artifacts the run had to build are
written back to the cache directory.  Output is byte-identical with the
cache hot, cold, or disabled — the cache only changes where artifacts
come from.
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
from .passes import ScanPlan, ScheduledPass, build_plan, order_passes, resolve_reads

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..core.checker import NCheckerOptions, ScanResult
    from ..libmodels.annotations import LibraryRegistry


class ScanSession:
    """One APK's pass pipeline over its artifact store."""

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
        from .cachestore import CacheStore

        #: Persistent cross-run cache, or ``None`` (no ``cache_dir`` in
        #: the options).
        self.artifact_cache = CacheStore.from_options(options)
        #: Artifact kinds already persisted under the current content
        #: fingerprint — loaded from or written to the cache by this
        #: session — so repeat scans rewrite nothing.
        self._cache_synced: set[str] = set()
        #: The app's content fingerprint (computed on first use unless
        #: the caller already has it).
        self._app_fp = app_fp

    # -- pass construction ---------------------------------------------------

    def _build_passes(self):
        """Fresh check instances for one scan (their per-request info maps
        are part of the scan's result), as (pass, enabled, instance)
        bookkeeping the result assembly needs."""
        from ..core.checks.callback_leak import CallbackLeakCheck
        from ..core.checks.config_apis import ConfigAPICheck
        from ..core.checks.connectivity import ConnectivityCheck
        from ..core.checks.notification import NotificationCheck
        from ..core.checks.offline_cache import OfflineCacheCheck
        from ..core.checks.response import ResponseCheck
        from ..core.checks.retry_params import RetryParameterCheck
        from ..core.checks.ui_thread_network import UiThreadNetworkCheck

        opts = self.options
        enabled = opts.enabled_checks
        icc_model = None
        if opts.inter_component and (
            "connectivity" in enabled or "failure-notification" in enabled
        ):
            icc_model = self.store.get(ICC_MODEL)

        config_check = ConfigAPICheck()
        notification_check = NotificationCheck(
            opts.notification_callee_depth, icc_model=icc_model
        )
        checks = [
            config_check,
            ConnectivityCheck(
                guard_aware=opts.guard_aware_connectivity,
                interprocedural=opts.interprocedural_connectivity,
                icc_model=icc_model,
            ),
            RetryParameterCheck(config_check),
            notification_check,
            ResponseCheck(),
            # The extended (taxonomy-driven) checks: registered here so
            # `enabled_checks` can switch them on, absent from the default
            # set so default-option output stays byte-identical.
            UiThreadNetworkCheck(),
            CallbackLeakCheck(),
            OfflineCacheCheck(),
        ]
        scheduled = [
            ScheduledPass(check, resolve_reads(check.reads(opts)))
            for check in checks
            if check.name in enabled
        ]
        if opts.check_network_switch:
            from ..core.checks.network_switch import NetworkSwitchCheck

            switch = NetworkSwitchCheck()
            scheduled.append(ScheduledPass(switch, resolve_reads(switch.reads(opts))))
        return scheduled, config_check, notification_check

    def plan(self) -> ScanPlan:
        """The scan plan under the current options (no artifacts built,
        except the ICC model when inter-component passes are enabled)."""
        scheduled, _config, _notification = self._build_passes()
        return build_plan(scheduled)

    # -- execution -----------------------------------------------------------

    def scan(self) -> "ScanResult":
        """Run the pipeline: build planned artifacts, run passes in
        dependency order, assemble the result.

        Each pass runs inside a ``pass:<name>`` span and records its wall
        time, findings emitted, and methods visited (the call-graph
        universe it analyses) into the active metrics registry.
        """
        import time

        from ..core.checker import ScanResult
        from ..core.findings import Finding

        # Adopt persisted artifacts before pass construction: the ICC
        # model is materialized inside _build_passes, so the preload must
        # already have happened for a warm run to stay build-free.
        self._preload_from_disk()
        scheduled, config_check, notification_check = self._build_passes()
        plan = build_plan(scheduled)
        store = self.store
        registry = metrics()

        with span("scan", package=self.apk.package):
            scan_start = time.perf_counter()
            ctx = store.context
            ctx.summaries = store.get(SUMMARIES) if plan.builds(SUMMARIES) else None
            ctx.threadcontext = (
                store.get(THREADCONTEXT) if plan.builds(THREADCONTEXT) else None
            )
            requests = store.get(REQUESTS)
            retry_loops = (
                store.get(RETRY_LOOPS) if plan.builds(RETRY_LOOPS) else []
            )
            ctx.retry_loops = retry_loops
            if ctx.summaries is not None:
                self._prewarm_summaries(
                    ctx, scheduled, requests, notification_check
                )

            findings: list[Finding] = []
            for scheduled_pass in order_passes(scheduled):
                name = scheduled_pass.name
                with span(f"pass:{name}", package=self.apk.package):
                    start = time.perf_counter()
                    emitted = scheduled_pass.check.run(ctx, requests)
                    registry.observe(
                        f"pass.{name}.wall_ms",
                        (time.perf_counter() - start) * 1000.0,
                    )
                registry.inc(f"pass.{name}.runs")
                registry.inc(f"pass.{name}.findings", len(emitted))
                registry.inc(
                    f"pass.{name}.methods_visited", len(ctx.callgraph.methods)
                )
                findings.extend(emitted)
            registry.inc("scan.apps")
            registry.observe(
                "scan.wall_ms", (time.perf_counter() - scan_start) * 1000.0
            )

        self._persist_to_disk()
        findings.sort(key=lambda f: (f.method_key, f.stmt_index, f.kind.value))
        return ScanResult(
            self.apk,
            requests,
            findings,
            retry_loops,
            config_info=dict(config_check.info_by_request),
            notification_info=dict(notification_check.info_by_request),
        )

    def _prewarm_summaries(
        self, ctx, scheduled, requests, notification_check
    ) -> None:
        """Evaluate the summary-fact cones the planned passes will query,
        before the pass loop runs them.

        The demands mirror the passes' actual queries: the connectivity
        and offline-cache passes read the whole-app connectivity view,
        and the failure-notification pass queries UI/handler (and, with
        displayed broadcasts in the ICC model, broadcast) facts on the
        error callbacks registered at request sites (unless the
        notification-depth ablation replaces those facts with its capped
        walk).  Queries the prewarm did not anticipate fall back to lazy
        point evaluation inside the engine.
        """
        from ..callgraph.cha import EDGE_LIB_CALLBACK

        engine = ctx.summaries
        planned = {scheduled_pass.name for scheduled_pass in scheduled}
        demands: list = []
        if planned & {"connectivity", "offline-cache"}:
            demands.append(("connectivity", None))
        if (
            "failure-notification" in planned
            and notification_check.callee_depth is None
        ):
            roots = sorted(
                {
                    edge.callee
                    for request in requests
                    for edge in ctx.callgraph.callees(request.key)
                    if edge.stmt_index == request.stmt_index
                    and edge.kind == EDGE_LIB_CALLBACK
                }
            )
            if roots:
                demands.append(("ui", roots))
                demands.append(("handler", roots))
                icc = notification_check.icc_model
                if icc is not None and icc.broadcasts_displayed:
                    demands.append(("broadcast", roots))
        registry = metrics()
        with span("summary-prewarm", package=self.apk.package):
            with registry.timer("summaries.prewarm_ms"):
                engine.prewarm_bool_facts(demands)

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
        fp = self._content_fingerprint()
        self._cache_synced |= self.artifact_cache.load_into(
            self.store, fp, self.options
        )

    def _persist_to_disk(self) -> None:
        if self.artifact_cache is None:
            return
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
