"""Scan sessions: the pass pipeline executed over one artifact store.

A :class:`ScanSession` owns the :class:`~repro.pipeline.artifacts.
ArtifactStore` of one APK and runs the enabled checks as scheduled
passes: the plan (from :mod:`repro.pipeline.passes`) says which passes
run in which order and which app artifacts they need; the session builds
exactly those, injects them into the shared ``AnalysisContext``, runs
the passes, and assembles the :class:`~repro.core.checker.ScanResult`
exactly as the hand-sequenced orchestrator did.

Sessions are the unit of incrementality: the patcher holds one session
per app, reports the methods each patch round touched, and
:meth:`ScanSession.invalidate_methods` narrows the rebuild to the dirty
region.  :class:`SessionCache` gives ``NChecker`` its repeat-scan
behaviour (one session per package, keyed by the structural
fingerprint, LRU-bounded for corpus sweeps).

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..dataflow.summaries import apk_fingerprint
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
    from ..callgraph.entrypoints import MethodKey
    from ..core.checker import NCheckerOptions, ScanResult
    from ..libmodels.annotations import LibraryRegistry


class ScanSession:
    """One APK's pass pipeline over its artifact store."""

    def __init__(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
    ) -> None:
        self.apk = apk
        self.registry = registry
        self.options = options
        self.store = ArtifactStore(apk, registry)
        from .cachestore import CacheStore

        #: Persistent cross-run cache, or ``None`` (no ``cache_dir`` in
        #: the options).
        self.artifact_cache = CacheStore.from_options(options)
        #: ``(app_fingerprint, kind)`` pairs already persisted — loaded
        #: from or written to the cache by this session — so repeat
        #: scans rewrite nothing and a patch round persists only the
        #: rebuilt cone.
        self._cache_synced: set[tuple[str, str]] = set()
        self._app_fp: Optional[str] = None

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
        """The app's content address, memoized until an invalidation
        (the patcher's in-place mutations go through
        :meth:`invalidate_methods`, which drops the memo)."""
        if self._app_fp is None:
            from .cachestore import app_content_fingerprint

            self._app_fp = app_content_fingerprint(self.apk)
        return self._app_fp

    def _preload_from_disk(self) -> None:
        if self.artifact_cache is None:
            return
        fp = self._content_fingerprint()
        loaded = self.artifact_cache.load_into(self.store, fp, self.options)
        self._cache_synced.update((fp, kind) for kind in loaded)

    def _persist_to_disk(self) -> None:
        if self.artifact_cache is None:
            return
        fp = self._content_fingerprint()
        synced = {kind for f, kind in self._cache_synced if f == fp}
        written = self.artifact_cache.store_from(
            self.store, fp, self.options, exclude=synced
        )
        self._cache_synced.update((fp, kind) for kind in written)

    # -- incrementality ------------------------------------------------------

    def invalidate_methods(self, touched: "set[MethodKey]") -> None:
        """Forward a patch round's touched-method report to the store."""
        self._app_fp = None  # in-place mutation: re-fingerprint next scan
        self.store.invalidate_methods(touched)

    @property
    def fingerprint(self) -> int:
        return apk_fingerprint(self.apk)


@dataclass
class SessionCache:
    """One scan session per APK package, keyed by structural fingerprint.

    A repeat ``scan()`` of a structurally unchanged app reuses the whole
    artifact store (call graph, CFGs, summaries, requests), and any
    statement inserted or removed (the patcher's edits) changes the
    fingerprint and misses: ``hits``/``misses`` count one miss per
    structurally distinct app state.
    """

    max_entries: int = 64
    hits: int = 0
    misses: int = 0
    _sessions: dict[str, tuple[int, ScanSession]] = field(default_factory=dict)

    def session_for(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
    ) -> ScanSession:
        fingerprint = apk_fingerprint(apk)
        entry = self._sessions.get(apk.package)
        if entry is not None and entry[0] == fingerprint:
            self.hits += 1
            # Refresh LRU position.
            self._sessions[apk.package] = self._sessions.pop(apk.package)
            return entry[1]
        self.misses += 1
        session = ScanSession(apk, registry, options)
        self._sessions[apk.package] = (fingerprint, session)
        while len(self._sessions) > self.max_entries:
            self._sessions.pop(next(iter(self._sessions)))
        return session
