"""Typed per-APK artifact store (the pipeline's "scene").

Every derived analysis product — the call graph, per-method CFGs and
def-use chains, the interprocedural summary engine, the extracted
requests, the customized retry loops, the ICC model — lives behind a
typed :class:`ArtifactKey` in one :class:`ArtifactStore` per APK.  The
store builds artifacts on demand (building an artifact first builds its
declared dependencies) and counts hits/builds for the
cache-effectiveness benchmarks.  A built artifact lives as long as its
store: the app under a store is never mutated (the patcher rescans each
round's patched app through a fresh session).

The store is duck-type compatible with
:class:`repro.callgraph.resolve.MethodAnalysisCache` (``cfg(method)`` /
``defuse(method)``), so the call graph, the summary engine, and every
check share it as the context cache.  Unlike the legacy cache it keys
method artifacts by :data:`MethodKey`, not ``id(method)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..callgraph.entrypoints import MethodKey, method_key
from ..obs import span
from ..obs.metrics import MetricsRegistry
from ..obs.metrics import metrics as active_metrics

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..callgraph.cha import CallGraph
    from ..cfg.graph import CFG as CFGGraph
    from ..core.requests import AnalysisContext, NetworkRequest
    from ..core.retry_loops import RetryLoop
    from ..dataflow.reaching import DefUseChains
    from ..dataflow.summaries import SummaryEngine
    from ..libmodels.annotations import LibraryRegistry


@dataclass(frozen=True)
class ArtifactKey:
    """Typed handle for one class of derived artifact.

    ``scope`` is ``"app"`` (one value per APK) or ``"method"`` (one value
    per method, accessed through the cache protocol).  ``deps`` names the
    app-scoped artifacts that must exist before this one can build; the
    store resolves them recursively, which is what lets a scan plan state
    "this check needs summaries" and get the call graph for free.
    """

    name: str
    scope: str = "app"
    deps: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


#: App-scoped artifacts.
CALLGRAPH = ArtifactKey("callgraph")
SUMMARIES = ArtifactKey("summaries", deps=("callgraph",))
REQUESTS = ArtifactKey("requests", deps=("callgraph",))
RETRY_LOOPS = ArtifactKey("retry-loops", deps=("requests",))
ICC_MODEL = ArtifactKey("icc-model")
THREADCONTEXT = ArtifactKey("threadcontext", deps=("callgraph",))

#: Method-scoped artifacts (per-method, built through the cache protocol).
CFG = ArtifactKey("cfg", scope="method")
DEFUSE = ArtifactKey("defuse", scope="method", deps=("cfg",))

#: Name → key, for resolving the string dependencies above and the
#: artifact names checks declare.
ARTIFACTS: dict[str, ArtifactKey] = {
    key.name: key
    for key in (
        CALLGRAPH,
        SUMMARIES,
        REQUESTS,
        RETRY_LOOPS,
        ICC_MODEL,
        THREADCONTEXT,
        CFG,
        DEFUSE,
    )
}


class ArtifactCounters:
    """Build/hit accounting — a read view over the store's local
    :class:`~repro.obs.metrics.MetricsRegistry`.

    The bespoke dict counters this class used to hold now live as
    ``artifact.<kind>.builds`` / ``artifact.<kind>.hits`` counters in
    the telemetry registry (one per store, mirrored into the active
    global registry so ``--metrics`` snapshots see them); the accessors
    keep the benchmark and test API of the pre-telemetry counters.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    @property
    def builds(self) -> dict[str, int]:
        return self._per_kind("builds")

    @property
    def hits(self) -> dict[str, int]:
        return self._per_kind("hits")

    def builds_of(self, name: str) -> int:
        return self._registry.counter_value(f"artifact.{name}.builds")

    def hits_of(self, name: str) -> int:
        return self._registry.counter_value(f"artifact.{name}.hits")

    def _per_kind(self, event: str) -> dict[str, int]:
        suffix = f".{event}"
        out: dict[str, int] = {}
        for name, value in self._registry.snapshot()["counters"].items():
            if name.startswith("artifact.") and name.endswith(suffix) and value:
                out[name[len("artifact."):-len(suffix)]] = value
        return out


class ArtifactStore:
    """All derived artifacts of one APK, built on demand."""

    def __init__(self, apk: "APK", registry: "LibraryRegistry") -> None:
        self.apk = apk
        self.registry = registry
        #: Store-local telemetry, mirrored into the registry that was
        #: active when the store was created (batch workers install a
        #: fresh one per app and ship its snapshot back to the parent).
        self.metrics = MetricsRegistry()
        self._global = active_metrics()
        self.counters = ArtifactCounters(self.metrics)
        self._counter_pairs: dict[str, tuple] = {}
        self._app: dict[str, object] = {}
        self._cfgs: dict[MethodKey, "CFGGraph"] = {}
        self._defuse: dict[MethodKey, "DefUseChains"] = {}
        self._constants: dict[MethodKey, object] = {}
        self._context: Optional["AnalysisContext"] = None
        self._builders = {
            CALLGRAPH.name: self._build_callgraph,
            SUMMARIES.name: self._build_summaries,
            REQUESTS.name: self._build_requests,
            RETRY_LOOPS.name: self._build_retry_loops,
            ICC_MODEL.name: self._build_icc_model,
            THREADCONTEXT.name: self._build_threadcontext,
        }

    # -- telemetry -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a counter in the store-local registry and, when distinct,
        the active global one (so ``--metrics`` snapshots include it).

        Counter objects are resolved once per name: cache-hit accounting
        runs on every cfg/defuse/constants access, and the two name
        lookups per bump were measurable on cold scans.
        """
        pair = self._counter_pairs.get(name)
        if pair is None:
            local = self.metrics.counter(name)
            shared = (
                self._global.counter(name)
                if self._global is not self.metrics
                else None
            )
            pair = (local, shared)
            self._counter_pairs[name] = pair
        local, shared = pair
        local.inc(n)
        if shared is not None:
            shared.inc(n)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        if self._global is not self.metrics:
            self._global.observe(name, value)

    # -- app-scoped artifacts ------------------------------------------------

    def get(self, key: ArtifactKey):
        """The artifact for ``key``, building it (and its dependencies)
        if missing."""
        if key.scope != "app":
            raise ValueError(
                f"method-scoped artifact {key.name!r} is accessed per method "
                f"(store.cfg/defuse), not via get()"
            )
        if key.name in self._app:
            self._count(f"artifact.{key.name}.hits")
            return self._app[key.name]
        for dep in key.deps:
            self.get(ARTIFACTS[dep])
        self._count(f"artifact.{key.name}.builds")
        with span(f"artifact:{key.name}", package=self.apk.package):
            start = time.perf_counter()
            value = self._builders[key.name]()
            self._observe(
                f"artifact.{key.name}.build_ms",
                (time.perf_counter() - start) * 1000.0,
            )
        self._app[key.name] = value
        return value

    def peek(self, key: ArtifactKey):
        """The artifact if already built, else ``None`` (never builds)."""
        return self._app.get(key.name)

    def adopt(self, key: ArtifactKey, value) -> None:
        """Install an externally produced artifact (a disk-cache load).

        Counts neither a build nor a hit — the disk cache keeps its own
        ``cache.disk.*`` accounting — so ``artifact.<kind>.builds`` stays
        an exact count of in-process construction work.
        """
        if key.scope != "app":
            raise ValueError(f"cannot adopt method-scoped artifact {key.name!r}")
        self._app[key.name] = value

    @property
    def context(self) -> "AnalysisContext":
        """The shared :class:`AnalysisContext` over this store.  Building
        it forces the call graph (its one mandatory field); ``summaries``
        and ``retry_loops`` are injected by the scan session according to
        the plan."""
        if self._context is None:
            from ..core.requests import AnalysisContext

            self._context = AnalysisContext(
                self.apk, self.registry, self.get(CALLGRAPH), self
            )
        return self._context

    # -- builders ------------------------------------------------------------

    def _build_callgraph(self) -> "CallGraph":
        from ..callgraph.cha import CallGraph

        graph = CallGraph(self.apk, self.registry, self)
        self._global.set_gauge("callgraph.methods", len(graph.methods))
        self._global.set_gauge(
            "callgraph.edges",
            sum(len(edges) for edges in graph.out_edges.values()),
        )
        return graph

    def _build_summaries(self) -> "SummaryEngine":
        from ..dataflow.summaries import SummaryEngine

        return SummaryEngine(self.get(CALLGRAPH), self.registry, self)

    def _build_requests(self) -> "list[NetworkRequest]":
        from ..core.requests import find_requests

        return find_requests(self.context)

    def _build_retry_loops(self) -> "list[RetryLoop]":
        from ..core.retry_loops import identify_retry_loops

        return identify_retry_loops(self.context, self.get(REQUESTS))

    def _build_icc_model(self):
        from ..callgraph.icc import build_icc_model

        return build_icc_model(self.apk, self)

    def _build_threadcontext(self):
        from ..dataflow.threadcontext import ThreadContextAnalysis

        return ThreadContextAnalysis(self.get(CALLGRAPH), self.registry)

    # -- method-scoped artifacts (MethodAnalysisCache protocol) --------------

    def cfg(self, method) -> "CFGGraph":
        key = method_key(method)
        cached = self._cfgs.get(key)
        if cached is not None:
            self._count("artifact.cfg.hits")
            return cached
        from ..cfg.graph import CFG as CFGGraph

        self._count("artifact.cfg.builds")
        start = time.perf_counter()
        built = CFGGraph(method)
        self._observe("artifact.cfg.build_ms",
                      (time.perf_counter() - start) * 1000.0)
        self._cfgs[key] = built
        return built

    def defuse(self, method) -> "DefUseChains":
        key = method_key(method)
        cached = self._defuse.get(key)
        if cached is not None:
            self._count("artifact.defuse.hits")
            return cached
        from ..dataflow.reaching import DefUseChains

        self._count("artifact.defuse.builds")
        cfg = self.cfg(method)
        start = time.perf_counter()
        built = DefUseChains(cfg)
        self._observe("artifact.defuse.build_ms",
                      (time.perf_counter() - start) * 1000.0)
        self._defuse[key] = built
        return built

    def constants(self, method):
        """The solved constant-propagation fixpoint for ``method`` — a
        pure per-method analysis shared by the config, retry, and request
        extraction passes."""
        key = method_key(method)
        cached = self._constants.get(key)
        if cached is not None:
            self._count("artifact.constants.hits")
            return cached
        from ..dataflow.constants import ConstantPropagation

        self._count("artifact.constants.builds")
        cfg = self.cfg(method)
        start = time.perf_counter()
        built = ConstantPropagation(cfg)
        self._observe("artifact.constants.build_ms",
                      (time.perf_counter() - start) * 1000.0)
        self._constants[key] = built
        return built
