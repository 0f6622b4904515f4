"""Typed per-APK artifact store (the pipeline's "scene").

Every derived analysis product — the call graph, the interprocedural
summary engine, the extracted requests, the customized retry loops, the
ICC model, the thread contexts (each behind a typed :class:`ArtifactKey`),
and per-method CFGs, def-use chains and constants — lives in one
:class:`ArtifactStore` per APK.  The store builds artifacts on demand
(building an artifact first builds its declared dependencies) and counts
``artifact.<kind>.builds`` / ``.hits`` into the metrics registry active
at each event, like every other layer.  A built artifact
lives as long as its store: the app under a store is never mutated (the
patcher rescans each round's patched app through a fresh session).

The store is also the per-method analysis cache (``cfg(method)`` /
``defuse(method)`` / ``constants(method)``, keyed by :data:`MethodKey`)
that the call graph, the ICC model, the summary engine and every check
share as the context's ``cache``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .._record import record
from ..callgraph.entrypoints import MethodKey, method_key
from ..obs import metrics, span

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..callgraph.cha import CallGraph
    from ..cfg.graph import CFG as CFGGraph
    from ..core.requests import AnalysisContext, NetworkRequest
    from ..core.retry_loops import RetryLoop
    from ..dataflow.reaching import DefUseChains
    from ..dataflow.summaries import SummaryEngine
    from ..libmodels.annotations import LibraryRegistry


@record(frozen=True)
class ArtifactKey:
    """Typed handle for one app-scoped artifact (one value per APK).

    ``deps`` names the artifacts that must exist before this one can
    build; the store resolves them recursively.  Per-method artifacts
    (CFGs, def-use chains, constants) have no key: they are built through
    the per-method accessors (``store.cfg(method)`` and friends).
    """

    name: str
    deps: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


CALLGRAPH = ArtifactKey("callgraph")
SUMMARIES = ArtifactKey("summaries", deps=("callgraph",))
REQUESTS = ArtifactKey("requests", deps=("callgraph",))
RETRY_LOOPS = ArtifactKey("retry-loops", deps=("requests",))
ICC_MODEL = ArtifactKey("icc-model")
THREADCONTEXT = ArtifactKey("threadcontext", deps=("callgraph",))

#: Canonical build order for app-scoped artifacts (dependencies first).
_APP_ARTIFACT_ORDER: tuple[ArtifactKey, ...] = (
    CALLGRAPH,
    REQUESTS,
    SUMMARIES,
    RETRY_LOOPS,
    ICC_MODEL,
    THREADCONTEXT,
)

#: Name → key, for resolving the string dependencies above.
ARTIFACTS: dict[str, ArtifactKey] = {key.name: key for key in _APP_ARTIFACT_ORDER}


class ArtifactStore:
    """All derived artifacts of one APK, built on demand."""

    def __init__(self, apk: "APK", registry: "LibraryRegistry") -> None:
        self.apk = apk
        self.registry = registry
        self._app: dict[str, object] = {}
        self._cfgs: dict[MethodKey, "CFGGraph"] = {}
        self._defuse: dict[MethodKey, "DefUseChains"] = {}
        self._constants: dict[MethodKey, object] = {}
        self._context: Optional["AnalysisContext"] = None

    # -- app-scoped artifacts ------------------------------------------------

    def get(self, key: ArtifactKey):
        """The artifact for ``key``, building it (and its dependencies)
        if missing."""
        if key.name in self._app:
            metrics().inc(f"artifact.{key.name}.hits")
            return self._app[key.name]
        for dep in key.deps:
            self.get(ARTIFACTS[dep])
        metrics().inc(f"artifact.{key.name}.builds")
        with span(f"artifact:{key.name}", package=self.apk.package):
            value = _BUILDERS[key.name](self)
        self._app[key.name] = value
        return value

    def peek(self, key: ArtifactKey):
        """The artifact if already built, else ``None`` (never builds)."""
        return self._app.get(key.name)

    def adopt(self, key: ArtifactKey, value) -> None:
        """Install an externally produced artifact (a disk-cache load).

        Counts neither a build nor a hit — the disk cache keeps its own
        ``cache.local.*`` accounting — so ``artifact.<kind>.builds`` stays
        an exact count of in-process construction work.
        """
        self._app[key.name] = value

    @property
    def context(self) -> "AnalysisContext":
        """The shared :class:`AnalysisContext` over this store.  Building
        it forces the call graph (its one mandatory field); ``summaries``,
        ``retry_loops`` and ``threadcontext`` are injected by the scan
        session."""
        if self._context is None:
            from ..core.requests import AnalysisContext

            self._context = AnalysisContext(
                self.apk, self.registry, self.get(CALLGRAPH), self
            )
        return self._context

    def release(self) -> None:
        """Drop every artifact and the context.  They point back at the
        store (the call graph, the summaries and the context all hold
        it), so without this an app's analysis is cyclic garbage that
        only a collector pass frees; after it, reference counting frees
        the app once its last holder lets go.  An artifact asked for
        again is rebuilt."""
        self._app.clear()
        self._cfgs.clear()
        self._defuse.clear()
        self._constants.clear()
        self._context = None

    # -- builders ------------------------------------------------------------

    def _build_callgraph(self) -> "CallGraph":
        from ..callgraph.cha import CallGraph

        graph = CallGraph(self.apk, self.registry, self)
        record_graph_shape(graph)
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

    # -- method-scoped artifacts ---------------------------------------------

    def cfg(self, method) -> "CFGGraph":
        key = method_key(method)
        cached = self._cfgs.get(key)
        if cached is not None:
            metrics().inc("artifact.cfg.hits")
            return cached
        from ..cfg.graph import CFG as CFGGraph

        metrics().inc("artifact.cfg.builds")
        built = CFGGraph(method)
        self._cfgs[key] = built
        return built

    def defuse(self, method) -> "DefUseChains":
        key = method_key(method)
        cached = self._defuse.get(key)
        if cached is not None:
            metrics().inc("artifact.defuse.hits")
            return cached
        from ..dataflow.reaching import DefUseChains

        metrics().inc("artifact.defuse.builds")
        cfg = self.cfg(method)
        built = DefUseChains(cfg)
        self._defuse[key] = built
        return built

    def constants(self, method):
        """The solved constant-propagation fixpoint for ``method`` — a
        pure per-method analysis shared by the config, retry, and request
        extraction passes."""
        key = method_key(method)
        cached = self._constants.get(key)
        if cached is not None:
            metrics().inc("artifact.constants.hits")
            return cached
        from ..dataflow.constants import ConstantPropagation

        metrics().inc("artifact.constants.builds")
        cfg = self.cfg(method)
        built = ConstantPropagation(cfg)
        self._constants[key] = built
        return built


def record_graph_shape(graph: "CallGraph") -> None:
    """Gauge the call graph's size, whether it was built or loaded from
    the persistent cache, so ``--stats`` reads the same either way."""
    registry = metrics()
    registry.set_gauge("callgraph.methods", len(graph.methods))
    registry.set_gauge(
        "callgraph.edges",
        sum(len(edges) for edges in graph.out_edges.values()),
    )


#: Artifact name → its :class:`ArtifactStore` builder.  Not a table on
#: each store: bound methods there would tie every store into a
#: reference cycle.
_BUILDERS = {
    CALLGRAPH.name: ArtifactStore._build_callgraph,
    SUMMARIES.name: ArtifactStore._build_summaries,
    REQUESTS.name: ArtifactStore._build_requests,
    RETRY_LOOPS.name: ArtifactStore._build_retry_loops,
    ICC_MODEL.name: ArtifactStore._build_icc_model,
    THREADCONTEXT.name: ArtifactStore._build_threadcontext,
}
