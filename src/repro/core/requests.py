"""Network-request extraction and context inference (paper §4.4.2).

A *network request* is a call site of an annotated target API.  For each
request NChecker needs:

* the initiating entry points (user-initiated Activity/UI vs. background
  Service) — reachability over the call graph;
* the HTTP method (POST requests must not be auto-retried) — from the
  target API itself, from Volley request-constructor codes, from Apache
  request-object classes, or from ``setRequestMethod`` constants;
* the *config object* whose configuration calls the taint analysis must
  collect (the client receiver, or Volley's request argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..app.apk import APK
from ..callgraph.cha import CallGraph
from ..callgraph.entrypoints import EntryPoint, MethodKey, method_key
from ..callgraph.reachability import CallChain, chains_to_method
from ..callgraph.resolve import MethodAnalysisCache, origin_classes
from ..dataflow.constants import ConstantPropagation
from ..dataflow.taint import trace_origins
from ..ir.method import IRMethod
from ..ir.statements import AssignStmt
from ..ir.values import InvokeExpr, Local, NewExpr
from ..libmodels.annotations import (
    HttpMethod,
    LibraryModel,
    LibraryRegistry,
    TargetAPI,
)
from ..libmodels.volley import VOLLEY_METHOD_CODES

if TYPE_CHECKING:
    from ..dataflow.summaries import SummaryEngine
    from ..dataflow.threadcontext import ThreadContextAnalysis
    from .retry_loops import RetryLoop

#: A stable request identity: the enclosing method plus the statement
#: index of the call site.  Survives request copies and serialization,
#: unlike ``id(request)``.
RequestLocation = tuple[MethodKey, int]

#: Apache request-object classes → HTTP method.
_APACHE_REQUEST_CLASSES: dict[str, HttpMethod] = {
    "org.apache.http.client.methods.HttpGet": HttpMethod.GET,
    "org.apache.http.client.methods.HttpPost": HttpMethod.POST,
    "org.apache.http.client.methods.HttpPut": HttpMethod.PUT,
    "org.apache.http.client.methods.HttpDelete": HttpMethod.DELETE,
}


@dataclass
class AnalysisContext:
    """Shared state for one app scan: the APK, annotations, call graph,
    and the per-method analysis cache."""

    apk: APK
    registry: LibraryRegistry
    callgraph: CallGraph
    cache: MethodAnalysisCache
    #: Customized retry loops (§4.5), populated by the orchestrator so the
    #: config-API check can credit hand-rolled retry logic.
    retry_loops: list["RetryLoop"] = field(default_factory=list)
    #: The interprocedural summary engine, injected by the scan session
    #: only when an enabled pass reads the ``summaries`` artifact.
    summaries: Optional["SummaryEngine"] = None
    #: Per-method thread contexts (`repro.dataflow.threadcontext`),
    #: injected by the scan session only when an enabled pass reads the
    #: ``threadcontext`` artifact.
    threadcontext: Optional["ThreadContextAnalysis"] = None

    @classmethod
    def build(cls, apk: APK, registry: LibraryRegistry) -> "AnalysisContext":
        cache = MethodAnalysisCache()
        graph = CallGraph(apk, registry, cache)
        return cls(apk, registry, graph, cache)


@dataclass
class NetworkRequest:
    """One network-request call site with its inferred context."""

    method: IRMethod
    stmt_index: int
    invoke: InvokeExpr
    library: LibraryModel
    target: TargetAPI
    chains: list[CallChain] = field(default_factory=list)
    http_method: HttpMethod = HttpMethod.ANY

    @property
    def key(self) -> MethodKey:
        return method_key(self.method)

    @property
    def loc(self) -> RequestLocation:
        """Stable identity of this request's call site."""
        return (self.key, self.stmt_index)

    @property
    def entries(self) -> list[EntryPoint]:
        seen: set[MethodKey] = set()
        result = []
        for chain in self.chains:
            if chain.entry.key not in seen:
                seen.add(chain.entry.key)
                result.append(chain.entry)
        return result

    @property
    def user_initiated(self) -> bool:
        """Reachable from an Activity lifecycle method or a UI callback."""
        return any(e.user_initiated for e in self.entries)

    @property
    def background(self) -> bool:
        """Reachable from a Service entry point."""
        return any(e.background for e in self.entries)

    @property
    def reachable(self) -> bool:
        return bool(self.chains)

    @property
    def is_post(self) -> bool:
        return self.http_method is HttpMethod.POST

    def config_local(self) -> Optional[Local]:
        """The local holding the object whose configuration matters."""
        if self.target.config_object_param is None:
            return self.invoke.base
        idx = self.target.config_object_param
        if idx < len(self.invoke.args):
            arg = self.invoke.args[idx]
            if isinstance(arg, Local):
                return arg
        return None

    def location(self) -> str:
        return f"{self.method.sig.qualified_name}:{self.stmt_index}"


def find_requests(ctx: AnalysisContext) -> list[NetworkRequest]:
    """All network requests in the app, with chains and HTTP methods."""
    requests: list[NetworkRequest] = []
    for cls in ctx.apk.classes():
        for method in cls.methods():
            for idx, invoke in method.invoke_sites():
                found = ctx.registry.find_target(invoke)
                if found is None:
                    continue
                library, target = found
                request = NetworkRequest(method, idx, invoke, library, target)
                request.chains = chains_to_method(ctx.callgraph, request.key)
                request.http_method = _infer_http_method(ctx, request)
                requests.append(request)
    return requests


def _infer_http_method(ctx: AnalysisContext, request: NetworkRequest) -> HttpMethod:
    if request.target.http_method is not HttpMethod.ANY:
        return request.target.http_method
    method = request.method
    cfg = ctx.cache.cfg(method)
    defuse = ctx.cache.defuse(method)
    lib_key = request.library.key

    if lib_key == "volley":
        return _volley_method(ctx, request, cfg, defuse)
    if lib_key == "apache":
        return _apache_method(ctx, request)
    if lib_key == "httpurlconnection":
        return _urlconnection_method(ctx, request, cfg)
    return HttpMethod.ANY


def _volley_method(ctx, request, cfg, defuse) -> HttpMethod:
    """Volley: the request object's constructor's first argument is the
    method code (Request.Method.GET=0, POST=1, ...)."""
    config = request.config_local()
    if config is None:
        return HttpMethod.ANY
    origins = trace_origins(cfg, request.stmt_index, config.name, defuse)
    constants = ctx.cache.constants(request.method)
    for origin in origins:
        if origin < 0:
            continue
        stmt = request.method.statements[origin]
        if not (isinstance(stmt, AssignStmt) and isinstance(stmt.value, NewExpr)):
            continue
        ctor = _constructor_after(request.method, origin, stmt.target)
        if ctor is None or not ctor[1].args:
            continue
        ctor_idx, ctor_invoke = ctor
        code = constants.constant_argument(ctor_idx, ctor_invoke.args[0])
        if isinstance(code, int) and code in VOLLEY_METHOD_CODES:
            return VOLLEY_METHOD_CODES[code]
    return HttpMethod.ANY


def _apache_method(ctx, request) -> HttpMethod:
    """Apache: execute(HttpPost/HttpGet/...) — classify by the request
    object's allocation class."""
    for arg in request.invoke.args:
        if not isinstance(arg, Local):
            continue
        classes = origin_classes(
            request.method, request.stmt_index, arg, ctx.cache,
            ctx.callgraph.field_types,
        )
        for cls_name in classes:
            found = _APACHE_REQUEST_CLASSES.get(cls_name)
            if found is not None:
                return found
    return HttpMethod.ANY


def _urlconnection_method(ctx, request, cfg) -> HttpMethod:
    """HttpURLConnection: look for setRequestMethod('POST') on the same
    connection object before the request."""
    receiver = request.invoke.base
    if receiver is None:
        return HttpMethod.ANY
    constants = ctx.cache.constants(request.method)
    for idx, invoke in request.method.invoke_sites():
        if invoke.sig.name != "setRequestMethod" or invoke.base != receiver:
            continue
        if not cfg.reaches(idx, request.stmt_index):
            continue
        if invoke.args:
            value = constants.constant_argument(idx, invoke.args[0])
            if isinstance(value, str):
                try:
                    return HttpMethod(value.upper())
                except ValueError:
                    return HttpMethod.ANY
    return HttpMethod.ANY


def _constructor_after(
    method: IRMethod, alloc_index: int, target
) -> Optional[tuple[int, InvokeExpr]]:
    """The ``<init>`` invoke on ``target`` following its allocation."""
    for idx in range(alloc_index + 1, len(method.statements)):
        invoke = method.statements[idx].invoke()
        if (
            invoke is not None
            and invoke.is_constructor
            and invoke.base is not None
            and invoke.base == target
        ):
            return idx, invoke
    return None
