"""Config-API analysis (paper §4.4.1, taint part).

For each request, NChecker taints the HTTP client object (or Volley's
request object) at the call site, propagates backward to the allocation
site and forward across its aliases, records every config API invoked on
tainted objects, and reports the config kinds (timeout, retry) that were
never set.  It also resolves the *values* passed to retry/timeout config
APIs via constant propagation; the improper-parameter check consumes
those.

The backward propagation is interprocedural: when the config object
arrives as a parameter, the analysis climbs the caller chain — however
deep — until it reaches the frame that allocates the client, and in
every frame it additionally consults the summary engine for config calls
made inside callees the object is passed to.  Field-held config objects
widen to the enclosing class (no heap model, matching the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...callgraph.entrypoints import MethodKey, method_key
from ...dataflow.configvalues import config_call_values
from ...dataflow.constants import ConstantPropagation
from ...dataflow.summaries import CONFIG_TOP, RECEIVER
from ...dataflow.taint import ForwardTaint, trace_origins
from ...ir.method import IRMethod
from ...ir.statements import AssignStmt
from ...ir.values import InvokeExpr, Local, NewExpr
from ...libmodels.annotations import ConfigAPI, ConfigKind
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest, RequestLocation
from ..retry_loops import RetryLoop


@dataclass
class RequestConfigInfo:
    """What configuration a request actually receives."""

    request: NetworkRequest
    satisfied: set[ConfigKind] = field(default_factory=set)
    config_sites: list[tuple[int, ConfigAPI]] = field(default_factory=list)
    #: Effective retry count: explicit constant, or the library default.
    retries: int = 0
    retries_from_default: bool = True
    #: Effective timeout (ms); None = none configured and no library default.
    timeout_ms: Optional[int] = None
    timeout_from_default: bool = True
    #: A customized retry loop wraps this request (credits MISSED_RETRY).
    custom_retry_loop: Optional[RetryLoop] = None

    @property
    def has_timeout(self) -> bool:
        return ConfigKind.TIMEOUT in self.satisfied

    @property
    def has_retry_config(self) -> bool:
        return ConfigKind.RETRY in self.satisfied


class ConfigAPICheck:
    name = "config-apis"
    after: tuple[str, ...] = ()

    def reads(self, options) -> tuple[str, ...]:
        names = ["requests", "callgraph", "summaries"]
        if options.detect_retry_loops:
            names.append("retry-loops")
        return tuple(names)

    def __init__(self, widen_to_class: bool = True) -> None:
        self.widen_to_class = widen_to_class
        #: Populated by run(); the retry-parameter check reads it.
        self.info_by_request: dict[RequestLocation, RequestConfigInfo] = {}

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        findings: list[Finding] = []
        retry_loops = ctx.retry_loops
        for request in requests:
            info = self._collect(ctx, request)
            info.custom_retry_loop = _loop_covering(retry_loops, request)
            self.info_by_request[request.loc] = info
            findings.extend(self._findings_for(ctx, request, info))
        return findings

    # -- collection ---------------------------------------------------------

    def _collect(self, ctx: AnalysisContext, request: NetworkRequest) -> RequestConfigInfo:
        info = RequestConfigInfo(request)
        config_local = request.config_local()
        method = request.method
        if config_local is None:
            self._apply_defaults(info)
            return info
        cfg = ctx.cache.cfg(method)
        defuse = ctx.cache.defuse(method)

        # Backward step (paper: "taints the HTTP client object at the call
        # site ... performs backward propagation until reaching the call
        # site of creating the HTTP client instance").  Factory chains like
        # OkHttp's `call = client.newCall(req)` are followed through the
        # invoke's receiver back to the client allocation.
        seeds: set[tuple[int, str]] = set()
        param_names: set[str] = set()
        field_widened = False
        visited: set[tuple[int, str]] = set()
        worklist: list[tuple[int, str]] = [(request.stmt_index, config_local.name)]
        while worklist:
            at, name = worklist.pop()
            if (at, name) in visited:
                continue
            visited.add((at, name))
            for origin in trace_origins(cfg, at, name, defuse):
                if origin < 0:
                    # Parameter: the caller configured (or failed to
                    # configure) the object before passing it in.
                    seeds.add((-1, name))
                    param_names.add(name)
                    continue
                seeds.add((origin, name))
                stmt = method.statements[origin]
                assert isinstance(stmt, AssignStmt)
                value = stmt.value
                if isinstance(value, NewExpr):
                    continue  # reached the allocation: done
                if isinstance(value, InvokeExpr) and value.base is not None:
                    worklist.append((origin, value.base.name))
                else:
                    # Field load or opaque factory: the object escapes this
                    # method, so sibling methods may configure it too.
                    field_widened = True

        # Forward step: config calls on any tainted alias between the
        # definitions and the request are collected.
        taint = ForwardTaint(cfg, seeds)
        constants = ctx.cache.constants(method)
        self._scan_method(ctx, request, method, taint, constants, info)

        if param_names:
            self._scan_callers_transitive(ctx, request, param_names, info)
        if field_widened and self.widen_to_class:
            self._scan_widened(ctx, request, info)
        self._apply_defaults(info)
        return info

    def _scan_callers_transitive(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        param_names: set[str],
        info: RequestConfigInfo,
    ) -> None:
        """The config object arrives as a parameter, so the paper's
        backward propagation continues into the callers — through
        arbitrarily many frames — until the frame that allocates the
        client is reached.  In every frame the object's aliases are
        taint-tracked from their local definitions (or from entry, when
        the frame received it as a parameter too), and config calls on
        them are collected with the usual discipline, including — via the
        summary engine — calls made inside callees the frame passes the
        object to."""
        visited: set[tuple[MethodKey, str]] = {
            (request.key, name) for name in param_names
        }
        worklist: list[tuple[MethodKey, frozenset[str]]] = [
            (request.key, frozenset(param_names))
        ]
        while worklist:
            key, names = worklist.pop()
            callee = ctx.callgraph.methods.get(key)
            if callee is None:
                continue
            positions = {
                p.name: i for i, p in enumerate(callee.params) if p.name in names
            }
            for edge in ctx.callgraph.callers(key):
                caller = ctx.callgraph.methods.get(edge.caller)
                if caller is None:
                    continue
                site = edge.stmt_index
                invoke = caller.statements[site].invoke()
                if invoke is None:
                    continue
                caller_cfg = ctx.cache.cfg(caller)
                caller_defuse = ctx.cache.defuse(caller)
                seeds: set[tuple[int, str]] = set()
                escalate: set[str] = set()
                for position in positions.values():
                    if position >= len(invoke.args):
                        continue
                    arg = invoke.args[position]
                    if not isinstance(arg, Local):
                        continue
                    for origin in trace_origins(
                        caller_cfg, site, arg.name, caller_defuse
                    ):
                        if origin >= 0:
                            seeds.add((origin, arg.name))
                        else:
                            # The caller received it as a parameter too:
                            # track it from entry here and keep climbing.
                            seeds.add((-1, arg.name))
                            escalate.add(arg.name)
                if seeds:
                    taint = ForwardTaint(caller_cfg, seeds)
                    constants = ctx.cache.constants(caller)
                    self._scan_method(ctx, request, caller, taint, constants, info)
                fresh = {
                    name for name in escalate if (edge.caller, name) not in visited
                }
                if fresh:
                    visited.update((edge.caller, name) for name in fresh)
                    worklist.append((edge.caller, frozenset(fresh)))

    def _scan_method(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        method: IRMethod,
        taint: Optional[ForwardTaint],
        constants: ConstantPropagation,
        info: RequestConfigInfo,
    ) -> None:
        for idx, invoke in method.invoke_sites():
            found = ctx.registry.find_config(invoke)
            if found is None:
                if taint is not None:
                    self._merge_callee_effects(
                        ctx, request, method, idx, invoke, taint, info
                    )
                continue
            lib, config = found
            if lib.key != request.library.key:
                continue
            if taint is not None and not self._touches_taint(invoke, taint, idx):
                continue
            info.config_sites.append((idx, config))
            info.satisfied.update(config.satisfies)
            self._record_values(ctx, method, idx, invoke, config, constants, info)

    def _merge_callee_effects(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        method: IRMethod,
        idx: int,
        invoke: InvokeExpr,
        taint: ForwardTaint,
        info: RequestConfigInfo,
    ) -> None:
        """The frame passes a tainted object into an app callee: fold the
        callee's transitive config effects into the request's info (the
        forward half of interprocedural propagation)."""
        engine = ctx.summaries
        key = method_key(method)
        callee = engine.direct_callee_at(key, idx)
        if callee is None:
            return
        callee_method = ctx.callgraph.methods.get(callee)
        if callee_method is None:
            return
        tainted = taint.tainted_before(idx)
        positions: list[int] = []
        if (
            invoke.base is not None
            and invoke.base.name in tainted
            and not callee_method.is_static
        ):
            positions.append(RECEIVER)
        for i, arg in enumerate(invoke.args):
            if (
                isinstance(arg, Local)
                and arg.name in tainted
                and i < len(callee_method.params)
            ):
                positions.append(i)
        for pos in positions:
            effects = engine.config_effects(callee, pos)
            if effects is CONFIG_TOP:
                # Recursive cycle: assume configured (no-false-alarm ⊤).
                info.satisfied.update((ConfigKind.TIMEOUT, ConfigKind.RETRY))
                continue
            for effect in effects:
                if effect.lib_key != request.library.key:
                    continue
                info.config_sites.append((effect.stmt_index, effect.config))
                info.satisfied.update(effect.config.satisfies)
                if effect.retries is not None:
                    info.retries = effect.retries
                    info.retries_from_default = False
                if effect.timeout_ms is not None:
                    info.timeout_ms = effect.timeout_ms
                    info.timeout_from_default = False

    @staticmethod
    def _touches_taint(invoke: InvokeExpr, taint: ForwardTaint, idx: int) -> bool:
        tainted = taint.tainted_before(idx)
        if invoke.base is not None and invoke.base.name in tainted:
            return True
        return any(isinstance(a, Local) and a.name in tainted for a in invoke.args)

    def _scan_widened(
        self, ctx: AnalysisContext, request: NetworkRequest, info: RequestConfigInfo
    ) -> None:
        """Field-/parameter-held config objects: scan sibling methods of the
        class and the chain's caller frames without taint filtering."""
        scanned: set[int] = {id(request.method)}
        cls = ctx.apk.get_class(request.method.class_name)
        methods = list(cls.methods()) if cls is not None else []
        for chain in request.chains:
            for key, _site in chain.frames():
                caller = ctx.callgraph.methods.get(key)
                if caller is not None:
                    methods.append(caller)
        for method in methods:
            if id(method) in scanned:
                continue
            scanned.add(id(method))
            constants = ctx.cache.constants(method)
            self._scan_method(ctx, request, method, None, constants, info)

    def _record_values(
        self,
        ctx: AnalysisContext,
        method: IRMethod,
        idx: int,
        invoke: InvokeExpr,
        config: ConfigAPI,
        constants: ConstantPropagation,
        info: RequestConfigInfo,
    ) -> None:
        """Resolve retry counts / timeout values from config call arguments
        (constant propagation — paper §4.4.2; shared with the summary
        engine via `repro.dataflow.configvalues`)."""
        values = config_call_values(
            method, idx, invoke, config,
            ctx.cache.cfg(method), ctx.cache.defuse(method), constants,
        )
        if values.retries is not None:
            info.retries = values.retries
            info.retries_from_default = False
        if values.timeout_ms is not None:
            info.timeout_ms = values.timeout_ms
            info.timeout_from_default = False

    def _apply_defaults(self, info: RequestConfigInfo) -> None:
        defaults = info.request.library.defaults
        if info.retries_from_default:
            info.retries = defaults.retries
        if info.timeout_from_default:
            info.timeout_ms = defaults.timeout_ms

    # -- findings -------------------------------------------------------------

    def _findings_for(
        self, ctx: AnalysisContext, request: NetworkRequest, info: RequestConfigInfo
    ) -> list[Finding]:
        findings: list[Finding] = []
        library = request.library
        if library.has_timeout_api and not info.has_timeout:
            api = library.config_apis_of_kind(ConfigKind.TIMEOUT)[0]
            findings.append(
                Finding(
                    DefectKind.MISSED_TIMEOUT,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"No timeout set for {request.target.qualified} "
                    f"(call {api.method})",
                    request=request,
                    context=context_of(request),
                    details={"suggested_api": api.qualified},
                )
            )
        if (
            library.has_retry_api
            and not info.has_retry_config
            and info.custom_retry_loop is None
        ):
            api = library.config_apis_of_kind(ConfigKind.RETRY)[0]
            findings.append(
                Finding(
                    DefectKind.MISSED_RETRY,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"No retry policy set for {request.target.qualified} "
                    f"(call {api.method})",
                    request=request,
                    context=context_of(request),
                    details={"suggested_api": api.qualified},
                )
            )
        return findings


def _loop_covering(loops: list[RetryLoop], request: NetworkRequest) -> Optional[RetryLoop]:
    for loop in loops:
        if loop.method is request.method and request.stmt_index in loop.loop.body:
            return loop
        # The request's whole method may be the callee a caller loop retries.
        if request.key in loop.retried_callees:
            return loop
    return None
