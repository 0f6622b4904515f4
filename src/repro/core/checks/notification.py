"""Failure-notification analysis (paper §4.4.3).

For user-initiated requests NChecker locates the code that runs when the
request fails — a library error callback (Volley's ``onErrorResponse``,
loopj's ``onFailure``), the AsyncTask's ``onPostExecute`` for requests
issued from ``doInBackground`` (Fig 5), or the catch blocks around a
blocking call — and scans it (and, through the summary engine's
transitive facts, every app callee it reaches) for the UI classes
Android uses to surface messages.  Silence is a defect: the user cannot
tell a network failure from an empty result (Table 2(iii)).

Two extra facts are recorded per request because the evaluation reports
them (§5.2.3): whether the notification sits in an *explicit* error
callback or behind a ``Handler`` hand-off, and — for Volley, the only
studied library exposing typed errors — whether the callback inspects the
error object at all (93 % of apps do not).
"""

from __future__ import annotations

from typing import Optional

from ..._record import record
from ...callgraph.cha import EDGE_LIB_CALLBACK
from ...callgraph.entrypoints import MethodKey, method_key
from ...ir.method import IRMethod
from ...libmodels.android import (
    is_handler_notification,
    is_logging,
    is_ui_notification,
)
from ...libmodels.annotations import CallbackRole
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest, RequestLocation


@record
class NotificationInfo:
    """How (and whether) one request notifies the user of failures."""

    request: NetworkRequest
    has_explicit_error_callback: bool = False
    notified: bool = False
    notified_via_handler: bool = False
    checks_error_types: bool = False
    callbacks: list[MethodKey] = None

    def __post_init__(self) -> None:
        if self.callbacks is None:
            self.callbacks = []


class NotificationCheck:
    name = "failure-notification"

    def __init__(self, callee_depth: Optional[int] = None, icc_model=None) -> None:
        #: ``None`` uses the engine's transitive facts; an int caps the
        #: callee walk at that depth (the notification-depth ablation).
        self.callee_depth = callee_depth
        #: Optional :class:`repro.callgraph.icc.ICCModel`: when present and
        #: the app routes broadcast errors to a UI-displaying component,
        #: ``sendBroadcast`` in an error path counts as a notification —
        #: closing the paper's notification FP class (§5.3).
        self.icc_model = icc_model
        self.info_by_request: dict[RequestLocation, NotificationInfo] = {}

    def _is_broadcast_notification(self, invoke) -> bool:
        if self.icc_model is None or not self.icc_model.broadcasts_displayed:
            return False
        from ...callgraph.icc import BROADCAST_METHODS

        return invoke.sig.name in BROADCAST_METHODS

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for request in requests:
            # Error messages only help when a user awaits the result
            # (paper §4.4.3: "NChecker only checks callbacks whose
            # corresponding network requests are initiated from an
            # Activity").
            if not request.user_initiated:
                continue
            info = self._analyse(ctx, request)
            self.info_by_request[request.loc] = info
            if not info.notified:
                findings.append(
                    Finding(
                        DefectKind.MISSED_NOTIFICATION,
                        ctx.apk.package,
                        request.key,
                        request.stmt_index,
                        "No failure notification shown for user-initiated "
                        f"request {request.target.qualified}",
                        request=request,
                        context=context_of(request),
                        details={
                            "explicit_callback": info.has_explicit_error_callback
                        },
                    )
                )
            if (
                request.library.exposes_error_types
                and info.has_explicit_error_callback
                and not info.checks_error_types
            ):
                findings.append(
                    Finding(
                        DefectKind.MISSED_ERROR_TYPE_CHECK,
                        ctx.apk.package,
                        request.key,
                        request.stmt_index,
                        "Error callback ignores the error type "
                        "(NoConnectionError vs TimeoutError vs ClientError...)",
                        request=request,
                        context=context_of(request),
                    )
                )
        return findings

    # ------------------------------------------------------------------

    def _analyse(self, ctx: AnalysisContext, request: NetworkRequest) -> NotificationInfo:
        info = NotificationInfo(request)

        error_callbacks = self._error_callbacks(ctx, request)
        info.has_explicit_error_callback = bool(error_callbacks)
        info.callbacks = [k for k, _spec in error_callbacks]

        for key, spec in error_callbacks:
            method = ctx.callgraph.methods.get(key)
            if method is None:
                continue
            direct, via_handler = self._method_notifies(ctx, method)
            if direct or via_handler:
                info.notified = True
                info.notified_via_handler = via_handler and not direct
            if spec is not None and spec.error_param_index is not None:
                if self._uses_error_param(method, spec.error_param_index):
                    info.checks_error_types = True

        if not info.notified:
            # AsyncTask shape (Fig 5): doInBackground's failures surface in
            # onPostExecute; blocking calls surface in their catch blocks.
            for method in self._implicit_handlers(ctx, request):
                direct, via_handler = self._method_notifies(ctx, method)
                if direct or via_handler:
                    info.notified = True
                    info.notified_via_handler = via_handler and not direct
                    break
            else:
                direct, via_handler = self._catch_blocks_notify(ctx, request)
                if direct or via_handler:
                    info.notified = True
                    info.notified_via_handler = via_handler and not direct
        return info

    def _method_notifies(
        self, ctx: AnalysisContext, method: IRMethod, hops: int = 0
    ) -> tuple[bool, bool]:
        """(direct UI notification, Handler-mediated notification) reachable
        from ``method``, which sits ``hops`` calls below the scanned code:
        the engine's transitive facts, or the depth-capped walk when the
        ablation sets ``callee_depth``."""
        if self.callee_depth is not None:
            return self._search_ui(ctx, method, self.callee_depth - hops)
        engine = ctx.summaries
        key = method_key(method)
        direct = engine.notifies_ui(key)
        if (
            not direct
            and self.icc_model is not None
            and self.icc_model.broadcasts_displayed
        ):
            direct = engine.sends_broadcast(key)
        return direct, engine.notifies_via_handler(key)

    def _error_callbacks(self, ctx: AnalysisContext, request: NetworkRequest):
        """Library error-callback methods registered at the request site."""
        found = []
        for edge in ctx.callgraph.callees(request.key):
            if edge.stmt_index != request.stmt_index or edge.kind != EDGE_LIB_CALLBACK:
                continue
            cls = ctx.apk.get_class(edge.callee[0])
            if cls is None:
                continue
            supers = ctx.apk.hierarchy.supertypes(edge.callee[0]) | set(cls.interfaces)
            for iface in supers:
                spec_found = ctx.registry.find_callback_spec(iface, edge.callee[1])
                if spec_found is None:
                    continue
                _lib, spec = spec_found
                if spec.role in (CallbackRole.ERROR, CallbackRole.COMBINED):
                    found.append((edge.callee, spec))
        return found

    def _implicit_handlers(
        self, ctx: AnalysisContext, request: NetworkRequest
    ) -> list[IRMethod]:
        """UI-thread continuations for blocking requests: the enclosing
        AsyncTask's onPostExecute/onCancelled."""
        handlers = []
        if request.method.name in ("doInBackground", "run"):
            cls = ctx.apk.get_class(request.method.class_name)
            if cls is not None:
                for name in ("onPostExecute", "onCancelled"):
                    for method_name, arity in cls.method_keys():
                        if method_name == name:
                            method = cls.get_method(method_name, arity)
                            if method is not None:
                                handlers.append(method)
        return handlers

    def _catch_blocks_notify(
        self, ctx: AnalysisContext, request: NetworkRequest
    ) -> tuple[bool, bool]:
        """Blocking call wrapped in try/catch: does a covering handler show
        a UI message?  Returns (direct UI, via Handler)."""
        method = request.method
        cfg = ctx.cache.cfg(method)
        direct = False
        via_handler = False
        for trap in method.traps_covering(request.stmt_index):
            handler = method.label_index(trap.handler)
            # Scan handler block: statements reachable from the handler
            # entry before leaving the method region (bounded scan).
            frontier, seen = [handler], {handler}
            while frontier:
                node = frontier.pop()
                invoke = (
                    method.statements[node].invoke()
                    if node < len(method.statements)
                    else None
                )
                if invoke is not None:
                    if is_ui_notification(invoke) or self._is_broadcast_notification(
                        invoke
                    ):
                        direct = True
                    elif is_handler_notification(invoke):
                        via_handler = True
                    elif self.callee_depth != 0:
                        callee = self._app_callee(ctx, invoke)
                        if callee is not None:
                            sub_direct, sub_handler = self._method_notifies(
                                ctx, callee, hops=1
                            )
                            direct = direct or sub_direct
                            via_handler = via_handler or sub_handler
                for succ in cfg.succs[node]:
                    if succ not in seen and succ != cfg.exit:
                        seen.add(succ)
                        frontier.append(succ)
        return direct, via_handler

    def _search_ui(
        self, ctx: AnalysisContext, method: IRMethod, depth: int
    ) -> tuple[bool, bool]:
        """Depth-capped walk for the ablation: (direct UI notification,
        Handler-mediated notification) found in ``method`` or its app
        callees up to ``depth``."""
        direct = False
        via_handler = False
        for _idx, invoke in method.invoke_sites():
            if is_ui_notification(invoke) or self._is_broadcast_notification(invoke):
                direct = True
            elif is_handler_notification(invoke):
                via_handler = True
            elif depth > 0 and not is_logging(invoke):
                callee = self._app_callee(ctx, invoke)
                if callee is not None:
                    sub_direct, sub_handler = self._search_ui(ctx, callee, depth - 1)
                    direct = direct or sub_direct
                    via_handler = via_handler or sub_handler
        return direct, via_handler

    def _app_callee(self, ctx: AnalysisContext, invoke) -> Optional[IRMethod]:
        cls_name = invoke.sig.class_name
        if cls_name == "?":
            return None
        return ctx.apk.hierarchy.resolve_method(
            cls_name, invoke.sig.name, invoke.sig.arity
        )

    def _uses_error_param(self, method: IRMethod, param_index: int) -> bool:
        """Does the callback body read the error object at all (beyond
        receiving it)?  Matches the paper's 'refer to the object to get
        error types' criterion."""
        if param_index >= len(method.params):
            return False
        error_local = method.params[param_index]
        for stmt in method.statements:
            if error_local in stmt.uses():
                return True
        return False
