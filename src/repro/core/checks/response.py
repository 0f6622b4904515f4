"""Invalid-response analysis (paper §4.4.4).

The response object of a request can be null or carry an error status
under network disruptions; using it without a validity check crashes the
app (paper Cause 3.3, 75 % of responses in the evaluation).  NChecker
taints the response object — the return value of a blocking target API,
or the success-callback parameter of an async one — propagates it
forward, and alarms when a CFG path connects the definition to a *use*
(a method invoked on the response or a value derived from it) without
passing a validity check: a response-check API call on a tainted alias,
or a null-test branch over one.

The path condition is computed exactly: delete the check statements from
the CFG and ask whether the use is still reachable from the definition.

When the unchecked response *escapes* to callers via return, the
checking obligation travels with it: the analysis follows the return
chain through arbitrarily many frames, and a frame that validates the
value before returning it discharges the obligation.
"""

from __future__ import annotations

from typing import Optional

from ...cfg.graph import CFG
from ...dataflow.taint import ForwardTaint
from ...ir.method import IRMethod
from ...ir.statements import IfStmt, ReturnStmt
from ...ir.values import Const, Local
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest


class ResponseCheck:
    name = "invalid-response"

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for request in requests:
            library = request.library
            if not library.has_response_check_api:
                continue
            if library.defaults.auto_response_check:
                continue  # Volley: invalid responses never reach user code
            site = self._response_site(ctx, request)
            if site is None:
                continue
            method, def_index, response_local = site
            unchecked = self._first_unchecked_use(
                ctx, method, def_index, response_local
            )
            if unchecked is None:
                # The response may *escape* to callers via return — the
                # checking obligation travels with it, transitively.
                unchecked = self._escaped_unchecked_use(
                    ctx, request, method, def_index, response_local
                )
            if unchecked is None:
                continue
            found_method, use_index = unchecked
            findings.append(
                Finding(
                    DefectKind.MISSED_RESPONSE_CHECK,
                    ctx.apk.package,
                    (
                        found_method.class_name,
                        found_method.name,
                        found_method.sig.arity,
                    ),
                    use_index,
                    f"Response of {request.target.qualified} used without a "
                    f"validity check (can be null/invalid under disruption)",
                    request=request,
                    context=context_of(request),
                    details={"definition_index": def_index},
                )
            )
        return findings

    def _escaped_unchecked_use(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        method: IRMethod,
        def_index: int,
        response_local: Local,
    ) -> Optional[tuple[IRMethod, int]]:
        """When the (tainted, unchecked) response is returned to a caller,
        repeat the path check on the caller's call-result local, following
        the return chain transitively; intermediate frames that validate the value before returning it discharge the
        obligation (check-avoiding-path test), so deeper frames only
        propagate genuinely unchecked escapes."""
        visited: set[tuple[tuple[str, str, int], int, str]] = set()
        # (frame, def index, local, depth): depth 0 is the response's own
        # frame, where any tainted return escapes.
        worklist: list[tuple[IRMethod, int, Local, int]] = [
            (method, def_index, response_local, 0)
        ]
        while worklist:
            frame, d, local, depth = worklist.pop()
            key = (frame.class_name, frame.name, frame.sig.arity)
            if (key, d, local.name) in visited:
                continue
            visited.add((key, d, local.name))
            escapes = (
                self._returns_tainted(ctx, frame, d, local)
                if depth == 0
                else self._returns_unchecked(ctx, frame, d, local)
            )
            if not escapes:
                continue
            for edge in ctx.callgraph.callers(key):
                caller = ctx.callgraph.methods.get(edge.caller)
                if caller is None:
                    continue
                stmt = caller.statements[edge.stmt_index]
                targets = stmt.defs()
                if not targets:
                    continue
                use = self._first_unchecked_use(
                    ctx, caller, edge.stmt_index, targets[0]
                )
                if use is not None:
                    return use
                worklist.append((caller, edge.stmt_index, targets[0], depth + 1))
        return None

    def _returns_tainted(
        self, ctx: AnalysisContext, method: IRMethod, def_index: int, local: Local
    ) -> bool:
        """The tainted value may reach a return statement at all."""
        cfg = ctx.cache.cfg(method)
        taint = ForwardTaint(cfg, {(def_index, local.name)})
        return any(
            isinstance(stmt, ReturnStmt)
            and isinstance(stmt.value, Local)
            and stmt.value.name in taint.tainted_before(idx)
            for idx, stmt in enumerate(method.statements)
        )

    def _returns_unchecked(
        self, ctx: AnalysisContext, method: IRMethod, def_index: int, local: Local
    ) -> bool:
        """The tainted value may reach a return statement on a path that
        avoids every validity check — the condition for propagating the
        obligation past an intermediate frame."""
        cfg = ctx.cache.cfg(method)
        taint = ForwardTaint(cfg, {(def_index, local.name)})
        check_nodes = self._check_nodes(ctx, method, taint)
        start = def_index if def_index >= 0 else cfg.entry
        reachable = self._reachable_avoiding(cfg, start, check_nodes)
        reachable.add(start)
        return any(
            isinstance(stmt, ReturnStmt)
            and isinstance(stmt.value, Local)
            and idx in reachable
            and stmt.value.name in taint.tainted_before(idx)
            for idx, stmt in enumerate(method.statements)
        )

    # ------------------------------------------------------------------

    def _response_site(
        self, ctx: AnalysisContext, request: NetworkRequest
    ) -> Optional[tuple[IRMethod, int, Local]]:
        """(method, def index, local) where the response object enters
        user code."""
        if not request.target.is_async:
            stmt = request.method.statements[request.stmt_index]
            defined = stmt.defs()
            if defined:
                return request.method, request.stmt_index, defined[0]
            return None  # response discarded: nothing to misuse
        # Async: the success callback's response parameter.
        from ...callgraph.cha import EDGE_LIB_CALLBACK
        from ...libmodels.annotations import CallbackRole

        for edge in ctx.callgraph.callees(request.key):
            if edge.stmt_index != request.stmt_index or edge.kind != EDGE_LIB_CALLBACK:
                continue
            cls = ctx.apk.get_class(edge.callee[0])
            if cls is None:
                continue
            supers = ctx.apk.hierarchy.supertypes(edge.callee[0]) | set(cls.interfaces)
            for iface in supers:
                found = ctx.registry.find_callback_spec(iface, edge.callee[1])
                if found is None:
                    continue
                _lib, spec = found
                if (
                    spec.role is CallbackRole.SUCCESS
                    and spec.response_param_index is not None
                ):
                    callback = ctx.callgraph.methods.get(edge.callee)
                    if callback is None:
                        continue
                    if spec.response_param_index < len(callback.params):
                        param = callback.params[spec.response_param_index]
                        return callback, -1, param
        return None

    def _first_unchecked_use(
        self,
        ctx: AnalysisContext,
        method: IRMethod,
        def_index: int,
        response_local: Local,
    ) -> Optional[tuple[IRMethod, int]]:
        cfg = ctx.cache.cfg(method)
        seeds = {(def_index, response_local.name)}
        taint = ForwardTaint(cfg, seeds)
        check_nodes = self._check_nodes(ctx, method, taint)
        uses = self._use_sites(ctx, method, taint, check_nodes)
        if not uses:
            return None
        if def_index < 0 and cfg.entry in uses:
            return method, cfg.entry  # parameter dereferenced immediately
        start = def_index if def_index >= 0 else cfg.entry
        reachable = self._reachable_avoiding(cfg, start, check_nodes)
        for use in sorted(uses):
            if use in reachable:
                return method, use
        return None

    def _check_nodes(
        self, ctx: AnalysisContext, method: IRMethod, taint: ForwardTaint
    ) -> set[int]:
        """Statements that validate the response: response-check API calls
        on tainted aliases, and null-tests of tainted aliases."""
        checks: set[int] = set()
        for idx, invoke in method.invoke_sites():
            if ctx.registry.find_response_check(invoke) is None:
                continue
            if (
                invoke.base is not None
                and invoke.base.name in taint.tainted_before(idx)
            ):
                checks.add(idx)
        for idx, stmt in enumerate(method.statements):
            if not isinstance(stmt, IfStmt):
                continue
            cond = stmt.condition
            operands = (cond.left, cond.right)
            has_null = any(isinstance(o, Const) and o.value is None for o in operands)
            tests_tainted = any(
                isinstance(o, Local) and o.name in taint.tainted_before(idx)
                for o in operands
            )
            if has_null and tests_tainted:
                checks.add(idx)
            elif tests_tainted and not has_null:
                # Comparing a *derived* value (status code, isSuccessful
                # result) against a constant also validates the response.
                if any(isinstance(o, Const) for o in operands):
                    checks.add(idx)
        return checks

    def _use_sites(
        self,
        ctx: AnalysisContext,
        method: IRMethod,
        taint: ForwardTaint,
        check_nodes: set[int],
    ) -> set[int]:
        """Statements that dereference the response: any method invoked on
        a tainted alias that is not itself a validity check."""
        uses: set[int] = set()
        for idx, invoke in method.invoke_sites():
            if idx in check_nodes:
                continue
            if ctx.registry.find_response_check(invoke) is not None:
                continue
            if (
                invoke.base is not None
                and invoke.base.name in taint.tainted_before(idx)
            ):
                uses.add(idx)
        return uses

    @staticmethod
    def _reachable_avoiding(cfg: CFG, start: int, blocked: set[int]) -> set[int]:
        """Nodes reachable from ``start`` on paths avoiding ``blocked``.

        A blocked start means every path from the definition begins at a
        validity check — nothing is reachable unchecked."""
        if start in blocked:
            return set()
        seen: set[int] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for succ in cfg.succs[node]:
                if succ in seen or succ in blocked:
                    if succ not in seen and succ in blocked:
                        seen.add(succ)  # the check itself is reached, not passed
                    continue
                seen.add(succ)
                frontier.append(succ)
        return seen - blocked
