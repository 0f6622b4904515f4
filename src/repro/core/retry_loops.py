"""Customized retry-logic identification (paper §4.5, Fig 6).

Apps that do not use library retry APIs often hand-roll retry loops.  The
challenge is telling retry loops apart from ordinary loops that send a
*sequence* of requests.  Following the paper, a loop containing a target
API is a retry loop when either:

(a) an **unconditional exit** (return/break edge) is unreachable from the
    statements of the catch block — control leaves the loop only when the
    request succeeds (Fig 6(b)); or
(b) a **conditional exit**'s condition is data/control-dependent on
    statements in the catch block — the catch block decides whether to go
    around again (Fig 6(c)), possibly through a callee's catch block
    whose boolean result feeds the condition (Fig 6(d)).

The module additionally classifies a retry loop as *aggressive* when it
retries without (growing) backoff — the Telegram bug of Fig 2, which
reconnects every 500 ms and pins the CPU.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..cfg.dominators import DominatorTree
from ..cfg.graph import CFG
from ..cfg.loops import Loop, natural_loops
from ..dataflow.constants import TOP, ConstantPropagation
from ..dataflow.slicing import Slicer
from ..ir.method import IRMethod
from ..ir.statements import AssignStmt, IfStmt
from .requests import AnalysisContext, NetworkRequest

#: Method names whose invocation inside a loop constitutes an
#: inter-attempt delay.
_SLEEP_METHODS = frozenset({"sleep", "wait", "postDelayed", "awaitTermination"})
#: Threshold below which a *fixed* retry interval is considered aggressive
#: (Fig 2's Telegram loop used 500 ms).
_AGGRESSIVE_FIXED_DELAY_MS = 2000


@record
class RetryLoop:
    """An identified customized retry loop."""

    method: IRMethod
    loop: Loop
    #: Statement indices of the request call sites the loop retries
    #: (direct target-API sites, or call sites of request-bearing callees).
    request_sites: tuple[int, ...]
    #: "unconditional-exit" (Fig 6(b)) or "catch-dependent" (Fig 6(c)/(d)).
    kind: str
    #: True when the loop delays between attempts with a growing (or at
    #: least large) interval.
    has_backoff: bool
    #: Keys of request-bearing callee methods this loop retries (the
    #: Fig 6(d) indirection), in addition to direct ``request_sites``.
    retried_callees: tuple[tuple[str, str, int], ...] = ()

    @property
    def aggressive(self) -> bool:
        return not self.has_backoff


def identify_retry_loops(
    ctx: AnalysisContext, requests: list[NetworkRequest]
) -> list[RetryLoop]:
    """All customized retry loops in the app.

    Besides loops directly containing a target API, loops in *callers* of
    request-bearing methods are inspected (paper §4.5 step 1: "if the loop
    is implemented in some caller of the method including target API, we
    recursively parse the caller").  One caller level is traversed, which
    covers the Fig 6(d) shape.
    """
    # Methods containing requests, and the catch-y-ness of each.
    request_sites_by_method: dict[int, list[int]] = {}
    methods_by_id: dict[int, IRMethod] = {}
    for request in requests:
        methods_by_id[id(request.method)] = request.method
        request_sites_by_method.setdefault(id(request.method), []).append(
            request.stmt_index
        )
    request_method_keys = {
        (m.class_name, m.name, m.sig.arity) for m in methods_by_id.values()
    }

    #: caller method -> call-site indices that invoke request-bearing callees
    indirect_sites: dict[int, list[tuple[int, IRMethod]]] = {}
    for key, method in ctx.callgraph.methods.items():
        for edge in ctx.callgraph.callees(key):
            if edge.callee in request_method_keys:
                callee_method = ctx.callgraph.methods[edge.callee]
                indirect_sites.setdefault(id(method), []).append(
                    (edge.stmt_index, callee_method)
                )
                methods_by_id.setdefault(id(method), method)

    found: list[RetryLoop] = []
    for method_id, method in methods_by_id.items():
        direct = request_sites_by_method.get(method_id, [])
        indirect = indirect_sites.get(method_id, [])
        if not direct and not indirect:
            continue
        found.extend(_loops_in_method(ctx, method, direct, indirect))
    return found


def _loops_in_method(
    ctx: AnalysisContext,
    method: IRMethod,
    direct_sites: list[int],
    indirect_sites: list[tuple[int, IRMethod]],
) -> list[RetryLoop]:
    cfg = ctx.cache.cfg(method)
    loops = natural_loops(cfg)
    if not loops:
        return []
    slicer = Slicer(cfg, ctx.cache.defuse(method))
    results: list[RetryLoop] = []
    for loop in loops:
        sites_in_loop = [s for s in direct_sites if s in loop.body]
        callees_in_loop = [
            (s, callee) for s, callee in indirect_sites if s in loop.body
        ]
        if not sites_in_loop and not callees_in_loop:
            continue
        handler_stmts = _handler_statements(cfg, method, loop)
        catchy_callee_results = _catchy_callee_result_sites(
            method, [s for s, _ in callees_in_loop],
            [callee for _, callee in callees_in_loop],
        )
        kind = _classify(cfg, slicer, loop, handler_stmts, catchy_callee_results)
        if kind is None:
            continue
        all_sites = tuple(sorted(sites_in_loop + [s for s, _ in callees_in_loop]))
        results.append(
            RetryLoop(
                method,
                loop,
                all_sites,
                kind,
                has_backoff=_has_backoff(ctx, cfg, method, loop),
                retried_callees=tuple(
                    (c.class_name, c.name, c.sig.arity) for _, c in callees_in_loop
                ),
            )
        )
    return results


def _handler_statements(cfg: CFG, method: IRMethod, loop: Loop) -> set[int]:
    """Statements of catch blocks whose handler lies inside the loop.

    The catch-block extent is the set of nodes *dominated* by the handler
    entry: code after the try/catch that is shared with the normal path
    (e.g. a sequence loop's item-counter increment) is reachable from the
    handler but not dominated by it, and must not count — otherwise every
    per-item error-swallowing loop would look like a retry loop.
    """
    handler_entries = [h for h in method.trap_handlers() if h in loop.body]
    if not handler_entries:
        return set()
    dom = DominatorTree(cfg)
    stmts: set[int] = set()
    for entry in handler_entries:
        for node in loop.body:
            if dom.dominates(entry, node):
                stmts.add(node)
    return stmts


def _catchy_callee_result_sites(
    method: IRMethod, call_sites: list[int], callees: list[IRMethod]
) -> set[int]:
    """Call sites whose callee contains a catch block and whose result is
    assigned — the Fig 6(d) pattern (``success = send(request)`` where
    ``send`` swallows IOException into its return value)."""
    catchy = {id(c) for c in callees if c.traps}
    sites: set[int] = set()
    for site, callee in zip(call_sites, callees):
        stmt = method.statements[site]
        if id(callee) in catchy and isinstance(stmt, AssignStmt):
            sites.add(site)
    return sites


def _classify(
    cfg: CFG,
    slicer: Slicer,
    loop: Loop,
    handler_stmts: set[int],
    catchy_callee_results: set[int],
) -> Optional[str]:
    """Apply the Fig 6 rules; None means "not a retry loop"."""
    if not handler_stmts and not catchy_callee_results:
        return None
    unconditional, conditional = _split_exits(cfg, loop)

    # Rule (a): an unconditional exit unreachable from the catch block
    # (without re-passing the header, i.e. without re-sending).
    if handler_stmts:
        for src, _dst in unconditional:
            if not _reachable_within_loop(cfg, loop, handler_stmts, src):
                return "unconditional-exit"

    # Rule (b): a conditional exit whose condition depends on the catch
    # block — directly, or via a catchy callee's assigned result.
    depends_on = handler_stmts | catchy_callee_results
    for src, _dst in conditional:
        if slicer.backward_slice(src) & depends_on:
            return "catch-dependent"
    return None


def _split_exits(
    cfg: CFG, loop: Loop
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    unconditional: list[tuple[int, int]] = []
    conditional: list[tuple[int, int]] = []
    for src, dst in loop.exits:
        stmt = cfg.stmt(src)
        if isinstance(stmt, IfStmt):
            conditional.append((src, dst))
        else:
            unconditional.append((src, dst))
    return unconditional, conditional


def _reachable_within_loop(
    cfg: CFG, loop: Loop, sources: set[int], target: int
) -> bool:
    """Reachability inside the loop body with the header removed, so
    "reaching the exit" cannot go around via another request attempt."""
    frontier = [s for s in sources if s in loop.body]
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for succ in cfg.succs[node]:
            if succ == target:
                return True
            if succ in loop.body and succ != loop.header and succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def _has_backoff(ctx, cfg: CFG, method: IRMethod, loop: Loop) -> bool:
    """A loop backs off when it delays between attempts with a non-constant
    (growing) interval, or a fixed interval that is not aggressive."""
    constants: Optional[ConstantPropagation] = None
    for idx in sorted(loop.body):
        if idx >= len(method.statements):
            continue
        invoke = method.statements[idx].invoke()
        if invoke is None or invoke.sig.name not in _SLEEP_METHODS:
            continue
        if not invoke.args:
            return True
        if constants is None:
            constants = ctx.cache.constants(method)
        delay = constants.constant_argument(idx, invoke.args[0])
        if delay is None or delay is TOP:
            return True  # non-constant delay: assume growing backoff
        if isinstance(delay, (int, float)) and delay >= _AGGRESSIVE_FIXED_DELAY_MS:
            return True
    return False
