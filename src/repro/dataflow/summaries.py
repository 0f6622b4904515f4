"""Interprocedural summary-based dataflow engine (paper §4.4, done right).

NChecker's analyses are interprocedural: the config-API taint runs
"backward propagation until reaching the call site of creating the HTTP
client instance" across frames, the connectivity check needs the
transitive closure of "performs a connectivity check", the notification
check searches error-callback callees for UI sinks, and the response
check's obligation travels with the value through returns.  This
module is the engine behind all four — the standard Soot/FlowDroid
move: **memoized per-method summaries computed bottom-up over the SCC
condensation of the CHA call graph**.

Per-method facts:

* ``params_to_return`` — parameter positions (``RECEIVER`` = the
  receiver) whose value may flow to the method's return value, composed
  through callees' summaries;
* ``config_effects(key, position)`` — the config-API calls applied
  (transitively, through callees the object is passed to) to the
  parameter at ``position``, with retry/timeout constants resolved in
  the frame that makes the call;
* ``performs_connectivity_check`` / ``notifies_ui`` /
  ``notifies_via_handler`` / ``sends_broadcast`` — transitive boolean
  facts over call-graph edges.

Soundness: all facts are *may*-facts.  At recursion the engine widens
to ⊤ — a cyclic ``params_to_return`` dependency treats every operand of
the cyclic call as flowing through, and a cyclic ``config_effects``
dependency reports :data:`CONFIG_TOP` ("assume configured"), which
consumers must treat as satisfying every config kind, the no-false-alarm
direction.  Unresolved virtual calls get the same ⊤ treatment the
intraprocedural :class:`~repro.dataflow.taint.TaintPolicy` always
applied: their results are assumed to carry any taint their operands
carry.

Summaries are memoized for the lifetime of the engine, and the scan
session cache (:class:`~repro.pipeline.scan.SessionCache`) keeps one
engine per APK (keyed by the app's content fingerprint, so patched or
edited apps miss), which is what makes repeat ``scan()`` calls and corpus
sweeps stop re-deriving the same facts per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..callgraph.scc import condensation_order
from ..ir.method import IRMethod
from ..obs import metrics as obs_metrics
from ..obs import span
from ..ir.statements import AssignStmt, ReturnStmt
from ..ir.values import ArrayRef, CastExpr, FieldRef, InvokeExpr, Local, locals_in
from ..libmodels.android import (
    is_connectivity_check,
    is_handler_notification,
    is_ui_notification,
)
from ..libmodels.annotations import ConfigAPI, LibraryRegistry
from .configvalues import config_call_values
from .constants import ConstantPropagation
from .taint import ForwardTaint

if TYPE_CHECKING:
    from ..callgraph.cha import CallGraph
    from ..callgraph.entrypoints import MethodKey
    from ..callgraph.resolve import MethodAnalysisCache

#: Parameter position denoting the receiver (``this``).
RECEIVER: int = -1


class _Top:
    """⊤ for config-effect summaries: "unknown, assume configured"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CONFIG_TOP"


CONFIG_TOP = _Top()


@dataclass(frozen=True, eq=False)
class ConfigEffect:
    """One config-API call observed on a tracked object, with the values
    it pins down resolved in the frame that makes the call."""

    lib_key: str
    config: ConfigAPI
    method: "MethodKey"
    stmt_index: int
    retries: Optional[int] = None
    timeout_ms: Optional[int] = None


@dataclass
class MethodSummary:
    """The assembled summary of one method (convenience view; the checks
    use the engine's targeted accessors, which compute lazily)."""

    key: "MethodKey"
    params_to_return: frozenset[int]
    config_effects: dict[int, "tuple[ConfigEffect, ...] | _Top"]
    performs_connectivity_check: bool
    notifies_ui: bool
    notifies_via_handler: bool
    sends_broadcast: bool
    #: ⊤-widening was applied somewhere in this summary (recursion).
    widened: bool = False


@dataclass
class SummaryStats:
    """Cheap observability for the cache-effectiveness benchmarks."""

    bool_fact_passes: int = 0
    bool_fact_sccs: int = 0
    params_to_return_computed: int = 0
    params_to_return_hits: int = 0
    config_effects_computed: int = 0
    config_effects_hits: int = 0
    widenings: int = 0


def _is_broadcast_invoke(invoke: InvokeExpr) -> bool:
    from ..callgraph.icc import BROADCAST_METHODS

    return invoke.sig.name in BROADCAST_METHODS


#: The transitive boolean facts the engine serves: fact name →
#: (call-site predicate, propagate over all edge kinds?).  Notification
#: facts propagate over direct edges only: callees are resolved by
#: signature, not through async edges.
BOOL_FACT_SPECS: dict[str, tuple[Callable[[InvokeExpr], bool], bool]] = {
    "connectivity": (is_connectivity_check, True),
    "ui": (is_ui_notification, False),
    "handler": (is_handler_notification, False),
    "broadcast": (_is_broadcast_invoke, False),
}


@dataclass
class _BoolFactState:
    """Memoized state of one transitive boolean fact.

    Holds only data (no predicate callables) so a cached engine stays
    picklable for the persistent artifact cache; accessors pass the
    predicate with every query (:data:`BOOL_FACT_SPECS`).
    """

    all_edge_kinds: bool
    #: method → fact, for every method in an evaluated SCC.
    resolved: dict["MethodKey", bool] = field(default_factory=dict)
    #: SCC indices already folded into ``resolved``.
    evaluated_sccs: set[int] = field(default_factory=set)
    #: Every method has an entry (a whole-app build happened).
    complete: bool = False


class SummaryEngine:
    """SCC-ordered interprocedural summaries over one app.

    Boolean facts are **demand-driven**: a point query evaluates only the
    SCCs in the queried method's (edge-kind-filtered) callee cone, in
    callee-first order, memoizing per-SCC results; whole-app views
    (``connectivity_methods``) evaluate every SCC.  Either way the
    per-SCC fixpoint is the same, so answers are independent of query
    order and of point vs. whole-app evaluation.
    """

    def __init__(
        self,
        graph: "CallGraph",
        registry: LibraryRegistry,
        cache: "MethodAnalysisCache",
    ) -> None:
        # Deferred: dataflow <-> callgraph would otherwise cycle at import.
        from ..callgraph.cha import EDGE_DIRECT

        self.graph = graph
        self.registry = registry
        self.cache = cache
        self.stats = SummaryStats()
        self._edge_direct = EDGE_DIRECT
        #: SCC condensation of the call graph, computed lazily by the
        #: first fact pass that needs it.
        self._scc_order: Optional[tuple[list, dict]] = None
        self._bool_states: dict[str, _BoolFactState] = {}
        self._ptr: dict["MethodKey", frozenset[int]] = {}
        self._ptr_in_progress: set["MethodKey"] = set()
        self._config: dict[
            tuple["MethodKey", int], "tuple[ConfigEffect, ...] | _Top"
        ] = {}
        self._config_in_progress: set[tuple["MethodKey", int]] = set()
        self._direct_maps: dict["MethodKey", dict[int, "MethodKey"]] = {}
        self._widened: set["MethodKey"] = set()

    def _ensure_scc_order(self) -> tuple[list, dict]:
        if self._scc_order is None:
            registry = obs_metrics()
            with span("scc-condensation"), registry.timer("scc.build_ms"):
                keys = list(self.graph.methods)
                self._scc_order = condensation_order(
                    keys, lambda k: [e.callee for e in self.graph.callees(k)]
                )
            registry.set_gauge("scc.components", len(self._scc_order[0]))
        return self._scc_order

    @property
    def sccs(self) -> list:
        return self._ensure_scc_order()[0]

    @property
    def scc_position(self) -> dict:
        return self._ensure_scc_order()[1]

    # -- transitive boolean facts -------------------------------------------

    def _bool_state(self, name: str, all_edge_kinds: bool) -> _BoolFactState:
        state = self._bool_states.get(name)
        if state is None:
            state = _BoolFactState(all_edge_kinds)
            self._bool_states[name] = state
            self.stats.bool_fact_passes += 1
            obs_metrics().inc("dataflow.bool_fact_passes")
        return state

    def _callee_keys(self, key: "MethodKey", all_edge_kinds: bool) -> list:
        if all_edge_kinds:
            return [e.callee for e in self.graph.callees(key)]
        edge_direct = self._edge_direct
        return [
            e.callee for e in self.graph.callees(key) if e.kind == edge_direct
        ]

    def _cone_indices(
        self, state: _BoolFactState, roots: Iterable["MethodKey"]
    ) -> set[int]:
        """SCC indices the given roots transitively depend on (through
        edges of the fact's kind), excluding already-evaluated SCCs."""
        sccs, position = self._ensure_scc_order()
        evaluated = state.evaluated_sccs
        needed: set[int] = set()
        stack = [
            idx
            for idx in (position.get(root) for root in roots)
            if idx is not None and idx not in evaluated
        ]
        while stack:
            idx = stack.pop()
            if idx in needed:
                continue
            needed.add(idx)
            for member in sccs[idx]:
                for callee in self._callee_keys(member, state.all_edge_kinds):
                    cidx = position.get(callee)
                    if (
                        cidx is not None
                        and cidx != idx
                        and cidx not in needed
                        and cidx not in evaluated
                    ):
                        stack.append(cidx)
        return needed

    def _eval_scc_values(
        self,
        scc: tuple,
        predicate: Callable[[InvokeExpr], bool],
        state: _BoolFactState,
    ) -> dict["MethodKey", bool]:
        """One SCC's facts: the local predicate per member, then the
        within-SCC (boolean-OR, hence fast) fixpoint, pulling callee facts
        outside the SCC from ``state.resolved``, where callee-first order
        has already put them."""
        values: dict["MethodKey", bool] = {}
        for key in scc:
            method = self.graph.methods[key]
            values[key] = any(
                predicate(invoke) for _idx, invoke in method.invoke_sites()
            )
        resolved = state.resolved
        all_edge_kinds = state.all_edge_kinds
        edge_direct = self._edge_direct
        changed = True
        while changed:
            changed = False
            for key in scc:
                if values[key]:
                    continue
                for edge in self.graph.callees(key):
                    if not all_edge_kinds and edge.kind != edge_direct:
                        continue
                    if values.get(edge.callee, resolved.get(edge.callee, False)):
                        values[key] = True
                        changed = True
                        break
        return values

    def _resolve_sccs(
        self,
        state: _BoolFactState,
        predicate: Callable[[InvokeExpr], bool],
        indices: Iterable[int],
    ) -> None:
        """Evaluate the given SCCs callee-first.  The condensation numbers
        every callee SCC before its callers, so ascending index order is
        a bottom-up schedule."""
        pending = sorted(i for i in indices if i not in state.evaluated_sccs)
        if not pending:
            return
        sccs, _position = self._ensure_scc_order()
        self.stats.bool_fact_sccs += len(pending)
        obs_metrics().inc("dataflow.bool_fact_sccs", len(pending))
        for idx in pending:
            values = self._eval_scc_values(sccs[idx], predicate, state)
            state.resolved.update(values)
            state.evaluated_sccs.add(idx)

    def _resolve_full(
        self,
        state: _BoolFactState,
        predicate: Callable[[InvokeExpr], bool],
    ) -> None:
        if state.complete:
            return
        sccs, _position = self._ensure_scc_order()
        self._resolve_sccs(state, predicate, range(len(sccs)))
        state.complete = True

    def _bool_fact(
        self,
        name: str,
        predicate: Callable[[InvokeExpr], bool],
        all_edge_kinds: bool,
        key: "MethodKey",
    ) -> bool:
        state = self._bool_state(name, all_edge_kinds)
        cached = state.resolved.get(key)
        if cached is not None:
            return cached
        if state.complete or key not in self.graph.methods:
            return False
        # Demand-driven: evaluate only this key's callee cone (cones are
        # small; prewarming covers the rest).
        self._resolve_sccs(state, predicate, self._cone_indices(state, (key,)))
        return state.resolved.get(key, False)

    def prewarm_bool_facts(
        self,
        demands: Iterable[tuple[str, Optional[Iterable["MethodKey"]]]],
    ) -> None:
        """Evaluate the fact cones the planned passes will query.

        ``demands`` pairs a fact name from :data:`BOOL_FACT_SPECS` with
        the methods whose facts will be demanded (``None`` = whole app,
        for facts served as whole-app views).  Queries the prewarm did
        not cover simply fall back to lazy evaluation.
        """
        for name, roots in demands:
            predicate, all_edge_kinds = BOOL_FACT_SPECS[name]
            state = self._bool_state(name, all_edge_kinds)
            if state.complete:
                continue
            if roots is None:
                self._resolve_full(state, predicate)
            else:
                self._resolve_sccs(
                    state, predicate, self._cone_indices(state, roots)
                )

    def performs_connectivity_check(self, key: "MethodKey") -> bool:
        return self._bool_fact("connectivity", is_connectivity_check, True, key)

    def connectivity_methods(self) -> set["MethodKey"]:
        """All methods that transitively perform a connectivity check.
        A whole-app view, so it always resolves every SCC."""
        state = self._bool_state("connectivity", True)
        self._resolve_full(state, is_connectivity_check)
        return {k for k, v in state.resolved.items() if v}

    def notifies_ui(self, key: "MethodKey") -> bool:
        return self._bool_fact("ui", is_ui_notification, False, key)

    def notifies_via_handler(self, key: "MethodKey") -> bool:
        return self._bool_fact("handler", is_handler_notification, False, key)

    def sends_broadcast(self, key: "MethodKey") -> bool:
        return self._bool_fact("broadcast", _is_broadcast_invoke, False, key)

    # -- parameter → return transfer ----------------------------------------

    def params_to_return(self, key: "MethodKey") -> frozenset[int]:
        """Parameter positions (``RECEIVER`` for ``this``) whose value may
        flow to the return value, through copies, casts, field loads of
        tracked objects, and callees' own transfer summaries."""
        cached = self._ptr.get(key)
        if cached is not None:
            self.stats.params_to_return_hits += 1
            return cached
        method = self.graph.methods.get(key)
        if method is None:
            return frozenset()
        self.stats.params_to_return_computed += 1
        self._ptr_in_progress.add(key)
        try:
            result = self._compute_ptr(key, method)
        finally:
            self._ptr_in_progress.discard(key)
        self._ptr[key] = result
        return result

    def _all_positions(self, method: IRMethod) -> frozenset[int]:
        positions = set(range(len(method.params)))
        if not method.is_static:
            positions.add(RECEIVER)
        return frozenset(positions)

    def _compute_ptr(self, key: "MethodKey", method: IRMethod) -> frozenset[int]:
        defuse = self.cache.defuse(method)
        param_pos = {p.name: i for i, p in enumerate(method.params)}
        if not method.is_static:
            param_pos["this"] = RECEIVER
        positions: set[int] = set()
        seen: set[tuple[int, str]] = set()
        worklist: list[tuple[int, str]] = [
            (idx, stmt.value.name)
            for idx, stmt in enumerate(method.statements)
            if isinstance(stmt, ReturnStmt) and isinstance(stmt.value, Local)
        ]
        iterations = 0
        while worklist:
            iterations += 1
            at, name = worklist.pop()
            if (at, name) in seen:
                continue
            seen.add((at, name))
            for def_site in defuse.definition_sites(at, name):
                if def_site < 0:
                    if name in param_pos:
                        positions.add(param_pos[name])
                    continue
                stmt = method.statements[def_site]
                if not isinstance(stmt, AssignStmt):
                    continue
                value = stmt.value
                if isinstance(value, CastExpr):
                    value = value.value
                if isinstance(value, Local):
                    worklist.append((def_site, value.name))
                elif isinstance(value, InvokeExpr):
                    worklist.extend(
                        (def_site, lc.name)
                        for lc in self._invoke_carriers(key, def_site, value, method)
                    )
                elif isinstance(value, (FieldRef, ArrayRef)):
                    # Field/array loads keep tracking the base object
                    # (object-level heap model); allocations and constants
                    # are fresh values — the walk stops there.
                    worklist.extend((def_site, lc.name) for lc in locals_in(value))
        if iterations:
            obs_metrics().inc("dataflow.worklist_iterations", iterations)
        return frozenset(positions)

    def _invoke_carriers(
        self, key: "MethodKey", idx: int, invoke: InvokeExpr, method: IRMethod
    ) -> Iterable[Local]:
        """Operands of a call whose value may flow into its result."""
        callee = self.direct_callee_at(key, idx)
        if callee is None or callee in self._ptr_in_progress:
            # Unresolved virtual call, or recursion: widen to ⊤ — every
            # operand may flow through (the TaintPolicy treatment).
            if callee in self._ptr_in_progress:
                self.stats.widenings += 1
                obs_metrics().inc("dataflow.widenings")
                self._widened.add(key)
            return locals_in(invoke)
        transfer = self.params_to_return(callee)
        carriers: list[Local] = []
        if RECEIVER in transfer and invoke.base is not None:
            carriers.append(invoke.base)
        for pos in transfer:
            if 0 <= pos < len(invoke.args) and isinstance(invoke.args[pos], Local):
                carriers.append(invoke.args[pos])
        return carriers

    # -- config effects on parameters ---------------------------------------

    def config_effects(
        self, key: "MethodKey", position: int
    ) -> "tuple[ConfigEffect, ...] | _Top":
        """Config-API calls applied to the parameter at ``position``
        (``RECEIVER`` for the receiver) by this method or, transitively,
        by callees it passes the object to.  :data:`CONFIG_TOP` when the
        flow crosses a recursive cycle (assume configured — sound in the
        no-false-alarm direction)."""
        memo_key = (key, position)
        if memo_key in self._config_in_progress:
            self.stats.widenings += 1
            obs_metrics().inc("dataflow.widenings")
            self._widened.add(key)
            return CONFIG_TOP
        cached = self._config.get(memo_key)
        if cached is not None:
            self.stats.config_effects_hits += 1
            return cached
        method = self.graph.methods.get(key)
        if method is None:
            return ()
        local = self._param_local(method, position)
        if local is None:
            self._config[memo_key] = ()
            return ()
        self.stats.config_effects_computed += 1
        self._config_in_progress.add(memo_key)
        try:
            result = self._compute_config_effects(key, method, local)
        finally:
            self._config_in_progress.discard(memo_key)
        self._config[memo_key] = result
        return result

    @staticmethod
    def _param_local(method: IRMethod, position: int) -> Optional[str]:
        if position == RECEIVER:
            return None if method.is_static else "this"
        if 0 <= position < len(method.params):
            return method.params[position].name
        return None

    def _compute_config_effects(
        self, key: "MethodKey", method: IRMethod, local: str
    ) -> "tuple[ConfigEffect, ...] | _Top":
        cfg = self.cache.cfg(method)
        defuse = self.cache.defuse(method)
        taint = ForwardTaint(cfg, {(-1, local)})
        constants: Optional[ConstantPropagation] = None
        effects: dict[tuple["MethodKey", int], ConfigEffect] = {}
        widened = False
        for idx, invoke in method.invoke_sites():
            tainted = taint.tainted_before(idx)
            touches = (
                invoke.base is not None and invoke.base.name in tainted
            ) or any(isinstance(a, Local) and a.name in tainted for a in invoke.args)
            if not touches:
                continue
            found = self.registry.find_config(invoke)
            if found is not None:
                lib, config = found
                if constants is None:
                    constants = self.cache.constants(method)
                values = config_call_values(
                    method, idx, invoke, config, cfg, defuse, constants
                )
                effects[(key, idx)] = ConfigEffect(
                    lib.key, config, key, idx, values.retries, values.timeout_ms
                )
                continue
            callee = self.direct_callee_at(key, idx)
            if callee is None:
                continue
            callee_method = self.graph.methods.get(callee)
            if callee_method is None:
                continue
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
                sub = self.config_effects(callee, pos)
                if sub is CONFIG_TOP:
                    widened = True
                else:
                    effects.update({(e.method, e.stmt_index): e for e in sub})
        if widened:
            return CONFIG_TOP
        return tuple(
            effects[k] for k in sorted(effects, key=lambda mk: (mk[0], mk[1]))
        )

    # -- assembled view ------------------------------------------------------

    def summary(self, key: "MethodKey") -> MethodSummary:
        method = self.graph.methods.get(key)
        n_params = len(method.params) if method is not None else 0
        positions = list(range(n_params))
        if method is not None and not method.is_static:
            positions.append(RECEIVER)
        return MethodSummary(
            key=key,
            params_to_return=self.params_to_return(key),
            config_effects={p: self.config_effects(key, p) for p in positions},
            performs_connectivity_check=self.performs_connectivity_check(key),
            notifies_ui=self.notifies_ui(key),
            notifies_via_handler=self.notifies_via_handler(key),
            sends_broadcast=self.sends_broadcast(key),
            widened=key in self._widened,
        )

    # -- helpers -------------------------------------------------------------

    def direct_callee_at(self, key: "MethodKey", idx: int) -> Optional["MethodKey"]:
        """The app method a direct call edge at ``(key, idx)`` targets."""
        direct = self._direct_maps.get(key)
        if direct is None:
            direct = {
                e.stmt_index: e.callee
                for e in self.graph.callees(key)
                if e.kind == self._edge_direct
            }
            self._direct_maps[key] = direct
        return direct.get(idx)
