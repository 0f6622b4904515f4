"""Interprocedural thread-context analysis.

Android callbacks run on a fixed thread discipline: component lifecycle
methods and UI callbacks execute on the **main (UI) thread**; Service
entry points, ``AsyncTask.doInBackground``, and ``Runnable.run`` bodies
dispatched through ``Thread.start``/executors execute on **background**
threads; ``Handler.post`` and the AsyncTask UI-side callbacks hop work
back onto the main thread; network-library callbacks land wherever the
library delivers them (Volley/loopj: main thread; OkHttp: a dispatcher
thread — see :attr:`~repro.libmodels.annotations.LibraryModel.
callbacks_on_main_thread`).

This module propagates those seeds over the call graph to compute, per
method, the set of threads it **may** execute on — the fact behind the
``ui-thread-network`` check (a blocking request reachable on the main
thread freezes the UI and crashes with ``NetworkOnMainThreadException``
on modern Android).

Lattice
-------
Values are frozen subsets of ``{"main", "background"}``:

* ``UNKNOWN`` (``{}``, ⊥) — never observed to run (unreachable code);
* ``MAIN`` / ``BACKGROUND`` — runs only on that side;
* ``EITHER`` (⊤) — may run on both.

``join`` is set union; :func:`transfer` maps a caller's context across
one call edge.  Both are monotone (asserted by a hypothesis property in
the test suite), so the SCC-ordered propagation below terminates at the
least fixpoint.  Components of the call graph that are cyclic (mutual or
self recursion) are **widened**: every member receives the join over the
whole component in one step instead of a per-member solution
(``threadcontext.widenings`` counts these), which is exact here because
non-``direct`` edges transfer constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..app.components import HANDLER_POST_METHODS
from ..callgraph.cha import (
    EDGE_ASYNC_TASK,
    EDGE_DIRECT,
    EDGE_LIB_CALLBACK,
    EDGE_RUNNABLE,
)
from ..callgraph.entrypoints import MethodKey
from ..callgraph.scc import condensation_order
from ..obs import metrics

if TYPE_CHECKING:
    from ..callgraph.cha import CallEdge, CallGraph
    from ..libmodels.annotations import LibraryRegistry

#: The lattice: frozen subsets of the two thread classes.
ThreadContext = frozenset

UNKNOWN: ThreadContext = frozenset()
MAIN: ThreadContext = frozenset({"main"})
BACKGROUND: ThreadContext = frozenset({"background"})
EITHER: ThreadContext = frozenset({"main", "background"})

#: The AsyncTask callback that runs off the UI thread; its siblings
#: (onPreExecute/onPostExecute/onProgressUpdate/onCancelled) run on it.
_ASYNC_TASK_BACKGROUND_CALLBACK = "doInBackground"


def join(a: ThreadContext, b: ThreadContext) -> ThreadContext:
    """Least upper bound — set union (monotone, commutative, idempotent)."""
    return a | b


def transfer(
    edge_kind: str,
    caller_ctx: ThreadContext,
    *,
    callee_name: str = "",
    dispatch_main: bool = False,
    callbacks_on_main: Optional[bool] = None,
) -> ThreadContext:
    """The callee-side context contributed by one call edge.

    Only ``direct`` edges depend on the caller's context (a plain call
    stays on the caller's thread); every asynchronous edge kind transfers
    a constant determined by the dispatch construct, which keeps the
    function trivially monotone in ``caller_ctx``:

    * ``async_task`` — ``doInBackground`` runs on a pool thread, the
      other AsyncTask callbacks on the main thread;
    * ``runnable`` — ``Handler.post``-family dispatch lands on the main
      thread (``dispatch_main``), ``Thread.start``/executor submission on
      a background thread;
    * ``lib_callback`` — per the library model's
      ``callbacks_on_main_thread`` (``None`` = unknown library, ⊤).
    """
    if edge_kind == EDGE_DIRECT:
        return caller_ctx
    if edge_kind == EDGE_ASYNC_TASK:
        if callee_name == _ASYNC_TASK_BACKGROUND_CALLBACK:
            return BACKGROUND
        return MAIN
    if edge_kind == EDGE_RUNNABLE:
        return MAIN if dispatch_main else BACKGROUND
    if edge_kind == EDGE_LIB_CALLBACK:
        if callbacks_on_main is None:
            return EITHER
        return MAIN if callbacks_on_main else BACKGROUND
    return EITHER


class ThreadContextAnalysis:
    """Per-method may-run-on thread contexts over one app's call graph.

    Seeded from the framework entry points (Service entries run in
    background-capable contexts, everything else — Activity/Receiver/
    Provider lifecycle and UI callbacks — on the main thread) and
    propagated caller-first over the condensation of the call graph.
    Methods unreachable from any entry point stay :data:`UNKNOWN` and are
    never flagged by the checks built on this analysis.

    The object is an app-scoped artifact: it holds only the call graph,
    the registry, and a plain ``MethodKey → frozenset`` map, so the
    disk-cache pickler persists it by reference to both.
    """

    def __init__(self, graph: "CallGraph", registry: "LibraryRegistry") -> None:
        self.graph = graph
        self.registry = registry
        self.contexts: dict[MethodKey, ThreadContext] = {}
        self._compute()

    # -- queries -------------------------------------------------------------

    def context_of(self, key: MethodKey) -> ThreadContext:
        """The threads ``key`` may execute on (⊥ for unreachable code)."""
        return self.contexts.get(key, UNKNOWN)

    def may_run_on_main(self, key: MethodKey) -> bool:
        return "main" in self.context_of(key)

    def describe(self, key: MethodKey) -> str:
        """Stable human-readable rendering ("main", "background",
        "either", or "unknown") for reports and finding details."""
        ctx = self.context_of(key)
        if ctx == EITHER:
            return "either"
        if ctx == MAIN:
            return "main"
        if ctx == BACKGROUND:
            return "background"
        return "unknown"

    # -- propagation ---------------------------------------------------------

    def _seeds(self) -> dict[MethodKey, ThreadContext]:
        seeds: dict[MethodKey, ThreadContext] = {}
        for entry in self.graph.entry_points:
            if entry.key not in self.graph.methods:
                continue
            seed = BACKGROUND if entry.background else MAIN
            seeds[entry.key] = join(seeds.get(entry.key, UNKNOWN), seed)
        return seeds

    def _compute(self) -> None:
        graph = self.graph
        registry = metrics()
        seeds = self._seeds()
        sccs, _position = condensation_order(
            list(graph.methods),
            lambda key: [e.callee for e in graph.callees(key)],
        )
        edges_propagated = 0
        widenings = 0
        # condensation_order is callee-first; thread contexts flow from
        # callers to callees, so process caller-first (reversed): every
        # external caller of a component is final when it is reached.
        for scc in reversed(sccs):
            members = set(scc)
            cyclic = len(scc) > 1 or any(
                e.callee == scc[0] for e in graph.callees(scc[0])
            )
            value = UNKNOWN
            for member in scc:
                value = join(value, seeds.get(member, UNKNOWN))
                for edge in graph.callers(member):
                    internal = edge.caller in members
                    if internal and edge.kind == EDGE_DIRECT:
                        # Identity transfer inside the component — the
                        # smear below already covers it.
                        continue
                    edges_propagated += 1
                    value = join(value, self._edge_transfer(edge, internal))
            if cyclic:
                # ⊤-style widening: one joined value for the whole
                # recursive component (exact here — see module docstring).
                widenings += 1
            for member in scc:
                if value:
                    self.contexts[member] = value
        registry.inc("threadcontext.edges_propagated", edges_propagated)
        registry.inc("threadcontext.widenings", widenings)
        registry.inc("threadcontext.methods", len(self.contexts))

    def _edge_transfer(self, edge: "CallEdge", internal: bool) -> ThreadContext:
        """Evaluate :func:`transfer` for one concrete call-graph edge."""
        if edge.kind == EDGE_DIRECT:
            # External direct edge: the caller's context is final.
            return self.contexts.get(edge.caller, UNKNOWN)
        if edge.kind == EDGE_ASYNC_TASK:
            return transfer(edge.kind, UNKNOWN, callee_name=edge.callee[1])
        if edge.kind == EDGE_RUNNABLE:
            return transfer(
                edge.kind, UNKNOWN, dispatch_main=self._dispatches_to_main(edge)
            )
        if edge.kind == EDGE_LIB_CALLBACK:
            return transfer(
                edge.kind,
                UNKNOWN,
                callbacks_on_main=self._callback_thread(edge.callee),
            )
        return EITHER

    def _dispatches_to_main(self, edge: "CallEdge") -> bool:
        """Whether a runnable edge's dispatch site is a ``Handler.post``
        (main-thread hop) rather than ``Thread.start``/executor work."""
        method = self.graph.methods.get(edge.caller)
        if method is None or edge.stmt_index >= len(method.statements):
            return False
        invoke = method.statements[edge.stmt_index].invoke()
        return invoke is not None and invoke.sig.name in HANDLER_POST_METHODS

    def _callback_thread(self, callee: MethodKey) -> Optional[bool]:
        """Which thread the library delivering ``callee`` runs it on
        (``None`` when no registered library model claims the callback)."""
        hierarchy = self.graph.apk.hierarchy
        cls_name, method_name, _arity = callee
        cls = hierarchy.get(cls_name)
        if cls is None:
            return None
        supers = hierarchy.supertypes(cls_name) | set(cls.interfaces)
        for iface in supers & self.registry.callback_interfaces():
            found = self.registry.find_callback_spec(iface, method_name)
            if found is not None:
                lib, _spec = found
                return lib.callbacks_on_main_thread
        return None
