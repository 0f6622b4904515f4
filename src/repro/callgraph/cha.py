"""Call-graph construction (CHA plus Android async pseudo-edges).

The original NChecker builds its call graph with Soot/FlowDroid, which
stitches Android's asynchronous constructs (AsyncTask, Runnable, Handler)
into ordinary edges.  This builder does the same over our IR:

* direct edges for static/special/virtual calls into application classes
  (virtual dispatch resolved up the superclass chain);
* ``task.execute()`` → the task class's ``doInBackground`` /
  ``onPostExecute`` / ... pseudo-edges (paper Fig 5);
* ``thread.start()`` / ``handler.post(r)`` / ``executor.execute(r)`` →
  the runnable's ``run``;
* network-library async target APIs → the registered listener object's
  callback methods (Volley listeners, loopj handlers, OkHttp callbacks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..app.apk import APK
from ..app.components import (
    ASYNC_TASK_CALLBACKS,
    ASYNC_TASK_CLASS,
    ASYNC_TASK_EXECUTE_METHODS,
    EXECUTOR_SUBMIT_METHODS,
    HANDLER_POST_METHODS,
    THREAD_CLASS,
    THREAD_START_METHODS,
)
from ..ir.method import IRMethod
from ..ir.values import InvokeExpr, KIND_STATIC, Local
from ..libmodels.annotations import LibraryRegistry
from .entrypoints import EntryPoint, MethodKey, discover_entry_points, method_key
from .resolve import MethodAnalysisCache, collect_field_types, origin_classes

#: Edge kinds, for diagnostics and ablation.
EDGE_DIRECT = "direct"
EDGE_ASYNC_TASK = "async_task"
EDGE_RUNNABLE = "runnable"
EDGE_LIB_CALLBACK = "lib_callback"

#: Names that hand a runnable/thread off to the framework — hoisted out of
#: the per-site edge derivation.
_RUNNABLE_DISPATCH_METHODS = frozenset(
    set(THREAD_START_METHODS)
    | set(HANDLER_POST_METHODS)
    | set(EXECUTOR_SUBMIT_METHODS)
)


@dataclass(frozen=True)
class CallEdge:
    caller: MethodKey
    stmt_index: int
    callee: MethodKey
    kind: str = EDGE_DIRECT


class CallGraph:
    """Application call graph with entry points."""

    def __init__(
        self,
        apk: APK,
        registry: Optional[LibraryRegistry] = None,
        cache: Optional[MethodAnalysisCache] = None,
    ) -> None:
        self.apk = apk
        self.registry = registry
        self.cache = cache or MethodAnalysisCache()
        self.methods: dict[MethodKey, IRMethod] = {}
        self.out_edges: dict[MethodKey, list[CallEdge]] = {}
        self.in_edges: dict[MethodKey, list[CallEdge]] = {}
        self.entry_points: list[EntryPoint] = discover_entry_points(apk)
        #: Entry key -> positions in ``entry_points`` (see ``entries_of``).
        self._entry_index: Optional[dict[MethodKey, list[int]]] = None
        self.field_types = collect_field_types(list(apk.methods()))
        #: The registry's callback-interface set never changes for the life
        #: of the graph; computing it per call site was a build hotspot.
        self._callback_interfaces: frozenset[str] = frozenset(
            registry.callback_interfaces() if registry is not None else ()
        )
        #: Memoized ``origin_classes`` queries, keyed by (method, site,
        #: local).  Edge derivation asks for the same origins repeatedly
        #: (async-task, runnable, and library-callback probes per site);
        #: entries for a method are dropped when its edges are refreshed.
        self._origin_memo: dict[tuple[MethodKey, int, str], set[str]] = {}
        self._build()

    def __getstate__(self) -> dict:
        # The entry index is derived from ``entry_points``; leaving it out
        # keeps cached graphs the same bytes whether or not it was built.
        state = dict(self.__dict__)
        state.pop("_entry_index", None)
        return state

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        for method in self.apk.methods():
            self.methods[method_key(method)] = method
        for key, method in self.methods.items():
            for idx, invoke in method.invoke_sites():
                for edge in self._edges_for_site(key, method, idx, invoke):
                    self._add_edge(edge)

    def _add_edge(self, edge: CallEdge) -> None:
        if edge.callee not in self.methods:
            return
        self.out_edges.setdefault(edge.caller, []).append(edge)
        self.in_edges.setdefault(edge.callee, []).append(edge)

    def _edges_for_site(
        self, caller: MethodKey, method: IRMethod, idx: int, invoke: InvokeExpr
    ) -> Iterator[CallEdge]:
        callee = self._resolve_direct(method, idx, invoke)
        if callee is not None:
            yield CallEdge(caller, idx, callee, EDGE_DIRECT)
        yield from self._async_task_edges(caller, method, idx, invoke)
        yield from self._runnable_edges(caller, method, idx, invoke)
        yield from self._library_callback_edges(caller, method, idx, invoke)

    def _resolve_direct(
        self, method: IRMethod, idx: int, invoke: InvokeExpr
    ) -> Optional[MethodKey]:
        hierarchy = self.apk.hierarchy
        cls_name = invoke.sig.class_name
        if cls_name == "?" and isinstance(invoke.base, Local):
            if invoke.base.name == "this":
                cls_name = method.class_name
            else:
                origins = self._origins_of(method, idx, invoke.base)
                app_origins = [o for o in origins if o in hierarchy]
                if len(app_origins) == 1:
                    cls_name = app_origins[0]
        if cls_name not in hierarchy:
            return None
        target = hierarchy.resolve_method(cls_name, invoke.sig.name, invoke.sig.arity)
        if target is None:
            return None
        return method_key(target)

    def _origins_of(
        self, method: IRMethod, idx: int, local: Local
    ) -> set[str]:
        memo_key = (method_key(method), idx, local.name)
        cached = self._origin_memo.get(memo_key)
        if cached is None:
            cached = origin_classes(method, idx, local, self.cache, self.field_types)
            self._origin_memo[memo_key] = cached
        return cached

    def _async_task_edges(
        self, caller: MethodKey, method: IRMethod, idx: int, invoke: InvokeExpr
    ) -> Iterator[CallEdge]:
        if invoke.sig.name not in ASYNC_TASK_EXECUTE_METHODS or invoke.base is None:
            return
        hierarchy = self.apk.hierarchy
        for origin in self._origins_of(method, idx, invoke.base):
            if origin not in hierarchy:
                continue
            if not hierarchy.is_subtype(origin, ASYNC_TASK_CLASS):
                continue
            cls = hierarchy.get(origin)
            if cls is None:
                continue
            cls_method_keys = cls.method_keys()
            for callback_name in ASYNC_TASK_CALLBACKS:
                for name, arity in cls_method_keys:
                    if name == callback_name:
                        yield CallEdge(
                            caller, idx, (origin, name, arity), EDGE_ASYNC_TASK
                        )

    def _runnable_edges(
        self, caller: MethodKey, method: IRMethod, idx: int, invoke: InvokeExpr
    ) -> Iterator[CallEdge]:
        if invoke.sig.name not in _RUNNABLE_DISPATCH_METHODS:
            return
        hierarchy = self.apk.hierarchy
        candidates: list[Local] = []
        if invoke.sig.name in THREAD_START_METHODS and invoke.base is not None:
            candidates.append(invoke.base)
        candidates.extend(a for a in invoke.args if isinstance(a, Local))
        for local in candidates:
            for origin in self._origins_of(method, idx, local):
                if origin not in hierarchy:
                    continue
                cls = hierarchy.get(origin)
                if cls is None:
                    continue
                runs_like_thread = hierarchy.is_subtype(origin, THREAD_CLASS)
                implements_runnable = "java.lang.Runnable" in hierarchy.supertypes(
                    origin
                ) or "java.lang.Runnable" in cls.interfaces
                if not (runs_like_thread or implements_runnable):
                    continue
                run = cls.get_method("run", 0)
                if run is not None:
                    yield CallEdge(caller, idx, (origin, "run", 0), EDGE_RUNNABLE)

    def _library_callback_edges(
        self, caller: MethodKey, method: IRMethod, idx: int, invoke: InvokeExpr
    ) -> Iterator[CallEdge]:
        if self.registry is None:
            return
        callback_interfaces = self._callback_interfaces
        if not callback_interfaces:
            return
        hierarchy = self.apk.hierarchy
        # Inspect every local argument; additionally, look one hop through
        # allocation sites into constructor arguments — Volley listeners
        # travel inside the Request object (`new StringRequest(m, url,
        # listener, errorListener)` then `queue.add(request)`).
        arg_locals = [a for a in invoke.args if isinstance(a, Local)]
        if not arg_locals:
            return
        arg_locals.extend(self._ctor_arg_locals(method, idx, arg_locals))
        for local in arg_locals:
            for origin in self._origins_of(method, idx, local):
                cls = hierarchy.get(origin)
                if cls is None:
                    continue
                supers = hierarchy.supertypes(origin) | set(cls.interfaces)
                matching = supers & callback_interfaces
                if not matching:
                    continue
                for iface in matching:
                    for name, arity in cls.method_keys():
                        spec = self.registry.find_callback_spec(iface, name)
                        if spec is not None:
                            yield CallEdge(
                                caller, idx, (origin, name, arity), EDGE_LIB_CALLBACK
                            )

    def _ctor_arg_locals(
        self, method: IRMethod, idx: int, arg_locals: list[Local]
    ) -> list[Local]:
        """Locals passed to the constructors of the objects in
        ``arg_locals`` (one indirection level)."""
        from ..dataflow.taint import trace_origins
        from ..ir.statements import AssignStmt
        from ..ir.values import NewExpr

        if not arg_locals or not any(
            isinstance(s, AssignStmt) and isinstance(s.value, NewExpr)
            for s in method.statements
        ):
            # No allocation sites means no constructor to look through —
            # skip the (comparatively expensive) origin traces entirely.
            return []
        cfg = self.cache.cfg(method)
        defuse = self.cache.defuse(method)
        found: list[Local] = []
        for local in arg_locals:
            for origin in trace_origins(cfg, idx, local.name, defuse):
                if origin < 0:
                    continue
                stmt = method.statements[origin]
                if not (
                    isinstance(stmt, AssignStmt) and isinstance(stmt.value, NewExpr)
                ):
                    continue
                for ctor_idx in range(origin + 1, len(method.statements)):
                    ctor = method.statements[ctor_idx].invoke()
                    if (
                        ctor is not None
                        and ctor.is_constructor
                        and ctor.base == stmt.target
                    ):
                        found.extend(
                            a for a in ctor.args if isinstance(a, Local)
                        )
                        break
        return found

    # -- incremental maintenance ---------------------------------------------

    def refresh_methods(self, keys: Iterable[MethodKey]) -> None:
        """Re-derive the out-edges of the given (mutated) methods.

        The per-method analysis cache entries for these methods must be
        dropped *before* calling this — edge resolution recovers receiver
        classes through it (:func:`origin_classes`).  Field-type facts are
        whole-app; if the mutation changed them, every method's edges may
        resolve differently and the graph is rebuilt wholesale.

        Keys not yet in the graph are *adopted* from the APK when it now
        declares them — the patcher's structural fixes (move-to-AsyncTask
        workers, injected lifecycle exit methods) add whole methods and
        classes between rounds.  Adoption re-discovers entry points, since
        an injected ``onPause``/``onDestroy`` is itself one.
        """
        keys = list(keys)
        adopted = False
        for key in keys:
            if key in self.methods:
                continue
            cls = self.apk.get_class(key[0])
            method = cls.get_method(key[1], key[2]) if cls is not None else None
            if method is not None:
                self.methods[key] = method
                adopted = True
        if adopted:
            self.entry_points = discover_entry_points(self.apk)
            self._entry_index = None
        keys = [k for k in keys if k in self.methods]
        dirty = set(keys)
        self._origin_memo = {
            mk: v for mk, v in self._origin_memo.items() if mk[0] not in dirty
        }
        new_field_types = collect_field_types(list(self.apk.methods()))
        if new_field_types != self.field_types:
            self.field_types = new_field_types
            self._origin_memo.clear()
            self.out_edges.clear()
            self.in_edges.clear()
            for key, method in self.methods.items():
                for idx, invoke in method.invoke_sites():
                    for edge in self._edges_for_site(key, method, idx, invoke):
                        self._add_edge(edge)
            return
        for key in keys:
            for edge in self.out_edges.pop(key, []):
                mirror = self.in_edges.get(edge.callee)
                if mirror is not None:
                    mirror[:] = [e for e in mirror if e.caller != key]
            method = self.methods[key]
            for idx, invoke in method.invoke_sites():
                for edge in self._edges_for_site(key, method, idx, invoke):
                    self._add_edge(edge)

    def transitive_callers(self, keys: Iterable[MethodKey]) -> set[MethodKey]:
        """All methods from which any of ``keys`` is reachable (callers,
        callers-of-callers, ...) — the dependency cone a summary
        invalidation must cover, excluding ``keys`` themselves."""
        seen: set[MethodKey] = set(keys)
        frontier = deque(seen)
        result: set[MethodKey] = set()
        while frontier:
            node = frontier.popleft()
            for edge in self.in_edges.get(node, ()):
                if edge.caller not in seen:
                    seen.add(edge.caller)
                    result.add(edge.caller)
                    frontier.append(edge.caller)
        return result

    # -- queries -------------------------------------------------------------

    def entries_of(self, keys: Iterable[MethodKey]) -> list[EntryPoint]:
        """The entry points whose method is one of ``keys``, in
        ``entry_points`` order — without a walk over every entry."""
        # Built on first use (graphs loaded from the cache arrive without
        # it) and dropped whenever ``entry_points`` is re-discovered.
        index = getattr(self, "_entry_index", None)
        if index is None:
            index = {}
            for position, entry in enumerate(self.entry_points):
                index.setdefault(entry.key, []).append(position)
            self._entry_index = index
        positions = sorted(
            position for key in keys for position in index.get(key, ())
        )
        return [self.entry_points[position] for position in positions]

    def callees(self, key: MethodKey) -> list[CallEdge]:
        return self.out_edges.get(key, [])

    def callers(self, key: MethodKey) -> list[CallEdge]:
        return self.in_edges.get(key, [])

    def reachable_from(self, start: MethodKey) -> set[MethodKey]:
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for edge in self.out_edges.get(node, ()):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    frontier.append(edge.callee)
        return seen

    def reachable_from_entries(self) -> set[MethodKey]:
        seen: set[MethodKey] = set()
        for entry in self.entry_points:
            if entry.key in self.methods and entry.key not in seen:
                seen |= self.reachable_from(entry.key)
        return seen

    def __repr__(self) -> str:
        edges = sum(len(v) for v in self.out_edges.values())
        return (
            f"<CallGraph {len(self.methods)} methods, {edges} edges, "
            f"{len(self.entry_points)} entries>"
        )
