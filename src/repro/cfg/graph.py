"""Statement-level control-flow graphs.

Nodes are statement indices into the method body; a synthetic exit node
(index ``len(statements)``) gives every method a unique exit, which the
post-dominator computation requires.  Exceptional control flow is modelled
conservatively: every potentially-throwing statement inside a trap range
has an edge to the trap handler (invocations and explicit throws may
throw; straight-line arithmetic may not — this matches how Soot builds
its ``ExceptionalUnitGraph`` for the analyses NChecker runs).
"""

from __future__ import annotations

from ..ir.method import IRMethod
from ..ir.statements import (
    GotoStmt,
    IfStmt,
    InvokeStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)


def may_throw(stmt: Stmt) -> bool:
    """Whether the statement can transfer control to an exception handler."""
    if isinstance(stmt, (InvokeStmt, ThrowStmt)):
        return True
    invoke = stmt.invoke()
    return invoke is not None


class CFG:
    """Control-flow graph of one method.

    ``entry`` is statement 0; ``exit`` is the synthetic node
    ``len(statements)``.  ``succs``/``preds`` include both normal and
    exceptional edges; exceptional edges are additionally recorded in
    ``exceptional_edges`` so analyses can distinguish them.
    """

    __slots__ = (
        "method",
        "entry",
        "exit",
        "succs",
        "preds",
        "exceptional_edges",
        "_acyclic",
    )

    def __init__(self, method: IRMethod) -> None:
        if not method._validated:
            method.validate()
        self.method = method
        n = len(method.statements)
        self.entry = 0
        self.exit = n
        self.succs: list[list[int]] = [[] for _ in range(n + 1)]
        self.preds: list[list[int]] = [[] for _ in range(n + 1)]
        self.exceptional_edges: set[tuple[int, int]] = set()
        self._acyclic: bool | None = None
        self._build()

    def _add_edge(self, src: int, dst: int, exceptional: bool = False) -> None:
        if dst not in self.succs[src]:
            self.succs[src].append(dst)
            self.preds[dst].append(src)
        if exceptional:
            self.exceptional_edges.add((src, dst))

    def _resolve(self, label: str) -> int:
        """Branch target index; labels one past the end mean the exit."""
        idx = self.method.label_index(label)
        return min(idx, self.exit)

    def _build(self) -> None:
        method = self.method
        n = len(method.statements)
        # Resolve every trap's protected range and handler once, instead of
        # re-resolving labels per may-throw statement (`traps_covering`).
        trap_ranges: list[tuple[int, int, int]] = [
            (
                method.label_index(trap.begin),
                method.label_index(trap.end),
                self._resolve(trap.handler),
            )
            for trap in method.traps
        ]
        for idx, stmt in enumerate(method.statements):
            if isinstance(stmt, ReturnStmt):
                self._add_edge(idx, self.exit)
            elif isinstance(stmt, GotoStmt):
                self._add_edge(idx, self._resolve(stmt.target))
            elif isinstance(stmt, IfStmt):
                self._add_edge(idx, self._resolve(stmt.target))
                if idx + 1 <= n:
                    self._add_edge(idx, idx + 1)
            elif isinstance(stmt, ThrowStmt):
                handled = False
                for begin, end, handler in trap_ranges:
                    if begin <= idx < end:
                        self._add_edge(idx, handler, exceptional=True)
                        handled = True
                if not handled:
                    self._add_edge(idx, self.exit, exceptional=True)
                continue
            else:
                if idx + 1 <= n:
                    self._add_edge(idx, idx + 1)
            # Exceptional edges from throwing statements inside trap ranges.
            if trap_ranges and may_throw(stmt):
                for begin, end, handler in trap_ranges:
                    if begin <= idx < end:
                        self._add_edge(idx, handler, exceptional=True)

    # -- queries -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.exit + 1

    @property
    def acyclic(self) -> bool:
        """Whether every edge advances the statement index.

        Statement-index CFGs only cycle through an edge back to an
        equal-or-earlier index (fall-through, branches past the loop, and
        exits always advance), so "all edges advance" is exactly
        acyclicity — and statement order is then a topological order.
        Computed once and cached; dataflow solvers and loop detection both
        take single-pass fast paths on acyclic graphs.
        """
        if self._acyclic is None:
            self._acyclic = all(
                dst > src
                for src, dsts in enumerate(self.succs)
                for dst in dsts
            )
        return self._acyclic

    def nodes(self) -> range:
        return range(self.node_count)

    def stmt(self, node: int) -> Stmt | None:
        if node == self.exit:
            return None
        return self.method.statements[node]

    def reachable_from(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for succ in self.succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    def reaches(self, src: int, dst: int) -> bool:
        return dst in self.reachable_from(src)
