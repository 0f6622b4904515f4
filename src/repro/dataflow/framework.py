"""A generic iterative (worklist) dataflow solver.

The concrete analyses built on it — constant propagation and forward
taint — are forward problems: each supplies an initial state, an entry
boundary, a join and a transfer function.  (Reaching definitions
runs its own bitset solver; see :mod:`repro.dataflow.reaching`.)
States are treated as opaque values compared with ``==``; concrete
analyses use frozensets or dicts.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from ..cfg.graph import CFG

State = TypeVar("State")


class DataflowAnalysis(Generic[State]):
    """Solve a forward monotone dataflow problem to a fixed point.

    Subclasses provide:

    * ``initial(node)`` — the state at node boundaries before iteration;
    * ``boundary()`` — the state at the entry;
    * ``join(states)`` — the confluence operator;
    * ``transfer(node, state)`` — the node transfer function.

    After :meth:`solve`, ``in_states[n]`` / ``out_states[n]`` hold the
    fixed point: the state before and after node ``n``.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.in_states: dict[int, State] = {}
        self.out_states: dict[int, State] = {}

    # -- to be provided by concrete analyses --------------------------------

    def initial(self, node: int) -> State:
        raise NotImplementedError

    def boundary(self) -> State:
        raise NotImplementedError

    def join(self, states: list[State]) -> State:
        raise NotImplementedError

    def transfer(self, node: int, state: State) -> State:
        raise NotImplementedError

    # -- solver --------------------------------------------------------------

    def solve(self) -> "DataflowAnalysis[State]":
        cfg = self.cfg
        start, preds, succs = cfg.entry, cfg.preds, cfg.succs

        # Acyclic CFGs (the common case — most methods are loop-free) reach
        # the fixed point in a single pass over the nodes in topological
        # order: every edge advances the statement index, so ascending
        # order visits each node after all of its predecessors.  No
        # worklist, no re-visits.
        if cfg.acyclic:
            in_states, out_states = self.in_states, self.out_states
            for node in cfg.nodes():
                if node == start:
                    state = self.boundary()
                else:
                    ins = preds[node]
                    if not ins:
                        state = self.initial(node)
                    elif len(ins) == 1:
                        # join of one input is the input itself for every
                        # lattice; skip the list and the join call.
                        state = out_states[ins[0]]
                    else:
                        state = self.join([out_states[p] for p in ins])
                in_states[node] = state
                out_states[node] = self.transfer(node, state)
            return self

        for node in cfg.nodes():
            self.in_states[node] = self.initial(node)
            self.out_states[node] = self.initial(node)

        # Seed in flow order so most nodes see their predecessors' final
        # states on the first visit.
        worklist: deque[int] = deque(cfg.nodes())
        queued = set(worklist)
        self.in_states[start] = self.boundary()
        self.out_states[start] = self.transfer(start, self.in_states[start])

        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            if node != start:
                incoming = [self.out_states[p] for p in preds[node]]
                self.in_states[node] = (
                    self.join(incoming) if incoming else self.initial(node)
                )
            new_out = self.transfer(node, self.in_states[node])
            if new_out != self.out_states[node] or node == start:
                self.out_states[node] = new_out
                for nxt in succs[node]:
                    if nxt not in queued:
                        queued.add(nxt)
                        worklist.append(nxt)
        return self

    # -- conveniences ---------------------------------------------------------

    def state_before(self, node: int) -> State:
        """The fixed-point state entering ``node``."""
        return self.in_states[node]


class SetAnalysis(DataflowAnalysis[frozenset]):
    """Base for may-analyses over sets: the initial and entry states are
    empty, the join is union; subclasses supply ``transfer``."""

    def initial(self, node: int) -> frozenset:
        return frozenset()

    def boundary(self) -> frozenset:
        return frozenset()

    def join(self, states: list[frozenset]) -> frozenset:
        result = states[0]
        for state in states[1:]:
            result = result | state
        return result
