"""Reachability and call-chain extraction over the call graph.

NChecker's reports include the call stack from an entry point to the
buggy request (paper §4.6, Fig 7); the context inference (§4.4.2) needs
to know *which* entry points reach a request.  Both are path queries
answered here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cha import CallEdge, CallGraph
from .entrypoints import EntryPoint, MethodKey


@dataclass(frozen=True)
class CallChain:
    """A path of call edges from an entry point to a call site."""

    entry: EntryPoint
    edges: tuple[CallEdge, ...]

    @property
    def target_method(self) -> MethodKey:
        return self.edges[-1].callee if self.edges else self.entry.key

    def frames(self) -> list[tuple[MethodKey, int]]:
        """(method, call-site statement index) frames, outermost first."""
        return [(edge.caller, edge.stmt_index) for edge in self.edges]

    def __len__(self) -> int:
        return len(self.edges)


def chains_to_method(
    graph: CallGraph,
    target: MethodKey,
    max_chains: int = 32,
    max_depth: int = 24,
) -> list[CallChain]:
    """Call chains from the entry points to ``target``, in entry order.

    Each entry point is searched depth-first.  A chain is cycle-free: it
    visits no method twice, so a call back into a method already on the
    path (itself included) is not followed.

    The search is pruned to the target's *caller cone* (the methods from
    which ``target`` is reachable at all): entry points outside it are
    skipped, and so is every edge into a method that is neither the
    target nor in the cone.  Pruned branches never end at the target, so
    the chains and their order are those of the unpruned search, and the
    cost per request follows the cone rather than the whole app.

    Chains are capped at ``max_chains`` per target and at ``max_depth``
    edges each, to bound path explosion; an entry point that is itself
    the target always contributes its empty chain.
    """
    cone = graph.transitive_callers((target,))
    chains: list[CallChain] = []
    for entry in graph.entries_of(cone | {target}):
        if entry.key not in graph.methods:
            continue
        if entry.key == target:
            chains.append(CallChain(entry, ()))
            continue
        stack: list[tuple[MethodKey, tuple[CallEdge, ...]]] = [(entry.key, ())]
        while stack and len(chains) < max_chains:
            node, path = stack.pop()
            if len(path) >= max_depth:
                continue
            for edge in graph.callees(node):
                callee = edge.callee
                if callee != target and callee not in cone:
                    continue  # cannot reach the target
                if callee == node or any(e.caller == callee for e in path):
                    continue  # avoid cycles
                new_path = path + (edge,)
                if callee == target:
                    chains.append(CallChain(entry, new_path))
                    if len(chains) >= max_chains:
                        break
                else:
                    stack.append((callee, new_path))
    return chains

