"""Shared infrastructure for NChecker's analyses."""

from __future__ import annotations

from collections import deque
from typing import Protocol

from ...callgraph.entrypoints import MethodKey
from ...obs import metrics
from ..findings import Finding
from ..requests import AnalysisContext, NetworkRequest


class Check(Protocol):
    """One NChecker analysis pass in the pipeline.

    Each check declares the store artifacts it reads (by name, resolved
    to typed keys by :mod:`repro.pipeline.passes`) so the scheduler can
    skip building artifacts no enabled check needs, and the passes whose
    in-scan products it consumes (``after``), so the pipeline orders
    them correctly.
    """

    name: str
    #: Pass names that must run earlier in the same scan.
    after: tuple[str, ...]

    def reads(self, options) -> tuple[str, ...]:
        """Artifact names this pass reads under ``options``."""
        ...

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]: ...


def methods_invoking(
    ctx: AnalysisContext, predicate
) -> set[MethodKey]:
    """Closure of app methods that (transitively) invoke a call site
    matching ``predicate`` — used to treat app helpers that wrap a cache
    API as the cache accesses they perform.  (Connectivity helpers are a
    memoized fact on ``ctx.summaries`` instead.)

    The caller closure is a reverse-edge worklist seeded from the direct
    matches: each in-edge is followed at most once from its member
    endpoint (``analysis.methods_invoking.edge_visits`` counts exactly
    those visits), replacing the old whole-graph re-sweep fixpoint that
    rescanned every method's out-edges per round (O(n·e) worst case)."""
    result: set[MethodKey] = set()
    for key, method in ctx.callgraph.methods.items():
        for _idx, invoke in method.invoke_sites():
            if predicate(invoke):
                result.add(key)
                break
    # A method "performs" the action if it calls a method that does:
    # walk caller edges outward from the direct matches, once each.
    edge_visits = 0
    frontier = deque(result)
    while frontier:
        key = frontier.popleft()
        for edge in ctx.callgraph.callers(key):
            edge_visits += 1
            if edge.caller not in result:
                result.add(edge.caller)
                frontier.append(edge.caller)
    metrics().inc("analysis.methods_invoking.edge_visits", edge_visits)
    return result


def request_frames(
    request: NetworkRequest,
) -> list[list[tuple[MethodKey, int]]]:
    """Per call chain, the (method, call-site index) frames ending at the
    request statement itself."""
    frames_per_chain = []
    for chain in request.chains:
        frames = chain.frames()
        frames.append((request.key, request.stmt_index))
        frames_per_chain.append(frames)
    if not frames_per_chain:
        # Unreached requests (library callbacks we could not resolve, dead
        # code): analyse the enclosing method alone.
        frames_per_chain.append([(request.key, request.stmt_index)])
    return frames_per_chain
