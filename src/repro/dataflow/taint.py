"""Flow-sensitive taint tracking over locals.

NChecker's config-API and response-validity checks (paper §4.4.1, §4.4.4)
both rest on taint: taint the HTTP client object at its allocation and
collect every method invoked on a tainted alias; taint the response object
at the request call site and check that validity checks guard its uses.

:class:`ForwardTaint` is a forward may-analysis whose state is the set of
tainted local names; assignments propagate taint through copies, casts,
and (configurably) through call results whose receiver/arguments are
tainted.  :func:`trace_origins` is the backward direction: walk def-use
chains through copy-like assignments back to the defining allocation or
call sites.
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..cfg.graph import CFG
from ..ir.statements import AssignStmt
from ..ir.values import (
    ArrayRef,
    CastExpr,
    FieldRef,
    InvokeExpr,
    Local,
    Value,
    locals_in,
)
from .framework import SetAnalysis
from .reaching import DefUseChains


@record(frozen=True)
class TaintPolicy:
    """Tunes how taint flows through non-copy expressions.

    * ``through_call_results`` — the result of ``x = base.m(args)`` is
      tainted when the base or any argument is tainted (needed so
      ``body = response.getBody()`` taints ``body``).
    * ``through_fields`` — loading any field of a tainted base taints the
      result (coarse heap model; matches the paper's object-level taint).
    """

    through_call_results: bool = True
    through_fields: bool = True


class ForwardTaint(SetAnalysis):
    """Forward taint over local names.

    Seeds are ``(node, local_name)`` pairs: the local becomes tainted
    *after* the given statement executes (use the def site of the value
    of interest, or ``(-1, name)`` to taint a parameter at entry).
    """

    def __init__(
        self,
        cfg: CFG,
        seeds: set[tuple[int, str]],
        policy: TaintPolicy = TaintPolicy(),
    ) -> None:
        super().__init__(cfg)
        self.policy = policy
        self._seeds_by_node: dict[int, set[str]] = {}
        self._entry_seeds: frozenset[str] = frozenset(
            name for node, name in seeds if node < 0
        )
        for node, name in seeds:
            if node >= 0:
                self._seeds_by_node.setdefault(node, set()).add(name)
        self.solve()

    def boundary(self) -> frozenset:
        return self._entry_seeds

    def _value_tainted(self, value: Value, state: frozenset) -> bool:
        if isinstance(value, Local):
            return value.name in state
        if isinstance(value, CastExpr):
            return self._value_tainted(value.value, state)
        if isinstance(value, InvokeExpr):
            if not self.policy.through_call_results:
                return False
            return any(lc.name in state for lc in locals_in(value))
        if isinstance(value, (FieldRef, ArrayRef)):
            if not self.policy.through_fields:
                return False
            return any(lc.name in state for lc in locals_in(value))
        return any(lc.name in state for lc in locals_in(value))

    def transfer(self, node: int, state: frozenset) -> frozenset:
        stmt = self.cfg.stmt(node)
        result = state
        if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Local):
            if self._value_tainted(stmt.value, state):
                result = result | {stmt.target.name}
            else:
                result = result - {stmt.target.name}
        seeded = self._seeds_by_node.get(node)
        if seeded:
            result = result | frozenset(seeded)
        return result

    def tainted_before(self, node: int) -> frozenset[str]:
        return self.state_before(node)


def trace_origins(
    cfg: CFG,
    node: int,
    local_name: str,
    defuse: Optional[DefUseChains] = None,
    max_depth: int = 64,
) -> set[int]:
    """Backward taint: definition sites the value of ``local_name`` at
    ``node`` may originate from, following copy-like assignments.

    Returns statement indices whose right-hand side is *not* a plain copy
    (allocations, invokes, field loads, constants) — i.e. the origins.
    ``-1`` denotes a method parameter.
    """
    defuse = defuse or DefUseChains(cfg)
    origins: set[int] = set()
    seen: set[tuple[int, str]] = set()
    worklist: list[tuple[int, str, int]] = [(node, local_name, 0)]
    while worklist:
        at, name, depth = worklist.pop()
        if (at, name) in seen or depth > max_depth:
            continue
        seen.add((at, name))
        for def_site in defuse.definition_sites(at, name):
            if def_site < 0:
                origins.add(-1)
                continue
            stmt = cfg.method.statements[def_site]
            assert isinstance(stmt, AssignStmt)
            value = stmt.value
            if isinstance(value, Local):
                worklist.append((def_site, value.name, depth + 1))
            elif isinstance(value, CastExpr) and isinstance(value.value, Local):
                worklist.append((def_site, value.value.name, depth + 1))
            else:
                origins.add(def_site)
    return origins
