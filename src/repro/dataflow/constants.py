"""Intraprocedural constant propagation.

NChecker uses constant propagation (paper §4.4.2) to recover the values
passed to config APIs — ``setMaxRetries(n)``, ``setReadTimeout(ms)`` — so
the improper-parameter check can reason about the actual retry count or
timeout even when it flows through locals.
"""

from __future__ import annotations

from typing import Optional, Union

from ..cfg.graph import CFG
from ..ir.statements import AssignStmt
from ..ir.values import BinaryExpr, CastExpr, Const, Local, UnaryExpr, Value
from .framework import DataflowAnalysis

#: Lattice per local: missing key = unknown, TOP = conflicting, else a value.
TOP = object()
#: Whole-environment bottom: "this program point not reached yet".  Joining
#: BOTTOM with anything yields the other state, which is what makes constants
#: defined before a loop survive the loop-header join.
BOTTOM = None
ConstValue = Union[int, float, bool, str, None, object]
#: A local -> value environment, or BOTTOM.  Environments are shared
#: between program points and never mutated once a transfer returns one.
Env = Optional[dict[str, ConstValue]]


class ConstantPropagation(DataflowAnalysis[Env]):
    """Forward must-analysis mapping locals to known constant values."""

    def __init__(self, cfg: CFG) -> None:
        super().__init__(cfg)
        self.solve()

    def initial(self, node: int) -> Env:
        return BOTTOM

    def boundary(self) -> Env:
        return {}

    def join(self, states: list[Env]) -> Env:
        reached = [s for s in states if s is not BOTTOM]
        if not reached:
            return BOTTOM
        if len(reached) == 1:
            return reached[0]
        merged: dict[str, ConstValue] = dict(reached[0])
        for other in reached[1:]:
            for name in list(merged):
                if name not in other:
                    del merged[name]
                elif merged[name] is not TOP and merged[name] != other[name]:
                    merged[name] = TOP
        return merged

    def _eval(self, value: Value, env: Env) -> ConstValue:
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Local):
            found = env.get(value.name)
            return TOP if found is None else found
        if isinstance(value, CastExpr):
            return self._eval(value.value, env)
        if isinstance(value, UnaryExpr):
            operand = self._eval(value.operand, env)
            if operand is TOP:
                return TOP
            if value.op == "neg" and isinstance(operand, (int, float)):
                return -operand
            if value.op == "not" and isinstance(operand, bool):
                return not operand
            return TOP
        if isinstance(value, BinaryExpr):
            left = self._eval(value.left, env)
            right = self._eval(value.right, env)
            if left is TOP or right is TOP:
                return TOP
            try:
                return _apply_binop(value.op, left, right)
            except (TypeError, ZeroDivisionError):
                return TOP
        return TOP

    def transfer(self, node: int, state: Env) -> Env:
        if state is BOTTOM:
            return BOTTOM
        stmt = self.cfg.stmt(node)
        if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Local):
            env = dict(state)
            env[stmt.target.name] = self._eval(stmt.value, state)
            return env
        return state

    def value_before(self, node: int, local_name: str) -> Optional[ConstValue]:
        """The constant value of ``local_name`` entering statement ``node``,
        or ``None`` when unknown/unreached, or :data:`TOP` when conflicting."""
        state = self.state_before(node)
        if state is BOTTOM:
            return None
        return state.get(local_name)

    def constant_argument(self, node: int, value: Value) -> Optional[ConstValue]:
        """Resolve an invoke argument to a constant if possible."""
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Local):
            found = self.value_before(node, value.name)
            return None if found is TOP else found
        return None


def _apply_binop(op: str, left: ConstValue, right: ConstValue) -> ConstValue:
    if op == "+":
        return left + right  # type: ignore[operator]
    if op == "-":
        return left - right  # type: ignore[operator]
    if op == "*":
        return left * right  # type: ignore[operator]
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            return left // right
        return left / right  # type: ignore[operator]
    if op == "%":
        return left % right  # type: ignore[operator]
    if op == "&":
        return left & right  # type: ignore[operator]
    if op == "|":
        return left | right  # type: ignore[operator]
    if op == "^":
        return left ^ right  # type: ignore[operator]
    if op == "<<":
        return left << right  # type: ignore[operator]
    if op == ">>":
        return left >> right  # type: ignore[operator]
    if op == "cmp":
        return (left > right) - (left < right)  # type: ignore[operator]
    raise TypeError(f"unknown op {op}")
