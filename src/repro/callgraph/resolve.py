"""Local value origin resolution (allocation-site class recovery).

The call-graph builder and several checks need to answer: *what class of
object does this local hold?*  E.g. at ``task.execute()`` we must find the
``new MyTask()`` allocation to wire the AsyncTask pseudo-edges, and at
``queue.add(req)`` we must find the request's allocation to discover its
listeners.  This is intraprocedural allocation-site analysis on top of
:func:`repro.dataflow.taint.trace_origins`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dataflow.taint import trace_origins
from ..ir.method import IRMethod
from ..ir.statements import AssignStmt
from ..ir.values import FieldRef, InvokeExpr, Local, NewExpr

if TYPE_CHECKING:
    from ..pipeline.artifacts import ArtifactStore


def origin_classes(
    method: IRMethod,
    node: int,
    local: Local,
    cache: "ArtifactStore",
    field_types: Optional[dict[tuple[str, str], str]] = None,
) -> set[str]:
    """Classes the object in ``local`` at statement ``node`` may be an
    instance of, judged by reachable allocation sites.

    Field loads are resolved through ``field_types`` — a map from
    ``(class, field)`` to the class of objects stored there, built by a
    cheap whole-app pre-pass (see :func:`collect_field_types`).  Unknown
    origins yield nothing (the paper's analysis is similarly best-effort
    and reports inter-component flows as a limitation).
    """
    cfg = cache.cfg(method)
    defuse = cache.defuse(method)
    classes: set[str] = set()
    for origin in trace_origins(cfg, node, local.name, defuse):
        if origin < 0:
            param_local = _param_at(method, local.name)
            if param_local is not None and param_local.type_hint:
                classes.add(param_local.type_hint)
            continue
        stmt = method.statements[origin]
        if not isinstance(stmt, AssignStmt):
            continue
        value = stmt.value
        if isinstance(value, NewExpr):
            classes.add(value.class_name)
        elif isinstance(value, FieldRef) and field_types is not None:
            stored = field_types.get((value.sig.class_name, value.sig.name))
            if stored is not None:
                classes.add(stored)
        elif isinstance(value, InvokeExpr):
            if value.sig.return_type not in ("void", "java.lang.Object", "?"):
                classes.add(value.sig.return_type)
    return classes


def _param_at(method: IRMethod, name: str) -> Optional[Local]:
    for param in method.params:
        if param.name == name:
            return param
    if name == "this":
        return Local("this", method.class_name)
    return None


def collect_field_types(methods: list[IRMethod]) -> dict[tuple[str, str], str]:
    """Whole-app pre-pass mapping fields to the classes stored into them.

    Only direct ``field = new C()``-shaped stores are tracked; conflicting
    stores drop the entry (unknown).
    """
    field_types: dict[tuple[str, str], Optional[str]] = {}
    for method in methods:
        allocated: dict[str, str] = {}
        for stmt in method.statements:
            if not isinstance(stmt, AssignStmt):
                continue
            if isinstance(stmt.target, Local) and isinstance(stmt.value, NewExpr):
                allocated[stmt.target.name] = stmt.value.class_name
            elif isinstance(stmt.target, FieldRef) and isinstance(stmt.value, Local):
                key = (stmt.target.sig.class_name, stmt.target.sig.name)
                stored = allocated.get(stmt.value.name)
                if stored is None:
                    field_types[key] = None
                elif key not in field_types:
                    field_types[key] = stored
                elif field_types[key] != stored:
                    field_types[key] = None
    return {key: cls for key, cls in field_types.items() if cls is not None}
