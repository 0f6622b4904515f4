"""Code metrics over IR methods, classes, and whole apps.

Used by ``nchecker scan --stats`` and the scaling benchmarks: app size
(statements), call-site counts, and McCabe cyclomatic complexity (edges −
nodes + 2·components over the statement-level CFG).
"""

from __future__ import annotations

from .._record import record
from ..cfg.graph import CFG
from .method import IRMethod


@record(frozen=True)
class MethodMetrics:
    name: str
    statements: int
    invoke_sites: int
    traps: int
    cyclomatic: int


@record(frozen=True)
class AppMetrics:
    classes: int
    methods: int
    statements: int
    invoke_sites: int
    traps: int
    max_cyclomatic: int
    mean_statements_per_method: float

    def as_rows(self) -> list[list[str]]:
        return [
            ["classes", str(self.classes)],
            ["methods", str(self.methods)],
            ["statements", str(self.statements)],
            ["invoke sites", str(self.invoke_sites)],
            ["try/catch traps", str(self.traps)],
            ["max cyclomatic complexity", str(self.max_cyclomatic)],
            ["mean statements/method", f"{self.mean_statements_per_method:.1f}"],
        ]


def method_metrics(method: IRMethod) -> MethodMetrics:
    cfg = CFG(method)
    reachable = cfg.reachable_from(cfg.entry)
    edges = sum(
        1 for node in reachable for succ in cfg.succs[node] if succ in reachable
    )
    # Single connected component from the entry by construction.
    cyclomatic = edges - len(reachable) + 2
    return MethodMetrics(
        method.sig.qualified_name,
        len(method.statements),
        sum(1 for _ in method.invoke_sites()),
        len(method.traps),
        cyclomatic,
    )


def app_metrics(apk) -> AppMetrics:
    per_method = [method_metrics(m) for m in apk.methods()]
    n_methods = len(per_method)
    total_statements = sum(m.statements for m in per_method)
    return AppMetrics(
        classes=len(apk.hierarchy),
        methods=n_methods,
        statements=total_statements,
        invoke_sites=sum(m.invoke_sites for m in per_method),
        traps=sum(m.traps for m in per_method),
        max_cyclomatic=max((m.cyclomatic for m in per_method), default=0),
        mean_statements_per_method=(
            total_statements / n_methods if n_methods else 0.0
        ),
    )
