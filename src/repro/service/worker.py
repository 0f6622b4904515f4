"""The scan execution function the daemon dispatches to its pool.

Mirrors the contract of :mod:`repro.pipeline.batch`: a picklable task
goes over the pipe, a fully *rendered* result comes back (the JSON
dict, SARIF pieces, metrics snapshot, and span events) so the daemon
process never re-derives analysis output — the findings document a
client fetches is byte-identical to ``nchecker scan --json`` on the
same APK, by construction.

Workers are long-lived on purpose.  :func:`execute_scan` keeps one
:class:`~repro.core.checker.NChecker` per options profile in module
state, so a worker process carries its ``SessionCache`` across
requests — a resubmitted unchanged app reuses the whole artifact store
without touching disk.  Telemetry isolation still holds: every task
installs a fresh tracer/registry pair for its duration and ships the
snapshot back for the daemon to merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..core.checker import NCheckerOptions
from ..obs import (
    MetricsRegistry,
    Tracer,
    profile_from_events,
    set_metrics,
    set_tracer,
    span,
)


@dataclass(frozen=True)
class ServiceScanTask:
    """Picklable work order for one submitted app."""

    apkt_text: str
    filename: str
    options: NCheckerOptions


@dataclass
class ServiceScanResult:
    """Rendered scan output for one submission (or the error)."""

    ok: bool
    error: str = ""
    package: str = ""
    n_findings: int = 0
    n_requests: int = 0
    json_dict: Optional[dict] = None
    sarif_kind_values: list = field(default_factory=list)
    sarif_results: list = field(default_factory=list)
    metrics_snapshot: Optional[dict] = None
    trace_events: list = field(default_factory=list)


#: One warm checker per options profile, living as long as the worker
#: process — the daemon's "persistent pool" promise.  Keyed by the
#: frozen options dataclass itself.
_CHECKERS: dict = {}


def _checker_for(options: NCheckerOptions):
    from ..core.checker import NChecker

    checker = _CHECKERS.get(options)
    if checker is None:
        checker = _CHECKERS[options] = NChecker(options=options)
    return checker


def execute_scan(task: ServiceScanTask) -> ServiceScanResult:
    """Scan one submitted app text and render every output mode.

    Module-level so a ``ProcessPoolExecutor`` can dispatch it; also
    callable in-process (tests inject stub executors that do exactly
    that)."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    old_tracer = set_tracer(tracer)
    old_metrics = set_metrics(registry)
    try:
        result = _scan(task)
    finally:
        set_tracer(old_tracer)
        set_metrics(old_metrics)
    snapshot = registry.snapshot()
    snapshot["profile"] = profile_from_events(tracer.export())
    result.metrics_snapshot = snapshot
    result.trace_events = tracer.export()
    return result


def _scan(task: ServiceScanTask) -> ServiceScanResult:
    from ..app.loader import loads_apk
    from ..eval.sarif import finding_result
    from ..ir.parser import ParseError

    try:
        with span("load", path=task.filename):
            apk = loads_apk(task.apkt_text)
    except (ParseError, ValueError) as exc:
        return ServiceScanResult(
            ok=False, error=f"{task.filename}: {exc}"
        )
    result = _checker_for(task.options).scan(apk)
    uri = Path(task.filename).as_posix()
    return ServiceScanResult(
        ok=True,
        package=apk.package,
        n_findings=len(result.findings),
        n_requests=len(result.requests),
        json_dict=result.to_dict(),
        sarif_kind_values=[f.kind.value for f in result.findings],
        sarif_results=[finding_result(f, uri) for f in result.findings],
    )
