"""Parallel batch scanning (``nchecker scan --jobs N``).

One worker process per job scans whole apps independently — the natural
parallel grain, since every artifact in the store is per-APK.  Workers
return :class:`ScanPayload` objects: fully *rendered* per-app output
(report texts, JSON dicts, SARIF result objects) rather than live
analysis objects, so the parent never re-derives anything and the bytes
printed are the same whether one process produced them or eight.

Determinism contract: ``ProcessPoolExecutor.map`` preserves input order,
payload rendering is a pure function of one app, and ``--jobs 1`` runs
the *same* payload function in-process — so the CLI output is
byte-identical across job counts, by construction.

:func:`scan_corpus` applies the same fan-out to the synthetic evaluation
corpus (generation is deterministic per app index, so workers regenerate
their slice instead of shipping APKs over the pipe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..core.checker import NCheckerOptions
from ..obs import MetricsRegistry, Tracer, set_metrics, set_tracer, span

if TYPE_CHECKING:
    from ..core.checker import ScanResult
    from ..corpus.profiles import CorpusProfile


@dataclass(frozen=True)
class _ScanTask:
    """Picklable work order for one app file."""

    path: str
    options: NCheckerOptions
    want_json: bool
    want_sarif: bool
    want_stats: bool
    want_summary: bool
    #: Collect span events / a metrics snapshot for this app.  Workers
    #: install a fresh tracer/registry per task and ship the export back
    #: in the payload; the parent merges (`--trace`/`--metrics`/`--stats`).
    want_trace: bool = False
    want_metrics: bool = False
    #: Also fold this app's span stream into an aggregated profile tree
    #: (`--profile`; rides on the metrics snapshot so it merges across
    #: the pool with everything else).
    want_profile: bool = False


@dataclass
class ScanPayload:
    """Rendered scan output for one app (or the error that prevented it).

    Everything the CLI prints is pre-rendered here, in the worker, so the
    parent process only concatenates strings — the key to byte-identical
    output across ``--jobs`` values.
    """

    path: str
    ok: bool
    error: str = ""
    package: str = ""
    n_findings: int = 0
    n_requests: int = 0
    #: ``(label, value)`` rows from ``app_metrics`` (``--stats``).
    stats_rows: list = field(default_factory=list)
    #: Sorted ``(kind, count)`` pairs (``--summary``).
    summary_counts: list = field(default_factory=list)
    #: Rendered §4.6 warning reports (default output mode).
    report_texts: list = field(default_factory=list)
    #: ``ScanResult.to_dict()`` (``--json``).
    json_dict: Optional[dict] = None
    #: Finding kind values + SARIF result objects (``--sarif``).
    sarif_kind_values: list = field(default_factory=list)
    sarif_results: list = field(default_factory=list)
    #: Chrome trace events from this app's scan (``--trace``).
    trace_events: list = field(default_factory=list)
    #: Metrics snapshot of this app's scan (``--metrics``/``--stats``).
    metrics_snapshot: Optional[dict] = None


def _scan_payload(task: _ScanTask) -> ScanPayload:
    """Scan one app file and render its output (module-level so it can be
    dispatched to a worker process).

    When the task asks for telemetry, a fresh tracer/registry pair is
    installed for the duration of the scan and its export travels back in
    the payload — the parent merges across workers, so the telemetry of a
    ``--jobs N`` run is the sum of per-app snapshots regardless of which
    process scanned which app.
    """
    if not (task.want_trace or task.want_metrics or task.want_profile):
        return _render_payload(task)
    # Profiling needs the span stream, so it enables the tracer even
    # when no --trace file was asked for.
    trace = Tracer(enabled=task.want_trace or task.want_profile)
    registry = MetricsRegistry()
    old_tracer = set_tracer(trace)
    old_metrics = set_metrics(registry)
    try:
        payload = _render_payload(task)
    finally:
        set_tracer(old_tracer)
        set_metrics(old_metrics)
    if task.want_trace:
        payload.trace_events = trace.export()
    if task.want_metrics or task.want_profile:
        snapshot = registry.snapshot()
        if task.want_profile:
            from ..obs import profile_from_events

            snapshot["profile"] = profile_from_events(trace.export())
        payload.metrics_snapshot = snapshot
    return payload


def _render_payload(task: _ScanTask) -> ScanPayload:
    from ..app.loader import load_apk
    from ..ir.parser import ParseError

    try:
        with span("load", path=task.path):
            apk = load_apk(task.path)
    except FileNotFoundError:
        return ScanPayload(task.path, ok=False,
                           error=f"error: no such file: {task.path}")
    except (ParseError, ValueError) as exc:
        return ScanPayload(task.path, ok=False,
                           error=f"error: {task.path}: {exc}")

    from ..core.checker import NChecker

    # A throwaway checker's session cache could never hit, so skip it
    # (and the content fingerprint it would compute).
    result = NChecker(options=task.options).open_session(apk).scan()
    payload = ScanPayload(
        task.path,
        ok=True,
        package=apk.package,
        n_findings=len(result.findings),
        n_requests=len(result.requests),
    )
    if task.want_json:
        payload.json_dict = result.to_dict()
    if task.want_sarif:
        from ..eval.sarif import finding_result

        uri = Path(task.path).as_posix()
        payload.sarif_kind_values = [f.kind.value for f in result.findings]
        payload.sarif_results = [finding_result(f, uri) for f in result.findings]
    if task.want_json or task.want_sarif:
        return payload  # machine output modes print nothing per app
    if task.want_stats:
        from ..ir.metrics import app_metrics

        payload.stats_rows = list(app_metrics(apk).as_rows())
    if task.want_summary:
        payload.summary_counts = sorted(result.summary().items())
    else:
        payload.report_texts = [report.render() for report in result.reports()]
    return payload


@dataclass
class BatchScanner:
    """Fan app scans across processes with input-order-stable output.

    ``jobs <= 1`` runs the identical payload function in-process; any
    higher value uses a ``ProcessPoolExecutor`` whose ``map`` preserves
    input order, so results are deterministic either way.
    """

    options: NCheckerOptions = NCheckerOptions()
    jobs: int = 1

    def scan_paths(
        self,
        paths: Sequence[str],
        *,
        want_json: bool = False,
        want_sarif: bool = False,
        want_stats: bool = False,
        want_summary: bool = False,
        want_trace: bool = False,
        want_metrics: bool = False,
        want_profile: bool = False,
        progress: Optional[Callable[[int, int, ScanPayload], None]] = None,
    ) -> list[ScanPayload]:
        """Scan ``paths``; ``progress(done, total, payload)`` is invoked
        as each app's payload lands (in input order — the heartbeat the
        CLI's ``--progress`` prints)."""
        tasks = [
            _ScanTask(str(path), self.options, want_json, want_sarif,
                      want_stats, want_summary, want_trace, want_metrics,
                      want_profile)
            for path in paths
        ]
        return self._map(_scan_payload, tasks, progress)

    def _map(self, fn, tasks: list, progress=None) -> list:
        if self.jobs <= 1 or len(tasks) <= 1:
            payloads = []
            for task in tasks:
                payloads.append(fn(task))
                if progress is not None:
                    progress(len(payloads), len(tasks), payloads[-1])
            return payloads
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks))) as pool:
            payloads = []
            for payload in pool.map(fn, tasks):
                payloads.append(payload)
                if progress is not None:
                    progress(len(payloads), len(tasks), payload)
            return payloads


# ---------------------------------------------------------------------------
# Corpus fan-out (experiments / benchmarks)
# ---------------------------------------------------------------------------


def _scan_corpus_chunk(task) -> tuple:
    """Regenerate and scan one slice of corpus app indices; returns the
    ``(index, result)`` pairs plus this worker's metrics snapshot (or
    ``None`` when the caller did not ask for telemetry)."""
    profile, indices, options, collect = task
    from ..core.checker import NChecker
    from ..corpus.generator import CorpusGenerator

    registry = MetricsRegistry() if collect else None
    old = set_metrics(registry) if collect else None
    try:
        generator = CorpusGenerator(profile)
        checker = NChecker(options=options)
        out = []
        for index in indices:
            apk, _truth = generator.generate_app(index)
            out.append((index, checker.scan(apk)))
    finally:
        if collect:
            set_metrics(old)
    return out, registry.snapshot() if collect else None


def scan_corpus(
    profile: "CorpusProfile",
    n_apps: int,
    jobs: int = 1,
    options: NCheckerOptions = NCheckerOptions(),
    telemetry: Optional[dict] = None,
) -> "list[ScanResult]":
    """Scan the synthetic corpus, optionally across worker processes.

    Returns results in app-index order regardless of ``jobs`` (generation
    is deterministic per index, so workers regenerate their own slice and
    the parent just reorders).

    Pass a dict as ``telemetry`` to receive the run's merged metrics
    snapshot in it (generation + scan counters and timings, summed over
    workers) — the public accounting the benchmarks and experiments
    assert on instead of reaching into store internals.
    """
    from ..obs import merge_snapshots, use_metrics

    profile = profile.scaled(n_apps)
    collect = telemetry is not None
    if jobs <= 1 or n_apps <= 1:
        from ..core.checker import NChecker
        from ..corpus.generator import CorpusGenerator

        if collect:
            with use_metrics() as registry:
                generator = CorpusGenerator(profile)
                checker = NChecker(options=options)
                results = [checker.scan(apk) for apk, _ in generator.iter_apps()]
            telemetry.update(merge_snapshots([registry.snapshot()]))
            return results
        generator = CorpusGenerator(profile)
        checker = NChecker(options=options)
        return [checker.scan(apk) for apk, _ in generator.iter_apps()]
    workers = min(jobs, n_apps)
    # Round-robin slices balance the load; the final sort restores input
    # order.
    chunks = [
        (profile, tuple(range(start, n_apps, workers)), options, collect)
        for start in range(workers)
    ]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk_results = list(pool.map(_scan_corpus_chunk, chunks))
    indexed = [pair for pairs, _snap in chunk_results for pair in pairs]
    indexed.sort(key=lambda pair: pair[0])
    if collect:
        telemetry.update(
            merge_snapshots([snap for _pairs, snap in chunk_results if snap])
        )
    return [result for _index, result in indexed]
