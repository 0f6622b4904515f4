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

The ``nchecker serve`` daemon reuses all of it but the loading: its
workers scan submitted text into the same payload
(:func:`render_payload`, under :func:`with_telemetry`), and both front
ends print :func:`json_chunks` / :func:`sarif_chunks` — one renderer, so
the daemon's bytes are the CLI's.  The CLI writes those pieces as they
are produced; the daemon joins them into a body
(:func:`json_document` / :func:`sarif_document`).

:func:`scan_corpus` applies the same fan-out to the synthetic evaluation
corpus (generation is deterministic per app index, so workers regenerate
their slice instead of shipping APKs over the pipe).
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .._jsonwriter import iter_chunks
from .._record import field, record
from ..core.checker import NCheckerOptions
from ..obs import Tracer, gc_spans, span, use_metrics, use_tracer

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..core.checker import ScanResult
    from ..corpus.profiles import CorpusProfile


@record(frozen=True)
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


@record
class ScanPayload:
    """Rendered scan output for one app (or the error that prevented it).

    Everything the CLI and the daemon print is computed here, in the
    worker, so the parent process only encodes and writes it — the key
    to byte-identical output across ``--jobs`` values and front ends.
    The JSON and SARIF parts stay dicts (the daemon's job view embeds
    ``json_dict``); the parent encodes them piece by piece.
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


def with_telemetry(
    render: Callable[[], ScanPayload],
    *,
    trace: bool,
    metrics: bool,
    profile: bool,
) -> ScanPayload:
    """Run ``render`` under a fresh tracer/registry pair and attach what
    was asked for to its payload: the span events (``trace``), the
    metrics snapshot (``metrics``), and the profile tree folded into
    that snapshot (``profile``).

    Both front ends' workers go through here, so the telemetry of a run
    is the sum of per-app exports whichever process scanned which app.
    """
    if not (trace or metrics or profile):
        return render()
    # Profiling needs the span stream, so it enables the tracer even
    # when no trace was asked for.
    tracer = Tracer(enabled=trace or profile)
    with use_tracer(tracer), gc_spans(tracer), use_metrics() as registry:
        payload = render()
    if trace:
        payload.trace_events = tracer.export()
    if metrics or profile:
        snapshot = registry.snapshot()
        if profile:
            from ..obs import profile_from_events

            snapshot["profile"] = profile_from_events(tracer.export())
        payload.metrics_snapshot = snapshot
    return payload


def render_payload(
    name: str,
    apk: "APK",
    result: "ScanResult",
    *,
    want_json: bool = False,
    want_sarif: bool = False,
    want_stats: bool = False,
    want_summary: bool = False,
) -> ScanPayload:
    """Render one scanned app into the payload every front end prints
    from; ``name`` is the app's path (the SARIF artifact URI)."""
    payload = ScanPayload(
        name,
        ok=True,
        package=apk.package,
        n_findings=len(result.findings),
        n_requests=len(result.requests),
    )
    if want_json:
        payload.json_dict = result.to_dict()
    if want_sarif:
        from ..eval.sarif import finding_result

        uri = Path(name).as_posix()
        payload.sarif_kind_values = [f.kind.value for f in result.findings]
        payload.sarif_results = [finding_result(f, uri) for f in result.findings]
    if want_json or want_sarif:
        return payload  # machine output modes print nothing per app
    if want_stats:
        from ..ir.metrics import app_metrics

        payload.stats_rows = list(app_metrics(apk).as_rows())
    if want_summary:
        payload.summary_counts = sorted(result.summary().items())
    else:
        payload.report_texts = [report.render() for report in result.reports()]
    return payload


def json_chunks(payloads: Sequence[ScanPayload]) -> Iterator[str]:
    """The ``scan --json`` document in pieces, trailing newline included
    (the daemon's ``/findings`` body joins them): one piece per request,
    finding and top-level field of each app, so a writer never holds the
    whole document."""
    yield from iter_chunks([p.json_dict for p in payloads], depth=3)
    yield "\n"


def sarif_chunks(payloads: Sequence[ScanPayload]) -> Iterator[str]:
    """The log ``scan --sarif FILE`` writes, in pieces (one per SARIF
    result), with no trailing newline (the daemon's ``/sarif`` body
    joins them)."""
    from ..eval.sarif import assemble_sarif_log

    sarif_log = assemble_sarif_log(
        [kind for p in payloads for kind in p.sarif_kind_values],
        [result for p in payloads for result in p.sarif_results],
    )
    # log -> runs -> run -> results -> one piece per result
    yield from iter_chunks(sarif_log, depth=4)


def json_document(payloads: Sequence[ScanPayload]) -> str:
    """:func:`json_chunks` joined."""
    return "".join(json_chunks(payloads))


def sarif_document(payloads: Sequence[ScanPayload]) -> str:
    """:func:`sarif_chunks` joined."""
    return "".join(sarif_chunks(payloads))


def _scan_payload(task: _ScanTask) -> ScanPayload:
    """Scan one app file and render its output (module-level so it can be
    dispatched to a worker process)."""
    return with_telemetry(
        lambda: _load_and_render(task),
        trace=task.want_trace,
        metrics=task.want_metrics,
        profile=task.want_profile,
    )


def _load_and_render(task: _ScanTask) -> ScanPayload:
    from ..app.loader import load_apk
    from ..ir.parser import ParseError

    try:
        with span("load", path=task.path):
            apk = load_apk(task.path)
    except FileNotFoundError:
        return ScanPayload(task.path, ok=False,
                           error=f"error: no such file: {task.path}")
    except OSError as exc:
        return ScanPayload(task.path, ok=False,
                           error=f"error: {task.path}: {exc.strerror}")
    except (ParseError, ValueError) as exc:
        return ScanPayload(task.path, ok=False,
                           error=f"error: {task.path}: {exc}")

    from ..core.checker import NChecker

    # A throwaway checker's session cache could never hit, so skip it
    # (and the content fingerprint it would compute).
    result = NChecker(options=task.options).open_session(apk).scan()
    return render_payload(
        task.path,
        apk,
        result,
        want_json=task.want_json,
        want_sarif=task.want_sarif,
        want_stats=task.want_stats,
        want_summary=task.want_summary,
    )


@record
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

        # About four chunks per worker: one pipe round trip per chunk
        # instead of per app, still small enough to balance the load
        # (285-app corpus, --jobs 2, 2-vCPU VM: less CPU in 6 of 8 runs).
        chunksize = max(1, len(tasks) // (4 * self.jobs))
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks))) as pool:
            payloads = []
            for payload in pool.map(fn, tasks, chunksize=chunksize):
                payloads.append(payload)
                if progress is not None:
                    progress(len(payloads), len(tasks), payload)
            return payloads


# ---------------------------------------------------------------------------
# Corpus fan-out (experiments / benchmarks)
# ---------------------------------------------------------------------------


def _scan_corpus_chunk(task) -> tuple:
    """Regenerate and scan one slice of corpus app indices; returns the
    ``(index, result)`` pairs plus this slice's metrics snapshot (or
    ``None`` when the caller did not ask for telemetry)."""
    profile, indices, options, collect = task
    from ..core.checker import NChecker
    from ..corpus.generator import CorpusGenerator

    with use_metrics() if collect else nullcontext() as registry:
        generator = CorpusGenerator(profile)
        checker = NChecker(options=options)
        out = [
            (index, checker.scan(generator.generate_app(index)[0]))
            for index in indices
        ]
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
    from ..obs import merge_snapshots

    profile = profile.scaled(n_apps)
    collect = telemetry is not None
    workers = max(1, min(jobs, n_apps))
    # Round-robin slices balance the load; the final sort restores input
    # order.
    chunks = [
        (profile, tuple(range(start, n_apps, workers)), options, collect)
        for start in range(workers)
    ]
    if workers == 1:
        chunk_results = [_scan_corpus_chunk(chunks[0])]
    else:
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
