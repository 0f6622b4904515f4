"""Parallel batch scanning (``nchecker scan --jobs N``).

One worker process per job scans whole apps independently — the natural
parallel grain, since every artifact in the store is per-APK.  Workers
return :class:`ScanPayload` objects: fully *rendered* per-app output
(report texts, JSON dicts, SARIF results already encoded as the log
writes them) rather than live analysis objects, so the parent never
re-derives anything and the bytes printed are the same whether one
process produced them or eight.

Determinism contract: :func:`fork_map` yields in input order, payload
rendering is a pure function of one app, and ``--jobs 1`` runs the
*same* payload function in-process — so the CLI output is
byte-identical across job counts, by construction.

:func:`fork_map` is a small fork pool rather than the standard
library's process-pool executor, which loads 39 modules
(``multiprocessing``, ``logging``, ``socket``, ``subprocess`` among
them) into the parent, and so into every forked worker: 2.8 MB of RSS
and about 37 ms of CPU per process.  A process that scans several apps
holds one at a time (:class:`_OneAppAtATime`).

The ``nchecker serve`` daemon reuses all of it but the loading: its
workers scan submitted text into the same payload
(:func:`render_payload`, under :func:`with_telemetry`), and both front
ends print :func:`json_chunks` and the SARIF splice of
:mod:`repro.eval.sarif` — one renderer, so the daemon's bytes are the
CLI's.  The CLI writes the pieces as they are produced (the SARIF
results through a :class:`~repro.eval.sarif.SarifSpool`, as each app's
payload lands); the daemon joins them into a body
(:func:`json_document` / :func:`sarif_document`).

:func:`scan_corpus` applies the same fan-out to the synthetic evaluation
corpus (generation is deterministic per app index, so workers regenerate
their slice instead of shipping APKs over the pipe).
"""

from __future__ import annotations

import os
import sys
from contextlib import closing, nullcontext
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Generator, Iterator, Optional, Sequence,
)

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
    want_json: bool
    want_sarif: bool
    want_stats: bool
    want_summary: bool
    #: Collect span events / a metrics snapshot for this app.  Workers
    #: install a fresh tracer/registry per task and ship the export back
    #: in the payload; the parent merges (`--trace`/`--metrics`/`--stats`
    #: /`--profile`).  A snapshot carries the app's span tree under
    #: `profile`, so it merges across the pool with the counters.
    want_trace: bool = False
    want_metrics: bool = False


@record
class ScanPayload:
    """Rendered scan output for one app (or the error that prevented it).

    Everything the CLI and the daemon print is computed here, in the
    worker, so the parent process only writes it — the key to
    byte-identical output across ``--jobs`` values and front ends.  The
    SARIF results cross the pool as text, encoded here at the indent the
    log gives them, and the parent splices them into the log.  The JSON
    part stays a dict (the daemon's job view embeds ``json_dict``), and
    the parent encodes it piece by piece.
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
    #: Finding kind values + SARIF results (``--sarif``): the results
    #: encoded as the log writes them and joined by its separator, ``""``
    #: for an app with no findings.
    sarif_kind_values: list = field(default_factory=list)
    sarif_text: str = ""
    #: Chrome trace events from this app's scan (``--trace``).
    trace_events: list = field(default_factory=list)
    #: Metrics snapshot of this app's scan (``--metrics``/``--stats``).
    metrics_snapshot: Optional[dict] = None

    @property
    def sarif_results(self) -> list:
        """The SARIF result objects in :attr:`sarif_text`, decoded."""
        import json

        return json.loads(f"[{self.sarif_text}]")


def with_telemetry(
    render: Callable[[], ScanPayload],
    *,
    trace: bool,
    metrics: bool,
) -> ScanPayload:
    """Run ``render`` under a fresh tracer/registry pair and attach what
    was asked for to its payload: the span events (``trace``), and the
    metrics snapshot with the span stream folded into its profile tree
    (``metrics``; the tree is the snapshot's only clock).

    Both front ends' workers go through here, so the telemetry of a run
    is the sum of per-app exports whichever process scanned which app.
    """
    if not (trace or metrics):
        return render()
    tracer = Tracer(enabled=True)
    with use_tracer(tracer), gc_spans(tracer), use_metrics() as registry:
        payload = render()
    if trace:
        payload.trace_events = tracer.export()
    if metrics:
        from ..obs import profile_from_events

        snapshot = registry.snapshot()
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
    from; ``name`` is the app's path (the SARIF artifact URI).  Runs in
    a ``render.payload`` span."""
    with span("render.payload"):
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
            from ..eval.sarif import encode_results

            payload.sarif_kind_values = [f.kind.value for f in result.findings]
            payload.sarif_text = encode_results(
                result.findings, Path(name).as_posix()
            )
        if want_json or want_sarif:
            return payload  # machine output modes print nothing per app
        if want_stats:
            from ..ir.metrics import app_metrics

            payload.stats_rows = list(app_metrics(apk).as_rows())
        if want_summary:
            payload.summary_counts = sorted(result.summary().items())
        else:
            payload.report_texts = [
                report.render() for report in result.reports()
            ]
        return payload


def json_chunks(payloads: Sequence[ScanPayload]) -> Iterator[str]:
    """The ``scan --json`` document in pieces, trailing newline included
    (the daemon's ``/findings`` body joins them): one piece per request,
    finding and top-level field of each app, so a writer never holds the
    whole document."""
    yield from iter_chunks([p.json_dict for p in payloads], depth=3)
    yield "\n"


def sarif_chunks(payloads: Sequence[ScanPayload]) -> Iterator[str]:
    """The log ``scan --sarif FILE`` writes, in pieces (the log's head,
    then one per app with findings), with no trailing newline (the
    daemon's ``/sarif`` body joins them): each app's ``sarif_text``
    spliced into the log."""
    from ..eval.sarif import result_pieces, sarif_log_chunks

    return sarif_log_chunks(
        [kind for p in payloads for kind in p.sarif_kind_values],
        result_pieces([p.sarif_text for p in payloads]),
    )


def json_document(payloads: Sequence[ScanPayload]) -> str:
    """:func:`json_chunks` joined."""
    return "".join(json_chunks(payloads))


def sarif_document(payloads: Sequence[ScanPayload]) -> str:
    """:func:`sarif_chunks` joined."""
    return "".join(sarif_chunks(payloads))


class _OneAppAtATime:
    """The scan sessions of the apps one process scans in turn, opened
    from one checker and held one at a time.

    The checker, and with it the library registry, serves every app:
    the registry holds no per-app state.  :meth:`release` drops the
    previous app's artifacts
    (:meth:`~repro.pipeline.artifacts.ArtifactStore.release`) before the
    next app starts, so reference counting frees that app at once and no
    collector pass is needed.  The last app is never released: the
    one-shot ``nchecker`` process leaves through ``os._exit`` without
    freeing it, and freeing the 10k-statement app costs 7-9 ms.
    """

    __slots__ = ("checker", "held")

    def __init__(self, options: NCheckerOptions) -> None:
        from ..core.checker import NChecker

        self.checker = NChecker(options=options)
        self.held = None

    def scan(self, apk: "APK") -> "ScanResult":
        """Scan ``apk`` in a fresh session (a one-shot scan's session
        cache could never hit, so it skips the cache and the content
        fingerprint it would compute), held until :meth:`release`."""
        self.held = self.checker.open_session(apk)
        return self.held.scan()

    def release(self) -> None:
        if self.held is not None:
            self.held.store.release()
            self.held = None


def _scan_payload(task: _ScanTask, apps: _OneAppAtATime) -> ScanPayload:
    """Scan one app file and render its output."""
    apps.release()
    return with_telemetry(
        lambda: _load_and_render(task, apps),
        trace=task.want_trace,
        metrics=task.want_metrics,
    )


def _load_and_render(task: _ScanTask, apps: _OneAppAtATime) -> ScanPayload:
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

    return render_payload(
        task.path,
        apk,
        apps.scan(apk),
        want_json=task.want_json,
        want_sarif=task.want_sarif,
        want_stats=task.want_stats,
        want_summary=task.want_summary,
    )


@record
class BatchScanner:
    """Fan app scans across processes with input-order-stable output.

    ``jobs <= 1`` runs the identical payload function in-process; any
    higher value forks a :func:`fork_map` pool, which yields in input
    order, so results are deterministic either way.
    """

    options: NCheckerOptions = NCheckerOptions()
    jobs: int = 1

    def scan_paths(self, paths: Sequence[str], **wants) -> list[ScanPayload]:
        """:meth:`iter_paths` as a list."""
        return list(self.iter_paths(paths, **wants))

    def iter_paths(
        self,
        paths: Sequence[str],
        *,
        want_json: bool = False,
        want_sarif: bool = False,
        want_stats: bool = False,
        want_summary: bool = False,
        want_trace: bool = False,
        want_metrics: bool = False,
        progress: Optional[Callable[[int, int, ScanPayload], None]] = None,
    ) -> Iterator[ScanPayload]:
        """Scan ``paths``, yielding each app's payload in input order as
        it lands; ``progress(done, total, payload)`` is invoked just
        before each (the heartbeat the CLI's ``--progress`` prints).
        Closing the iterator early stops and reaps the workers."""
        import importlib

        # Load what every app's scan will import before the first app,
        # so ``--jobs`` workers inherit it instead of each importing it:
        # the loader, the cache store, which every session opens
        # (imported from the first session of a one-process scan, it also
        # added about 90 KB of peak RSS on a 10k-statement app), and the
        # SARIF encoder.
        importlib.import_module("..app.loader", __package__)
        if self.options.cache_dir:
            importlib.import_module(".cachestore", __package__)
        if want_sarif:
            importlib.import_module("..eval.sarif", __package__)
        tasks = [
            _ScanTask(str(path), want_json, want_sarif,
                      want_stats, want_summary, want_trace, want_metrics)
            for path in paths
        ]
        # Built before the fork, so the workers inherit it.
        apps = _OneAppAtATime(self.options)
        payloads = self._map(lambda task: _scan_payload(task, apps), tasks)
        with closing(payloads):
            for done, payload in enumerate(payloads, 1):
                if progress is not None:
                    progress(done, len(tasks), payload)
                yield payload

    def _map(self, fn, tasks: list) -> Generator:
        if self.jobs <= 1 or len(tasks) <= 1:
            return (fn(task) for task in tasks)
        # About four chunks per worker: one pipe round trip per chunk
        # instead of per app, still small enough to balance the load
        # (285-app corpus, --jobs 2, 2-vCPU VM: less CPU in 6 of 8 runs).
        chunksize = max(1, len(tasks) // (4 * self.jobs))
        return fork_map(fn, tasks, self.jobs, chunksize)


# ---------------------------------------------------------------------------
# The fork pool
# ---------------------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A :func:`fork_map` worker ended without returning its chunk."""


class _RemoteTraceback(Exception):
    """The traceback, formatted in the worker, of an exception that a
    :func:`fork_map` worker raised: the cause of the re-raised copy."""

    def __str__(self) -> str:
        return self.args[0]


def fork_map(fn, items: list, jobs: int, chunksize: int) -> Generator:
    """``map(fn, items)`` over ``jobs`` worker processes forked from this
    one, yielded in input order.

    The workers inherit ``fn`` and ``items`` from the fork, so nothing
    about a task crosses a pipe but its chunk number (4 bytes); a worker
    answers with its chunk's results, pickled behind an 8-byte length.
    The parent gives each worker a new chunk as soon as it answers,
    keeps answers that arrive ahead of their turn as bytes, and
    unpickles each chunk when its turn comes.  An exception ``fn`` raises
    in a worker is re-raised here when its chunk's turn comes, as a
    serial ``map`` would raise it; a worker that dies without answering
    raises :class:`WorkerDied` naming its exit status.  Every worker is
    reaped on every way out: after the last chunk the workers see end of
    file and exit; on an error, on an early ``close()`` of this
    generator or on Ctrl-C (the workers ignore SIGINT) the parent kills
    them first.

    Call it from a single-threaded process (POSIX ``fork``).
    """
    import pickle
    import select

    bounds = [
        (start, min(start + chunksize, len(items)))
        for start in range(0, len(items), chunksize)
    ]
    # Whatever the parent's streams buffer would otherwise be written
    # once more by each worker.
    sys.stdout.flush()
    sys.stderr.flush()
    workers: list[_Worker] = []
    finished = False
    try:
        for _ in range(min(jobs, len(bounds))):
            workers.append(_Worker(fn, items, bounds, workers))
        poller = select.poll()
        by_fd = {}
        queued = iter(range(len(bounds)))
        for worker in workers:
            worker.send(next(queued))
            poller.register(worker.results, select.POLLIN)
            by_fd[worker.results] = worker
        early: dict[int, bytes] = {}
        for turn in range(len(bounds)):
            while turn not in early:
                for fd, _event in poller.poll():
                    worker = by_fd[fd]
                    early[worker.chunk] = worker.receive()
                    chunk = next(queued, None)
                    if chunk is None:
                        poller.unregister(fd)
                        worker.dismiss()
                    else:
                        worker.send(chunk)
            ok, value, *remote = pickle.loads(early.pop(turn))
            if not ok:
                raise value from _RemoteTraceback(remote[0])
            # Drop each result as it goes out: the consumer may be the
            # last holder.
            value.reverse()
            while value:
                yield value.pop()
        finished = True
    finally:
        for worker in workers:
            worker.reap(kill=not finished)


class _Worker:
    """One forked :func:`fork_map` worker, seen from the parent."""

    def __init__(self, fn, items: list, bounds: list, forked: list) -> None:
        orders_r, self.orders = os.pipe()
        self.results, results_w = os.pipe()
        self.chunk = -1
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (orders_r, self.orders, self.results, results_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the worker: it never returns from here
            code = 1
            try:
                for fd in (self.orders, self.results, *(
                    fd for other in forked for fd in (other.orders, other.results)
                )):
                    os.close(fd)
                _serve(fn, items, bounds, orders_r, results_w)
                code = 0
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
        os.close(orders_r)
        os.close(results_w)

    def send(self, chunk: int) -> None:
        self.chunk = chunk
        try:
            os.write(self.orders, chunk.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # it died: its results pipe reports end of file

    def receive(self) -> bytes:
        """The answer to the last chunk sent."""
        head = _read_exactly(self.results, 8)
        size = int.from_bytes(head, "little") if len(head) == 8 else -1
        body = _read_exactly(self.results, size) if size >= 0 else b""
        if len(body) != size:
            pid, self.pid = self.pid, 0
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code < 0:
                import signal

                how = f"was killed by signal {-code} ({signal.Signals(-code).name})"
            else:
                how = f"exited with status {code}"
            raise WorkerDied(f"scan worker {pid} {how} before it finished")
        return body

    def dismiss(self) -> None:
        """No more chunks: the worker reads end of file and exits."""
        os.close(self.orders)
        self.orders = -1

    def reap(self, kill: bool) -> None:
        for fd in (self.orders, self.results):
            if fd >= 0:
                os.close(fd)
        self.orders = self.results = -1
        if self.pid:
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def _serve(fn, items: list, bounds: list, orders: int, results: int) -> None:
    """A worker's loop: answer each chunk number the parent sends until
    it closes the pipe."""
    import pickle
    import signal

    # The parent answers Ctrl-C for the pool: it kills its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out = os.fdopen(results, "wb")
    while True:
        order = os.read(orders, 4)
        if not order:
            return
        start, stop = bounds[int.from_bytes(order, "little")]
        try:
            answer = pickle.dumps(
                (True, [fn(item) for item in items[start:stop]]),
                pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            import traceback

            remote = "".join(traceback.format_exception(exc))
            try:
                answer = pickle.dumps((False, exc, remote))
            except Exception:
                answer = pickle.dumps((False, RuntimeError(repr(exc)), remote))
        out.write(len(answer).to_bytes(8, "little"))
        out.write(answer)
        out.flush()


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer at end of file."""
    pieces = []
    while size:
        piece = os.read(fd, min(size, 1 << 20))
        if not piece:
            break
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


# ---------------------------------------------------------------------------
# Corpus fan-out (experiments / benchmarks)
# ---------------------------------------------------------------------------


def _scan_corpus_chunk(task) -> tuple:
    """Regenerate and scan one slice of corpus app indices, one app at a
    time; returns the ``(index, result)`` pairs plus this slice's metrics
    snapshot (or ``None`` when the caller did not ask for telemetry)."""
    profile, indices, options, collect = task
    from ..corpus.generator import CorpusGenerator

    with use_metrics() if collect else nullcontext() as registry:
        generator = CorpusGenerator(profile)
        apps = _OneAppAtATime(options)
        out = []
        for index in indices:
            apps.release()
            out.append((index, apps.scan(generator.generate_app(index)[0])))
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
    snapshot in it (generation + scan counters, summed over workers) —
    the public accounting the benchmarks and experiments assert on
    instead of reaching into store internals.  It carries no profile:
    nothing is traced, so the sweep pays no tracing.
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
        chunk_results = list(fork_map(_scan_corpus_chunk, chunks, workers, 1))
    indexed = [pair for pairs, _snap in chunk_results for pair in pairs]
    indexed.sort(key=lambda pair: pair[0])
    if collect:
        telemetry.update(
            merge_snapshots([snap for _pairs, snap in chunk_results if snap])
        )
    return [result for _index, result in indexed]
