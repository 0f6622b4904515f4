"""The ``nchecker serve`` daemon: routing, admission, workers.

:class:`ScanService` ties the service package together behind one
``async handle(Request) -> Response``:

* **Scans** — ``POST /v1/scans`` admits a submission (per-tenant token
  bucket → 429, bounded active-job queue → 503) and dispatches it to a
  persistent worker-process pool; ``GET /v1/scans/{id}`` polls status
  and results, with ``/findings`` (the exact ``scan --json`` document),
  ``/sarif``, and ``/trace`` views.
* **Introspection** — ``/healthz`` (liveness + job counts) and
  ``/metrics`` (the daemon's own registry merged with every finished
  scan's snapshot — the PR 3 snapshot/merge protocol across the pool).

Every route, schema, and error code is documented in
``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Callable, Optional

from .._record import record
from ..core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from ..obs import chrome_trace, empty_snapshot, get_logger, merge_snapshots
from ..pipeline.batch import json_document, sarif_document
from ..pipeline.cachestore import parse_size
from .http import (
    HttpServer,
    ProtocolError,
    Request,
    Response,
    error_response,
    json_response,
)
from .jobs import JobStore
from .ratelimit import RateLimiter
from .worker import execute_scan

log = get_logger("service")


@record(frozen=True)
class ServiceConfig:
    """Everything ``nchecker serve`` configures."""

    host: str = "127.0.0.1"
    #: ``0`` binds an OS-assigned free port (tests); the CLI default is
    #: 8321.
    port: int = 8321
    #: Worker processes in the scan pool.
    workers: int = 2
    #: Bound on admitted-but-unfinished jobs; beyond it submissions get
    #: 503 until the backlog drains.
    queue_depth: int = 64
    #: Sustained submissions/second allowed per tenant (token-bucket
    #: refill rate); ``0`` disables rate limiting.
    rate_limit: float = 0.0
    #: Token-bucket capacity: how large a burst passes before the
    #: sustained rate applies.
    rate_burst: int = 8
    #: The workers' persistent artifact cache directory (``None``: no
    #: cache; each worker's session cache still keeps repeat scans warm).
    cache_dir: Optional[str] = None
    extended_checks: bool = False
    #: Reject request bodies beyond this size with 413.
    max_body_bytes: int = parse_size("16M")
    #: Test hook: builds the pool from the worker count.  ``None`` means
    #: a real ``ProcessPoolExecutor``, created lazily on first scan.
    executor_factory: Optional[Callable[[int], object]] = None


class ScanService:
    """One daemon instance: HTTP server + job table + worker pool."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        from ..obs import MetricsRegistry

        self.registry = MetricsRegistry()
        self.jobs = JobStore()
        self.limiter = RateLimiter(config.rate_limit, config.rate_burst)
        self.server = HttpServer(
            self.handle, config.host, config.port, config.max_body_bytes
        )
        self._scan_metrics = empty_snapshot()
        self._executor = None
        self._stop = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.server.port}"

    def worker_options(self) -> NCheckerOptions:
        enabled = DEFAULT_CHECKS
        if self.config.extended_checks:
            enabled = DEFAULT_CHECKS | EXTENDED_CHECKS
        return NCheckerOptions(
            cache_dir=self.config.cache_dir,
            enabled_checks=enabled,
        )

    def _pool(self):
        if self._executor is None:
            if self.config.executor_factory is not None:
                self._executor = self.config.executor_factory(
                    self.config.workers
                )
            else:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # Not `fork`: the daemon runs an event loop and threads,
                # and forking a threaded process can deadlock the child.
                self._executor = ProcessPoolExecutor(
                    max_workers=self.config.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
        return self._executor

    async def start(self) -> None:
        await self.server.start()
        log.info("serving on %s (%d workers)", self.url, self.config.workers)

    async def close(self) -> None:
        await self.server.close()
        if self._executor is not None:
            # wait=True: jobs still on the pool at shutdown are scans in
            # flight; letting them finish beats tearing down their pipes
            # under them (and keeps the interpreter's atexit hooks quiet).
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def request_stop(self) -> None:
        self._stop.set()

    async def run_until_stopped(self) -> None:
        await self._stop.wait()
        await self.close()

    # -- routing -------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        self.registry.inc("service.http.requests")
        seg = request.segments
        if seg == ("healthz",) and request.method == "GET":
            return self._healthz()
        if seg == ("metrics",) and request.method == "GET":
            return json_response(self.metrics_snapshot())
        if seg[:2] == ("v1", "scans"):
            return await self._route_scans(request, seg[2:])
        return error_response(404, f"no such resource: {request.path}")

    async def _route_scans(
        self, request: Request, rest: tuple[str, ...]
    ) -> Response:
        if rest == ():
            if request.method != "POST":
                return error_response(405, "use POST to submit a scan")
            return self._submit(request)
        job = self.jobs.get(rest[0])
        if job is None:
            return error_response(404, f"no such scan: {rest[0]}")
        if request.method != "GET":
            return error_response(405, "scan resources are read-only")
        if len(rest) == 1:
            return json_response(self._job_view(job))
        if len(rest) == 2 and rest[1] in ("findings", "sarif", "trace"):
            if not job.done:
                return error_response(
                    404, f"scan {job.id} is {job.status}; results not ready"
                )
            if job.status == "failed":
                return error_response(404, f"scan {job.id} failed: {job.error}")
            return self._result_view(job, rest[1])
        return error_response(404, f"no such resource: {request.path}")

    # -- scans ---------------------------------------------------------------

    def _submit(self, request: Request) -> Response:
        tenant = request.headers.get("x-nchecker-tenant", "default")
        if not self.limiter.allow(tenant):
            retry = max(1, round(self.limiter.retry_after(tenant)))
            self.registry.inc("service.scans.rejected.rate_limited")
            return error_response(
                429,
                f"tenant {tenant!r} is over its submission rate",
                **{"Retry-After": str(retry)},
            )
        if self.jobs.active_count() >= self.config.queue_depth:
            self.registry.inc("service.scans.rejected.queue_full")
            return error_response(
                503,
                f"request queue is full ({self.config.queue_depth} active "
                f"jobs); retry later",
                **{"Retry-After": "1"},
            )
        apkt_text, filename = self._parse_submission(request)
        job = self.jobs.create(tenant, filename)
        self.registry.inc("service.scans.submitted")
        asyncio.get_running_loop().create_task(self._run_job(job, apkt_text))
        self._update_gauges()
        return json_response(
            {"id": job.id, "status": job.status, "url": f"/v1/scans/{job.id}"},
            status=202,
        )

    @staticmethod
    def _parse_submission(request: Request) -> tuple[str, str]:
        """The submitted app text and its client-side filename (the SARIF
        artifact URI): either a raw ``.apkt`` body or a JSON envelope
        ``{"apkt": ..., "filename": ...}``."""
        if not request.body:
            raise ProtocolError(400, "empty submission body")
        content_type = request.headers.get("content-type", "")
        if "json" in content_type or request.body.lstrip()[:1] == b"{":
            envelope = request.json()
            apkt_text = envelope.get("apkt")
            if not isinstance(apkt_text, str) or not apkt_text.strip():
                raise ProtocolError(400, "JSON submission needs an 'apkt' key")
            filename = envelope.get("filename", "submitted.apkt")
            if not isinstance(filename, str):
                raise ProtocolError(400, "'filename' must be a string")
            return apkt_text, filename
        try:
            return request.body.decode("utf-8"), "submitted.apkt"
        except UnicodeDecodeError:
            raise ProtocolError(400, "submission body is not UTF-8 text")

    async def _run_job(self, job, apkt_text: str) -> None:
        job.status = "running"
        self._update_gauges()
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                self._pool(), execute_scan, apkt_text, job.filename,
                self.worker_options(),
            )
        except Exception as exc:
            job.status = "failed"
            job.error = f"worker crashed: {exc}"
            self.registry.inc("service.scans.failed")
        else:
            job.payload = payload
            if payload.metrics_snapshot:
                self._scan_metrics = merge_snapshots(
                    [self._scan_metrics, payload.metrics_snapshot]
                )
            if payload.ok:
                job.status = "done"
                self.registry.inc("service.scans.completed")
            else:
                job.status = "failed"
                job.error = payload.error
                self.registry.inc("service.scans.failed")
        job.finished_at = time.time()
        self._update_gauges()

    def _job_view(self, job) -> dict:
        view = {
            "id": job.id,
            "status": job.status,
            "tenant": job.tenant,
            "filename": job.filename,
            "url": f"/v1/scans/{job.id}",
        }
        if job.status == "failed":
            view["error"] = job.error
        if job.status == "done":
            payload = job.payload
            view.update(
                package=payload.package,
                findings=payload.n_findings,
                requests=payload.n_requests,
                result=payload.json_dict,
                counters=(payload.metrics_snapshot or {}).get("counters", {}),
                links={
                    "findings": f"/v1/scans/{job.id}/findings",
                    "sarif": f"/v1/scans/{job.id}/sarif",
                    "trace": f"/v1/scans/{job.id}/trace",
                },
            )
        return view

    def _result_view(self, job, view: str) -> Response:
        # The CLI's own renderers: `scan --json` stdout and the
        # `scan --sarif FILE` contents, byte for byte.
        if view == "findings":
            return Response(200, json_document([job.payload]).encode("utf-8"))
        if view == "sarif":
            return Response(200, sarif_document([job.payload]).encode("utf-8"))
        return json_response(chrome_trace(job.payload.trace_events))

    # -- introspection -------------------------------------------------------

    def _healthz(self) -> Response:
        return json_response({
            "status": "ok",
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "jobs": self.jobs.counts(),
            "cache": self.config.cache_dir is not None,
        })

    def metrics_snapshot(self) -> dict:
        """The daemon registry merged with every finished scan's
        snapshot — one coherent view across the worker pool."""
        return merge_snapshots([self._scan_metrics, self.registry.snapshot()])

    def _update_gauges(self) -> None:
        self.registry.set_gauge("service.jobs.active", self.jobs.active_count())


# ---------------------------------------------------------------------------
# Entry points: the CLI's foreground loop and the tests' background thread.
# ---------------------------------------------------------------------------


async def serve(config: ServiceConfig) -> None:
    """Run one daemon in the current event loop until cancelled (the
    ``nchecker serve`` foreground path)."""
    service = ScanService(config)
    await service.start()
    try:
        await service.run_until_stopped()
    finally:
        await service.close()


class ServiceHandle:
    """A daemon running on a background thread (tests, benchmarks)."""

    def __init__(self, thread, loop, service) -> None:
        self._thread = thread
        self._loop = loop
        self.service = service

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.service.port}"

    def stop(self, timeout: float = 10.0) -> None:
        self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=timeout)


def start_in_thread(config: ServiceConfig) -> ServiceHandle:
    """Boot a daemon on a fresh thread + event loop; returns once the
    socket is bound (``handle.base_url`` is ready to hit)."""
    started = threading.Event()
    holder: dict = {}

    async def main() -> None:
        service = ScanService(config)
        await service.start()
        holder["service"] = service
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await service.run_until_stopped()

    def runner() -> None:
        try:
            asyncio.run(main())
        except Exception:  # pragma: no cover - surfaced via started timeout
            log.exception("service thread died")
            started.set()

    thread = threading.Thread(
        target=runner, name="nchecker-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30) or "service" not in holder:
        raise RuntimeError("service failed to start; see log")
    return ServiceHandle(thread, holder["loop"], holder["service"])
