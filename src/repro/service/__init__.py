"""Scan-as-a-service: the ``nchecker serve`` daemon.

A long-lived asyncio HTTP/JSON daemon that accepts APK submissions,
runs them on a persistent worker-process pool (each worker keeps its
``NChecker`` session cache warm across requests), and serves results as
findings JSON or SARIF.  The module split mirrors the concerns:

* :mod:`~repro.service.http` — a dependency-free asyncio HTTP/1.1
  server core (request parsing, response writing, JSON helpers);
* :mod:`~repro.service.jobs` — the in-memory job table
  (``queued → running → done|failed``) behind ``/v1/scans``;
* :mod:`~repro.service.worker` — the scan function dispatched to the
  pool; it returns the batch scanner's ``ScanPayload``, and the daemon
  prints it through the same renderer as ``nchecker scan``;
* :mod:`~repro.service.daemon` — :class:`ScanService`: routing,
  admission control (the queue bound), the worker pool, and
  ``/healthz`` + ``/metrics``.

The HTTP API, deployment notes, and a curl quickstart live in
``docs/SERVICE.md``.
"""

from .daemon import ScanService, ServiceConfig, serve, start_in_thread
from .http import Request, Response, json_response
from .jobs import Job, JobStore
from .worker import execute_scan

__all__ = [
    "Job",
    "JobStore",
    "Request",
    "Response",
    "ScanService",
    "ServiceConfig",
    "execute_scan",
    "json_response",
    "serve",
    "start_in_thread",
]
