"""Scan pipeline: artifact store, scan sessions, batch scanning.

* :mod:`repro.pipeline.artifacts` — the typed per-APK artifact store
  with build-on-demand;
* :mod:`repro.pipeline.scan` — scan sessions (one store per APK, the
  enabled checks run in catalog order) and the session cache behind
  ``NChecker``;
* :mod:`repro.pipeline.batch` — the parallel batch scanner
  (``nchecker scan --jobs N``) with deterministic, input-order-stable
  output;
* :mod:`repro.pipeline.cachestore` — the opt-in persistent cross-run
  cache behind ``--cache-dir``: content addressing, codec, and the
  local-directory backend.  Its exports load on first use, so a scan
  without ``--cache-dir`` never imports it (nor ``pickle``).
"""

from .._lazy import lazy_exports
from .artifacts import (
    ARTIFACTS,
    CALLGRAPH,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    ArtifactKey,
    ArtifactStore,
)
from .scan import ScanSession, SessionCache

__getattr__, __dir__ = lazy_exports(__name__, {
    "cachestore": ("CacheStore", "LocalDirBackend"),
})

__all__ = [
    "ARTIFACTS",
    "CacheStore",
    "LocalDirBackend",
    "ArtifactKey",
    "ArtifactStore",
    "CALLGRAPH",
    "ICC_MODEL",
    "REQUESTS",
    "RETRY_LOOPS",
    "SUMMARIES",
    "ScanSession",
    "SessionCache",
]
