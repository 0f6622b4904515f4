"""Pass-pipeline architecture: artifact store, scheduled passes, batch
scanning, incremental re-scan.

* :mod:`repro.pipeline.artifacts` — the typed per-APK artifact store
  with build-on-demand and dependency-aware invalidation;
* :mod:`repro.pipeline.passes` — pass ordering and scan planning from
  the checks' declared artifact reads;
* :mod:`repro.pipeline.scan` — scan sessions (one store per APK) and
  the session cache behind ``NChecker``;
* :mod:`repro.pipeline.batch` — the parallel batch scanner
  (``nchecker scan --jobs N``) with deterministic, input-order-stable
  output;
* :mod:`repro.pipeline.cachestore` — the opt-in persistent cross-run
  cache behind ``--cache-dir``: content addressing, codec, and the
  local-directory backend.
"""

from .artifacts import (
    ARTIFACTS,
    CALLGRAPH,
    CFG,
    DEFUSE,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    ArtifactCounters,
    ArtifactKey,
    ArtifactStore,
)
from .cachestore import CacheBackend, CacheStore, LocalDirBackend
from .passes import ScanPlan, ScheduledPass, build_plan, order_passes, resolve_reads
from .scan import ScanSession, SessionCache

__all__ = [
    "ARTIFACTS",
    "CacheBackend",
    "CacheStore",
    "LocalDirBackend",
    "ArtifactCounters",
    "ArtifactKey",
    "ArtifactStore",
    "CALLGRAPH",
    "CFG",
    "DEFUSE",
    "ICC_MODEL",
    "REQUESTS",
    "RETRY_LOOPS",
    "SUMMARIES",
    "ScanPlan",
    "ScanSession",
    "ScheduledPass",
    "SessionCache",
    "build_plan",
    "order_passes",
    "resolve_reads",
]
