"""Observability: structured tracing, metrics, profiles, and run records.

The telemetry subsystem behind ``nchecker scan --trace/--metrics/--stats
/--profile/--progress`` and ``nchecker bench gate`` (see
``docs/OBSERVABILITY.md`` and ``docs/BENCHMARKS.md``):

* :mod:`repro.obs.trace` — span-based tracer (context-manager API,
  near-zero overhead when disabled) with Chrome trace-event export;
* :mod:`repro.obs.metrics` — counters / gauges with a serializable
  snapshot/merge protocol for process-pool workers;
* :mod:`repro.obs.profile` — folds the span stream into an aggregated
  self/cumulative wall-time tree (``scan --profile``), the one record
  of where time went;
* :mod:`repro.obs.events` — the run record ``scan --metrics`` writes:
  the merged snapshot plus the identity ``bench gate`` checks;
* :mod:`repro.obs.compare` — baseline/current regression comparison of
  two records (``nchecker bench gate``);
* :mod:`repro.obs.log` — the ``nchecker`` diagnostic logger tree
  (stderr-only, so machine-readable stdout stays clean);
* :mod:`repro.obs.render` — the ``--stats`` telemetry table.

Instrumented code uses the two module-level accessors: a span times a
layer, and the registry active at the event counts it::

    from ..obs import metrics, span

    with span("pass:connectivity"):
        ...
    metrics().inc("pass.connectivity.runs")
"""

from .._lazy import lazy_exports

# The logger, metrics and tracer are on every scan's path (and
# ``metrics`` names both a submodule and its accessor, so it must be
# bound eagerly); the bench/profile tooling loads on first use.
from .log import configure_logging, get_logger
from .metrics import (
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    metrics,
    set_metrics,
    use_metrics,
)
from .trace import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    gc_spans,
    set_tracer,
    span,
    tracer,
    use_tracer,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    "compare": (
        "DEFAULT_TIMING_MIN_MS",
        "DEFAULT_TIMING_THRESHOLD",
        "CompareResult",
        "compare_runs",
        "load_run",
    ),
    "events": (
        "BENCH_SCHEMA_VERSION",
        "RECORD_SCHEMA_VERSION",
        "app_set_digest",
        "git_head_sha",
        "run_record",
    ),
    "profile": (
        "flatten_profile",
        "merge_profiles",
        "profile_from_events",
        "profile_total_ms",
        "render_profile",
    ),
    "render": ("render_telemetry",),
})

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CompareResult",
    "DEFAULT_TIMING_MIN_MS",
    "DEFAULT_TIMING_THRESHOLD",
    "MetricsRegistry",
    "NULL_SPAN",
    "RECORD_SCHEMA_VERSION",
    "Tracer",
    "app_set_digest",
    "chrome_trace",
    "compare_runs",
    "configure_logging",
    "empty_snapshot",
    "flatten_profile",
    "gc_spans",
    "get_logger",
    "git_head_sha",
    "load_run",
    "merge_profiles",
    "merge_snapshots",
    "metrics",
    "profile_from_events",
    "profile_total_ms",
    "render_profile",
    "render_telemetry",
    "run_record",
    "set_metrics",
    "set_tracer",
    "span",
    "tracer",
    "use_metrics",
    "use_tracer",
]
