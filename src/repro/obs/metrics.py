"""Metrics registry: counters, gauges, snapshot/merge.

Instrumented code records into the *active* registry (module-level
:func:`metrics`, swappable with :func:`set_metrics` / :func:`use_metrics`)
at the moment of each event, under dotted names —
``pass.connectivity.runs``, ``artifact.callgraph.builds``,
``dataflow.worklist_iterations`` — so one flat namespace covers every
layer of the pipeline.  Wall time is not a metric: spans
(:mod:`repro.obs.trace`) are the only clock, and their aggregated tree
(:mod:`repro.obs.profile`) rides in the snapshot under ``profile``.

The registry is process-local by design.  Parallelism is handled by the
**snapshot/merge protocol**: a :meth:`MetricsRegistry.snapshot` is a
JSON-safe dict (picklable, dumpable with ``--metrics``), and
:func:`merge_snapshots` combines any number of them — counters sum,
gauges keep the maximum, profile trees pool node for node — which is
how ``nchecker scan --jobs N`` workers ship telemetry back over the
process pool and the parent reports one merged view.  Merging is
associative and commutative over counts, so a merged ``--jobs N`` run
equals a ``--jobs 1`` run wherever the underlying quantity is
deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins; merge keeps the max)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class MetricsRegistry:
    """One process's metrics, keyed by dotted name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._lock = threading.Lock()

    # -- instrument handles (create on first use) ---------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(name, Counter())
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(name, Gauge())
        return found

    # -- convenience --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # -- reads --------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        found = self._counters.get(name)
        return found.value if found is not None else 0

    # -- snapshot / merge protocol ------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe, picklable view of every metric in this registry."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
        }


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}}


def merge_snapshots(snapshots) -> dict:
    """Merge worker snapshots: counters sum, gauges keep the max, and
    profile trees (when present) pool node for node."""
    from .profile import merge_profiles

    merged = empty_snapshot()
    profiles = []
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            merged["gauges"][name] = max(merged["gauges"].get(name, value), value)
        if snap.get("profile"):
            profiles.append(snap["profile"])
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    if profiles:
        merged["profile"] = merge_profiles(profiles)
    return merged


#: The active registry.  Always present — recording is cheap enough to
#: leave on — so library callers can read telemetry without opting in.
_ACTIVE = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The currently active registry."""
    return _ACTIVE


def set_metrics(new: MetricsRegistry) -> MetricsRegistry:
    """Install ``new`` as the active registry; returns the previous one."""
    global _ACTIVE
    old = _ACTIVE
    _ACTIVE = new
    return old


@contextmanager
def use_metrics(new: MetricsRegistry | None = None):
    """Scoped :func:`set_metrics` — yields the (fresh by default)
    registry and restores the previous one on exit."""
    new = new if new is not None else MetricsRegistry()
    old = set_metrics(new)
    try:
        yield new
    finally:
        set_metrics(old)
