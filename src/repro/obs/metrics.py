"""Metrics registry: counters, gauges, timing histograms, snapshot/merge.

Instrumented code records into the *active* registry (module-level
:func:`metrics`, swappable with :func:`set_metrics` / :func:`use_metrics`)
under dotted names — ``pass.connectivity.wall_ms``,
``artifact.callgraph.builds``, ``dataflow.worklist_iterations`` — so one
flat namespace covers every layer of the pipeline.

The registry is process-local by design.  Parallelism is handled by the
**snapshot/merge protocol**: a :meth:`MetricsRegistry.snapshot` is a
JSON-safe dict (picklable, dumpable with ``--metrics``), and
:func:`merge_snapshots` combines any number of them — counters sum,
gauges keep the maximum, histograms pool their samples — which is how
``nchecker scan --jobs N`` workers ship telemetry back over the process
pool and the parent reports one merged view.  Merging is associative and
commutative over the deterministic fields (counts, totals), so a merged
``--jobs N`` run equals a ``--jobs 1`` run wherever the underlying
quantity is deterministic.

Histograms keep their raw samples for p50/p95 (nearest-rank), capped at
:data:`Histogram.CAP` samples by deterministic decimation — counts,
totals and maxima stay exact; percentiles degrade gracefully.
"""

from __future__ import annotations

import threading
import time
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


class Histogram:
    """A sample distribution with exact count/total/max and approximate
    (nearest-rank over a decimated reservoir) percentiles."""

    #: Reservoir bound; beyond it every other sample is dropped.
    CAP = 2048

    __slots__ = ("count", "total", "max", "values", "decimation")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.values: list[float] = []
        #: How many observed samples one reservoir slot stands for: ``1``
        #: means percentiles are exact, each halving doubles it.  Exposed
        #: in the snapshot so consumers know when p50/p95/p99 are
        #: approximate.
        self.decimation = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.values.append(value)
        if len(self.values) > self.CAP:
            # Deterministic decimation: halve the reservoir, keep the tail
            # arriving at full rate until the next overflow.
            self.values = self.values[::2]
            self.decimation *= 2

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir (0 when empty)."""
        return percentile(self.values, p)


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(len * p / 100)
    return ordered[int(rank) - 1]


class MetricsRegistry:
    """One process's metrics, keyed by dotted name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
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

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(name, Histogram())
        return found

    # -- convenience --------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    @contextmanager
    def timer(self, name: str):
        """Time a block into the ``name`` histogram, in milliseconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, (time.perf_counter() - start) * 1000.0)

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
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "max": h.max,
                    "p50": h.percentile(50),
                    "p95": h.percentile(95),
                    "p99": h.percentile(99),
                    "decimation": h.decimation,
                    "values": list(h.values),
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots) -> dict:
    """Merge worker snapshots: counters sum, gauges keep the max,
    histograms pool samples (count/total/max exact, percentiles
    recomputed over the pooled — possibly decimated — reservoirs, the
    merged decimation factor tracking every halving), and profile trees
    (when present — ``scan --profile``) pool node-for-node."""
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
        for name, hist in snap.get("histograms", {}).items():
            into = merged["histograms"].setdefault(
                name,
                {"count": 0, "total": 0.0, "max": 0.0, "values": [],
                 "decimation": 1},
            )
            into["count"] += hist.get("count", 0)
            into["total"] += hist.get("total", 0.0)
            into["max"] = max(into["max"], hist.get("max", 0.0))
            into["decimation"] = max(
                into["decimation"], hist.get("decimation", 1)
            )
            into["values"].extend(hist.get("values", ()))
            while len(into["values"]) > Histogram.CAP:
                into["values"] = into["values"][::2]
                into["decimation"] *= 2
        if snap.get("profile"):
            profiles.append(snap["profile"])
    for hist in merged["histograms"].values():
        hist["p50"] = percentile(hist["values"], 50)
        hist["p95"] = percentile(hist["values"], 95)
        hist["p99"] = percentile(hist["values"], 99)
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
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
