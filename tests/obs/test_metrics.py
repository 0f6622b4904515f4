"""Metrics registry: instruments, snapshots, and the merge protocol."""

import json
import pickle

import pytest

from repro.obs import (
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    metrics,
    use_metrics,
)
from repro.obs.metrics import Histogram, percentile


class TestInstruments:
    def test_counter(self):
        r = MetricsRegistry()
        r.inc("a")
        r.inc("a", 4)
        assert r.counter_value("a") == 5
        assert r.counter_value("missing") == 0

    def test_gauge(self):
        r = MetricsRegistry()
        r.set_gauge("g", 3.5)
        r.set_gauge("g", 2.0)  # last write wins
        assert r.snapshot()["gauges"] == {"g": 2.0}

    def test_histogram_exact_fields(self):
        r = MetricsRegistry()
        for v in (1.0, 2.0, 3.0, 10.0):
            r.observe("h", v)
        h = r.histogram("h")
        assert h.count == 4
        assert h.total == 16.0
        assert h.max == 10.0

    def test_timer_records_milliseconds(self):
        r = MetricsRegistry()
        with r.timer("t.wall_ms"):
            pass
        h = r.histogram("t.wall_ms")
        assert h.count == 1
        assert 0.0 <= h.max < 1000.0

    def test_same_name_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.gauge("x") is r.gauge("x")
        assert r.histogram("x") is r.histogram("x")


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 100) == 100.0

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 95) == 7.0


class TestHistogramReservoir:
    def test_decimation_keeps_exact_count_total_max(self):
        h = Histogram()
        n = Histogram.CAP * 3
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert h.total == sum(float(v) for v in range(n))
        assert h.max == float(n - 1)
        assert len(h.values) <= Histogram.CAP

    def test_percentiles_stay_plausible_after_decimation(self):
        h = Histogram()
        n = Histogram.CAP * 2
        for v in range(n):
            h.observe(float(v))
        # Decimation keeps the tail at full rate, so on a monotone stream
        # percentiles skew recent — but must stay ordered and in range.
        assert 0.0 <= h.percentile(50) <= h.percentile(95) <= h.max
        assert h.percentile(50) >= percentile(
            [float(v) for v in range(n)], 50
        )


class TestSnapshot:
    def test_snapshot_is_json_safe_and_picklable(self):
        r = MetricsRegistry()
        r.inc("c", 2)
        r.set_gauge("g", 1.5)
        r.observe("h", 4.0)
        snap = r.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        hist = snap["histograms"]["h"]
        assert hist["count"] == 1
        assert hist["p50"] == hist["p95"] == hist["p99"] == hist["max"] == 4.0

    def test_snapshot_exposes_decimation_factor(self):
        r = MetricsRegistry()
        r.observe("small", 1.0)
        assert r.snapshot()["histograms"]["small"]["decimation"] == 1
        for v in range(Histogram.CAP * 3):
            r.observe("big", float(v))
        big = r.snapshot()["histograms"]["big"]
        assert big["decimation"] > 1  # reservoir halved at least once
        assert big["count"] == Histogram.CAP * 3  # exact fields stay exact

    def test_snapshot_keys_are_sorted(self):
        r = MetricsRegistry()
        r.inc("b")
        r.inc("a")
        assert list(r.snapshot()["counters"]) == ["a", "b"]

    def test_empty_snapshot_shape(self):
        assert empty_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestMerge:
    def _registry(self, counter, gauge, samples):
        r = MetricsRegistry()
        r.inc("c", counter)
        r.set_gauge("g", gauge)
        for v in samples:
            r.observe("h", v)
        return r

    def test_counters_sum_gauges_max_histograms_pool(self):
        a = self._registry(2, 5.0, [1.0, 2.0])
        b = self._registry(3, 4.0, [3.0])
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 5.0
        hist = merged["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["total"] == 6.0
        assert hist["max"] == 3.0
        assert hist["p50"] == 2.0

    def test_merge_is_order_independent_on_deterministic_fields(self):
        snaps = [self._registry(i, float(i), [float(i)]).snapshot()
                 for i in range(1, 5)]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert forward["counters"] == backward["counters"]
        assert forward["gauges"] == backward["gauges"]
        for name in forward["histograms"]:
            for key in ("count", "total", "max"):
                assert (forward["histograms"][name][key]
                        == backward["histograms"][name][key])

    def test_merge_skips_empty_and_none(self):
        a = self._registry(1, 1.0, [1.0])
        merged = merge_snapshots([None, {}, a.snapshot(), empty_snapshot()])
        assert merged["counters"] == {"c": 1}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == empty_snapshot()

    def test_disjoint_key_sets_union(self):
        a = MetricsRegistry()
        a.inc("only.a")
        a.observe("hist.a", 1.0)
        b = MetricsRegistry()
        b.inc("only.b", 2)
        b.set_gauge("gauge.b", 4.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"only.a": 1, "only.b": 2}
        assert merged["gauges"] == {"gauge.b": 4.0}
        assert merged["histograms"]["hist.a"]["count"] == 1

    def test_merge_of_one_is_identity_on_deterministic_fields(self):
        snap = self._registry(3, 2.0, [1.0, 2.0, 3.0]).snapshot()
        merged = merge_snapshots([snap])
        assert merged["counters"] == snap["counters"]
        assert merged["gauges"] == snap["gauges"]
        for key in ("count", "total", "max", "decimation"):
            assert (merged["histograms"]["h"][key]
                    == snap["histograms"]["h"][key])

    def test_self_merge_doubles_counters_keeps_gauges_and_max(self):
        snap = self._registry(3, 2.0, [1.0, 5.0]).snapshot()
        merged = merge_snapshots([snap, snap])
        assert merged["counters"]["c"] == 6
        assert merged["gauges"]["g"] == 2.0  # max of equals
        hist = merged["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["max"] == 5.0

    def test_profile_trees_pool_through_the_snapshot_merge(self):
        # A worker snapshot may carry a `profile` forest; merging must
        # pool the trees with everything else, associatively.  Whole-ms
        # durations keep float sums binary-exact, so == is safe.
        def snap(ms):
            from repro.obs import profile_from_events

            s = self._registry(1, 1.0, [1.0]).snapshot()
            s["profile"] = profile_from_events([
                {"name": "scan", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                {"name": "scan", "ph": "E", "ts": ms * 1000,
                 "pid": 1, "tid": 1},
            ])
            return s

        snaps = [snap(ms) for ms in (1, 2, 4)]
        left = merge_snapshots([merge_snapshots(snaps[:2]), snaps[2]])
        flat = merge_snapshots(snaps)
        assert left["profile"] == flat["profile"]
        assert flat["profile"]["scan"]["count"] == 3
        assert flat["profile"]["scan"]["cum_ms"] == 7.0
        # A profile-less snapshot in the pool neither crashes nor zeroes
        # the merged tree.
        mixed = merge_snapshots([snaps[0], self._registry(1, 1.0, []).snapshot()])
        assert mixed["profile"]["scan"]["count"] == 1
        # No input carried a profile -> the merged snapshot has none.
        plain = merge_snapshots([self._registry(1, 1.0, []).snapshot()])
        assert "profile" not in plain

    def test_merged_equals_single_run(self):
        """The protocol's core promise: splitting deterministic work
        across registries and merging equals recording it all in one."""
        whole = self._registry(10, 3.0, [float(v) for v in range(10)])
        parts = [
            self._registry(4, 3.0, [0.0, 1.0, 2.0, 3.0]),
            self._registry(6, 2.0, [float(v) for v in range(4, 10)]),
        ]
        merged = merge_snapshots([p.snapshot() for p in parts])
        single = whole.snapshot()
        assert merged["counters"] == single["counters"]
        hist, ref = merged["histograms"]["h"], single["histograms"]["h"]
        assert hist["count"] == ref["count"]
        assert hist["total"] == ref["total"]
        assert hist["max"] == ref["max"]
        assert sorted(hist["values"]) == sorted(ref["values"])


class TestActiveRegistry:
    def test_use_metrics_installs_and_restores(self):
        before = metrics()
        with use_metrics() as fresh:
            assert metrics() is fresh
            assert fresh is not before
            metrics().inc("scoped")
            assert fresh.counter_value("scoped") == 1
        assert metrics() is before
        assert before.counter_value("scoped") == 0

    def test_use_metrics_accepts_existing_registry(self):
        mine = MetricsRegistry()
        with use_metrics(mine) as active:
            assert active is mine

    def test_use_metrics_restores_on_error(self):
        before = metrics()
        with pytest.raises(RuntimeError):
            with use_metrics():
                raise RuntimeError("boom")
        assert metrics() is before
