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

    def test_same_name_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.gauge("x") is r.gauge("x")


class TestSnapshot:
    def test_snapshot_is_json_safe_and_picklable(self):
        r = MetricsRegistry()
        r.inc("c", 2)
        r.set_gauge("g", 1.5)
        snap = r.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap == {"counters": {"c": 2}, "gauges": {"g": 1.5}}

    def test_snapshot_keys_are_sorted(self):
        r = MetricsRegistry()
        r.inc("b")
        r.inc("a")
        assert list(r.snapshot()["counters"]) == ["a", "b"]

    def test_empty_snapshot_shape(self):
        assert empty_snapshot() == {"counters": {}, "gauges": {}}


class TestMerge:
    def _registry(self, counter, gauge):
        r = MetricsRegistry()
        r.inc("c", counter)
        r.set_gauge("g", gauge)
        return r

    def test_counters_sum_gauges_keep_the_max(self):
        a = self._registry(2, 5.0)
        b = self._registry(3, 4.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged == {"counters": {"c": 5}, "gauges": {"g": 5.0}}

    def test_merge_is_order_independent_on_deterministic_fields(self):
        snaps = [self._registry(i, float(i)).snapshot() for i in range(1, 5)]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert forward == backward

    def test_merge_skips_empty_and_none(self):
        a = self._registry(1, 1.0)
        merged = merge_snapshots([None, {}, a.snapshot(), empty_snapshot()])
        assert merged["counters"] == {"c": 1}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == empty_snapshot()

    def test_disjoint_key_sets_union(self):
        a = MetricsRegistry()
        a.inc("only.a")
        b = MetricsRegistry()
        b.inc("only.b", 2)
        b.set_gauge("gauge.b", 4.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"only.a": 1, "only.b": 2}
        assert merged["gauges"] == {"gauge.b": 4.0}

    def test_merge_of_one_is_identity_on_deterministic_fields(self):
        snap = self._registry(3, 2.0).snapshot()
        assert merge_snapshots([snap]) == snap

    def test_self_merge_doubles_counters_keeps_gauges_and_max(self):
        snap = self._registry(3, 2.0).snapshot()
        merged = merge_snapshots([snap, snap])
        assert merged["counters"]["c"] == 6
        assert merged["gauges"]["g"] == 2.0  # max of equals

    def test_profile_trees_pool_through_the_snapshot_merge(self):
        # A worker snapshot may carry a `profile` forest; merging must
        # pool the trees with everything else, associatively.  Whole-ms
        # durations keep float sums binary-exact, so == is safe.
        def snap(ms):
            from repro.obs import profile_from_events

            s = self._registry(1, 1.0).snapshot()
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
        mixed = merge_snapshots([snaps[0], self._registry(1, 1.0).snapshot()])
        assert mixed["profile"]["scan"]["count"] == 1
        # No input carried a profile -> the merged snapshot has none.
        plain = merge_snapshots([self._registry(1, 1.0).snapshot()])
        assert "profile" not in plain

    def test_merged_equals_single_run(self):
        """The protocol's core promise: splitting deterministic work
        across registries and merging equals recording it all in one."""
        whole = self._registry(10, 3.0)
        parts = [self._registry(4, 3.0), self._registry(6, 2.0)]
        merged = merge_snapshots([p.snapshot() for p in parts])
        assert merged == whole.snapshot()


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
