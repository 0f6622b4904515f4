"""Regression comparison: the rules `bench gate` applies to two recorded
runs."""

import copy
import json

import pytest

from repro.core.checker import NCheckerOptions
from repro.obs import compare_runs, load_run, run_record


def _snapshot():
    return {
        "counters": {
            "scan.apps": 4,
            "pass.connectivity.runs": 4,
            "cache.local.callgraph.hits": 7,
        },
        "gauges": {},
        "profile": {
            "scan": {
                "count": 4, "cum_ms": 100.0, "self_ms": 60.0,
                "children": {
                    "pass:connectivity": {
                        "count": 4, "cum_ms": 40.0, "self_ms": 40.0,
                        "children": {},
                    },
                },
            },
            "pass:tiny": {
                "count": 4, "cum_ms": 0.04, "self_ms": 0.04, "children": {},
            },
        },
    }


def _run(**kwargs):
    defaults = dict(
        options=NCheckerOptions(),
        app_set={"count": 4, "digest": "abc"},
        snapshot=_snapshot(),
        wall_s=1.0,
    )
    defaults.update(kwargs)
    return run_record("bench", **defaults)


@pytest.fixture
def baseline():
    return _run()


class TestCounters:
    def test_identical_runs_pass(self, baseline):
        result = compare_runs(baseline, copy.deepcopy(baseline))
        assert result.ok
        assert result.counter_rows == []

    def test_deterministic_counter_drift_gates(self, baseline):
        current = copy.deepcopy(baseline)
        current["counters"]["pass.connectivity.runs"] = 5
        result = compare_runs(baseline, current)
        assert not result.ok
        assert any("pass.connectivity.runs" in r for r in result.regressions)

    def test_missing_counter_compares_as_zero(self, baseline):
        current = copy.deepcopy(baseline)
        del current["counters"]["pass.connectivity.runs"]
        assert not compare_runs(baseline, current).ok

    def test_cache_counters_report_but_never_gate(self, baseline):
        current = copy.deepcopy(baseline)
        current["counters"]["cache.local.callgraph.hits"] = 0
        result = compare_runs(baseline, current)
        assert result.ok
        assert ["cache.local.callgraph.hits", 7, 0, "state-dependent"] in (
            result.counter_rows
        )


class TestTimings:
    def _with_total(self, record, total):
        out = copy.deepcopy(record)
        out["profile"]["scan"]["cum_ms"] = total
        return out

    def test_regression_beyond_threshold_gates(self, baseline):
        current = self._with_total(baseline, 125.0)  # +25% on 100 ms
        result = compare_runs(baseline, current)
        assert not result.ok
        assert any(r.startswith("timing scan ") for r in result.regressions)

    def test_threshold_is_configurable(self, baseline):
        current = self._with_total(baseline, 125.0)
        assert compare_runs(baseline, current, threshold=0.5).ok

    def test_improvement_reports_without_gating(self, baseline):
        current = self._with_total(baseline, 50.0)
        result = compare_runs(baseline, current)
        assert result.ok
        assert any(row[4] == "improved" for row in result.timing_rows)

    def test_sub_floor_jitter_never_gates(self, baseline):
        # pass:tiny doubles from 0.04 to 0.08 ms: +100%, but both times
        # sit under the absolute noise floor.
        current = copy.deepcopy(baseline)
        current["profile"]["pass:tiny"]["cum_ms"] = 0.08
        assert compare_runs(baseline, current).ok
        # Lowering the floor turns the same delta into a regression.
        assert not compare_runs(baseline, current, min_total_ms=0.01).ok

    def test_a_node_only_one_run_has_gates_on_its_count_alone(self, baseline):
        current = copy.deepcopy(baseline)
        del current["profile"]["pass:tiny"]
        current["profile"]["pass:fresh"] = {
            "count": 1, "cum_ms": 100.0, "self_ms": 100.0, "children": {},
        }
        result = compare_runs(baseline, current)
        assert sorted(result.regressions) == [
            "profile node pass:fresh count changed: 0 -> 1",
            "profile node pass:tiny count changed: 4 -> 0",
        ]
        assert result.timing_rows == []

    def test_gc_node_times_never_gate(self, baseline):
        # Collector time varies with its run count: both are the
        # allocator's history, and the parent node's time includes it.
        base_gc = copy.deepcopy(baseline)
        base_gc["profile"]["scan"]["children"]["gc"] = {
            "count": 3, "cum_ms": 10.0, "self_ms": 10.0, "children": {},
        }
        current = copy.deepcopy(base_gc)
        current["profile"]["scan"]["children"]["gc"]["cum_ms"] = 40.0
        result = compare_runs(base_gc, current)
        assert result.ok
        assert result.timing_rows == []


class TestIdentityGuards:
    def test_options_fingerprint_mismatch_gates(self, baseline):
        current = copy.deepcopy(baseline)
        current["options_fingerprint"] = "f" * 24
        result = compare_runs(baseline, current)
        assert not result.ok
        assert any("options fingerprint" in r for r in result.regressions)

    def test_app_set_mismatch_gates(self, baseline):
        current = copy.deepcopy(baseline)
        current["app_set"]["digest"] = "other"
        assert not compare_runs(baseline, current).ok


class TestProfile:
    def test_count_change_gates(self, baseline):
        current = copy.deepcopy(baseline)
        node = current["profile"]["scan"]["children"]["pass:connectivity"]
        node["count"] = 5
        result = compare_runs(baseline, current)
        assert not result.ok
        assert any("scan/pass:connectivity" in r for r in result.regressions)

    def test_gc_node_count_never_gates(self, baseline):
        # How often the collector runs is not a function of the code.
        gc_node = {"count": 3, "cum_ms": 1.0, "self_ms": 1.0, "children": {}}
        base_gc = copy.deepcopy(baseline)
        base_gc["profile"]["scan"]["children"]["gc"] = gc_node
        current = copy.deepcopy(base_gc)
        current["profile"]["scan"]["children"]["gc"]["count"] = 7
        assert compare_runs(base_gc, current).ok
        assert compare_runs(baseline, current).ok
        assert compare_runs(base_gc, baseline).ok

    def test_time_shift_informs_without_gating(self, baseline):
        # +15%: inside the ±20% threshold, past half of it, so reported.
        current = copy.deepcopy(baseline)
        current["profile"]["scan"]["cum_ms"] = 115.0
        result = compare_runs(baseline, current)
        assert result.ok
        assert result.timing_rows == [
            ["scan", 100.0, 115.0, pytest.approx(15.0), "ok"]
        ]

    def test_a_record_without_a_profile_compares_no_nodes(self, baseline):
        current = copy.deepcopy(baseline)
        current["profile"] = None
        result = compare_runs(baseline, current)
        assert result.ok
        assert result.profile_rows == [] and result.timings_compared == 0


class TestLoadRun:
    def test_single_json_with_provenance_lifted(self, tmp_path, baseline):
        export = {
            "schema_version": 2,
            "provenance": {
                "run_id": baseline["run_id"],
                "options_fingerprint": baseline["options_fingerprint"],
            },
            "counters": baseline["counters"],
            "timings": {"pass.connectivity.wall_ms": {"total": 1.0}},
        }
        path = tmp_path / "export.json"
        path.write_text(json.dumps(export))
        loaded = load_run(path)
        assert loaded["run_id"] == baseline["run_id"]
        assert loaded["options_fingerprint"] == baseline["options_fingerprint"]

    def test_jsonl_takes_last_record(self, tmp_path, baseline):
        newer = copy.deepcopy(baseline)
        newer["label"] = "newer"
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps(baseline) + "\n" + json.dumps(newer) + "\n"
        )
        assert load_run(path)["label"] == "newer"

    def test_raw_metrics_snapshot_loads_with_its_profile(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(_snapshot()))
        loaded = load_run(path)
        assert loaded["profile"] == _snapshot()["profile"]
        assert compare_runs(loaded, _run()).ok

    def test_timing_summaries_of_older_files_are_ignored(
        self, tmp_path, baseline
    ):
        older = copy.deepcopy(baseline)
        older["timings"] = {"pass.connectivity.wall_ms": {"total": 1.0}}
        older["histograms"] = {"pass.connectivity.wall_ms": {"total": 1.0}}
        path = tmp_path / "older.json"
        path.write_text(json.dumps(older))
        # The profile node's time gates; the older summaries do not.
        current = copy.deepcopy(baseline)
        current["profile"]["scan"]["cum_ms"] = 500.0
        result = compare_runs(load_run(path), current)
        assert [r.split(" regressed")[0] for r in result.regressions] == [
            "timing scan"
        ]

    def test_counterless_file_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"timings": {}}))
        with pytest.raises(ValueError):
            load_run(path)


class TestRender:
    def test_sections_and_verdict(self, baseline):
        current = copy.deepcopy(baseline)
        current["counters"]["pass.connectivity.runs"] = 9
        text = compare_runs(baseline, current).render()
        assert "== bench gate ==" in text
        assert "-- counters:" in text
        assert "-- timings:" in text
        assert "REGRESSION: deterministic counter" in text
        clean = compare_runs(baseline, copy.deepcopy(baseline)).render()
        assert "-- verdict: OK --" in clean
