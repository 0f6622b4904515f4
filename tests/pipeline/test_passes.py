"""Pass scheduling: declared reads, topological order, artifact skipping."""

import pytest

from repro.core import NChecker, NCheckerOptions
from repro.corpus.snippets import RequestSpec
from repro.pipeline import build_plan, order_passes, resolve_reads
from repro.pipeline.passes import ScheduledPass

from tests.conftest import single_request_app


class FakeCheck:
    def __init__(self, name, after=()):
        self.name = name
        self.after = tuple(after)

    def reads(self, options):
        return ("requests",)

    def run(self, ctx, requests):
        return []


def sched(name, after=()):
    return ScheduledPass(FakeCheck(name, after), reads=())


class TestOrdering:
    def test_after_constraint_respected(self):
        passes = [sched("b", after=("a",)), sched("a")]
        assert [p.name for p in order_passes(passes)] == ["a", "b"]

    def test_stable_without_constraints(self):
        passes = [sched("c"), sched("a"), sched("b")]
        assert [p.name for p in order_passes(passes)] == ["c", "a", "b"]

    def test_absent_dependency_ignored(self):
        passes = [sched("b", after=("not-registered",)), sched("a")]
        assert [p.name for p in order_passes(passes)] == ["b", "a"]

    def test_cycle_raises(self):
        passes = [sched("a", after=("b",)), sched("b", after=("a",))]
        with pytest.raises(ValueError):
            order_passes(passes)

    def test_unknown_artifact_name_raises(self):
        with pytest.raises(KeyError):
            resolve_reads(("no-such-artifact",))


class TestPlanning:
    def plan(self, **kwargs):
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker(options=NCheckerOptions(**kwargs))
        return checker.plan_for(apk)

    def test_default_plan_skips_icc_model_only(self):
        plan = self.plan()
        assert plan.passes == (
            "config-apis",
            "connectivity",
            "retry-parameters",
            "failure-notification",
            "invalid-response",
        )
        assert plan.skipped == ("icc-model", "threadcontext")

    def test_retry_parameters_scheduled_after_config_apis(self):
        plan = self.plan()
        assert plan.passes.index("retry-parameters") > plan.passes.index(
            "config-apis"
        )

    def test_connectivity_only_plan_skips_retry_loops(self):
        plan = self.plan(enabled_checks=frozenset({"connectivity"}))
        assert plan.passes == ("connectivity",)
        assert "retry-loops" in plan.skipped
        assert "icc-model" in plan.skipped

    def test_no_retry_loop_detection_skips_the_artifact(self):
        plan = self.plan(detect_retry_loops=False)
        assert "retry-loops" in plan.skipped

    def test_inter_component_needs_icc_model(self):
        plan = self.plan(inter_component=True)
        assert "icc-model" in plan.artifacts

    def test_no_summaries_skips_the_engine(self):
        """With no enabled pass reading summaries (connectivity alone,
        restricted to the request's method), the engine is skipped."""
        plan = self.plan(
            enabled_checks=frozenset({"connectivity"}),
            interprocedural_connectivity=False,
        )
        assert "summaries" in plan.skipped


class TestSkippedArtifactsNotBuilt:
    def scan_counters(self, **kwargs):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        checker = NChecker(options=NCheckerOptions(**kwargs))
        session = checker.session_for(apk)
        session.scan()
        return session.store.counters

    def test_default_scan_builds_retry_loops(self):
        counters = self.scan_counters()
        assert counters.builds_of("retry-loops") == 1
        assert counters.builds_of("icc-model") == 0

    def test_disabling_checks_skips_artifacts_only_they_need(self):
        counters = self.scan_counters(enabled_checks=frozenset({"connectivity"}))
        assert counters.builds_of("retry-loops") == 0
        assert counters.builds_of("icc-model") == 0
        # Shared artifacts are still built exactly once.
        assert counters.builds_of("requests") == 1
        assert counters.builds_of("callgraph") == 1

    def test_summary_ablation_never_builds_the_engine(self):
        """The intraprocedural connectivity ablation, run alone, reads no
        summaries, so the engine is never built."""
        counters = self.scan_counters(
            enabled_checks=frozenset({"connectivity"}),
            interprocedural_connectivity=False,
        )
        assert counters.builds_of("summaries") == 0

    def test_scan_results_unchanged_by_pipeline_for_enabled_kinds(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        full = NChecker().scan(apk)
        conn_only = NChecker(
            options=NCheckerOptions(enabled_checks=frozenset({"connectivity"}))
        ).scan(apk)
        full_conn = [
            (f.method_key, f.stmt_index)
            for f in full.findings
            if f.kind.value == "missed-connectivity-check"
        ]
        got = [
            (f.method_key, f.stmt_index)
            for f in conn_only.findings
            if f.kind.value == "missed-connectivity-check"
        ]
        assert got == full_conn
