"""Check runs: catalog order, and which artifacts each option set builds."""

import pytest

from repro.core import NChecker, NCheckerOptions
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS
from repro.core.checks import check_catalog
from repro.corpus.snippets import RequestSpec
from repro.dataflow.summaries import SummaryStats
from repro.obs import Tracer, use_metrics, use_tracer

from tests.conftest import single_request_app


def traced_scan(**kwargs):
    """Scan one app under ``kwargs`` options; returns its metrics
    snapshot and the names of the spans it opened, in order."""
    apk, _ = single_request_app(RequestSpec(library="basichttp"))
    checker = NChecker(options=NCheckerOptions(**kwargs))
    tracer = Tracer(enabled=True)
    with use_metrics() as registry, use_tracer(tracer):
        checker.scan(apk)
        snapshot = registry.snapshot()
    spans = [event["name"] for event in tracer.export() if event["ph"] == "B"]
    return snapshot, spans


class TestCatalogOrder:
    @pytest.mark.parametrize(
        "checks",
        [DEFAULT_CHECKS, DEFAULT_CHECKS | EXTENDED_CHECKS],
        ids=["default", "extended"],
    )
    def test_pass_spans_run_in_catalog_order(self, checks):
        options = NCheckerOptions(enabled_checks=checks)
        expected = [
            f"pass:{check.name}"
            for check, enabled in check_catalog(options)
            if enabled
        ]
        _snapshot, spans = traced_scan(enabled_checks=checks)
        assert [name for name in spans if name.startswith("pass:")] == expected
        assert len(expected) == len(checks)

    def test_network_switch_runs_last_when_switched_on(self):
        _snapshot, spans = traced_scan(check_network_switch=True)
        passes = [name for name in spans if name.startswith("pass:")]
        assert passes[0] == "pass:config-apis"
        assert passes[-1] == "pass:network-switch"


class TestPlanning:
    def test_no_summaries_skips_the_engine(self):
        """With no enabled check reading summaries (connectivity alone,
        restricted to the request's method), the engine handed to the
        checks computes no fact of any kind."""
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        checker = NChecker(
            options=NCheckerOptions(
                enabled_checks=frozenset({"connectivity"}),
                interprocedural_connectivity=False,
            )
        )
        session = checker.session_for(apk)
        session.scan()
        engine = session.store.context.summaries
        assert engine is not None
        assert engine.stats == SummaryStats()


class TestSkippedArtifactsNotBuilt:
    def scan_builds(self, **kwargs):
        """Builds per artifact kind of one scan (0 for a kind not built)."""
        snapshot, _spans = traced_scan(**kwargs)
        builds = {
            name.split(".")[1]: value
            for name, value in snapshot["counters"].items()
            if name.startswith("artifact.") and name.endswith(".builds")
        }
        return lambda kind: builds.get(kind, 0)

    def test_default_scan_builds_retry_loops(self):
        builds_of = self.scan_builds()
        assert builds_of("retry-loops") == 1
        assert builds_of("icc-model") == 0

    def test_default_options_build_neither_icc_model_nor_threadcontext(self):
        builds_of = self.scan_builds()
        assert builds_of("icc-model") == 0
        assert builds_of("threadcontext") == 0

    def test_extended_checks_build_threadcontext(self):
        builds_of = self.scan_builds(
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS
        )
        assert builds_of("threadcontext") == 1

    def test_no_retry_loop_detection_builds_no_retry_loops(self):
        builds_of = self.scan_builds(detect_retry_loops=False)
        assert builds_of("retry-loops") == 0
        assert builds_of("requests") == 1

    def test_inter_component_builds_the_icc_model(self):
        builds_of = self.scan_builds(inter_component=True)
        assert builds_of("icc-model") == 1

    def test_disabling_checks_skips_artifacts_only_they_need(self):
        builds_of = self.scan_builds(enabled_checks=frozenset({"connectivity"}))
        assert builds_of("retry-loops") == 0
        assert builds_of("icc-model") == 0
        # Shared artifacts are still built exactly once.
        assert builds_of("requests") == 1
        assert builds_of("callgraph") == 1

    def test_summary_ablation_never_builds_the_engine(self):
        """The intraprocedural connectivity ablation, run alone, queries
        no summary fact: the engine it is handed builds no fact — it
        evaluates no SCC and never condenses the call graph."""
        snapshot, spans = traced_scan(
            enabled_checks=frozenset({"connectivity"}),
            interprocedural_connectivity=False,
        )
        assert snapshot["counters"].get("dataflow.bool_fact_sccs", 0) == 0
        assert "scc-condensation" not in spans
        assert "pass:connectivity" in spans

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
