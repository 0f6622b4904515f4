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
    """Scan one app under ``kwargs`` options; returns the session's
    artifact counters, its metrics snapshot and the names of the spans
    it opened, in order."""
    apk, _ = single_request_app(RequestSpec(library="basichttp"))
    checker = NChecker(options=NCheckerOptions(**kwargs))
    tracer = Tracer(enabled=True)
    with use_metrics() as registry, use_tracer(tracer):
        session = checker.session_for(apk)
        session.scan()
        snapshot = registry.snapshot()
    spans = [event["name"] for event in tracer.export() if event["ph"] == "B"]
    return session.store.counters, snapshot, spans


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
        _counters, _snapshot, spans = traced_scan(enabled_checks=checks)
        assert [name for name in spans if name.startswith("pass:")] == expected
        assert len(expected) == len(checks)

    def test_network_switch_runs_last_when_switched_on(self):
        _counters, _snapshot, spans = traced_scan(check_network_switch=True)
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
    def scan_counters(self, **kwargs):
        counters, _snapshot, _spans = traced_scan(**kwargs)
        return counters

    def test_default_scan_builds_retry_loops(self):
        counters = self.scan_counters()
        assert counters.builds_of("retry-loops") == 1
        assert counters.builds_of("icc-model") == 0

    def test_default_options_build_neither_icc_model_nor_threadcontext(self):
        counters = self.scan_counters()
        assert counters.builds_of("icc-model") == 0
        assert counters.builds_of("threadcontext") == 0

    def test_extended_checks_build_threadcontext(self):
        counters = self.scan_counters(
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS
        )
        assert counters.builds_of("threadcontext") == 1

    def test_no_retry_loop_detection_builds_no_retry_loops(self):
        counters = self.scan_counters(detect_retry_loops=False)
        assert counters.builds_of("retry-loops") == 0
        assert counters.builds_of("requests") == 1

    def test_inter_component_builds_the_icc_model(self):
        counters = self.scan_counters(inter_component=True)
        assert counters.builds_of("icc-model") == 1

    def test_disabling_checks_skips_artifacts_only_they_need(self):
        counters = self.scan_counters(enabled_checks=frozenset({"connectivity"}))
        assert counters.builds_of("retry-loops") == 0
        assert counters.builds_of("icc-model") == 0
        # Shared artifacts are still built exactly once.
        assert counters.builds_of("requests") == 1
        assert counters.builds_of("callgraph") == 1

    def test_summary_ablation_never_builds_the_engine(self):
        """The intraprocedural connectivity ablation, run alone, queries
        no summary fact: the engine it is handed builds no fact — it
        evaluates no SCC and never condenses the call graph."""
        _counters, snapshot, spans = traced_scan(
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
