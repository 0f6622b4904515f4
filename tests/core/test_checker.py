"""End-to-end NChecker tests: orchestration, options, reports."""

import pytest

from repro.core import (
    DefectKind,
    NChecker,
    NCheckerOptions,
    build_report,
)
from repro.corpus.snippets import Connectivity, Notification, RequestSpec

from tests.conftest import single_request_app


class TestScan:
    def test_clean_app_has_no_findings(self):
        spec = RequestSpec(
            library="basichttp",
            connectivity=Connectivity.GUARDED,
            with_timeout=True,
            with_retry=True,
            retry_value=2,
            with_notification=Notification.TOAST,
            with_response_check=True,
        )
        apk, _ = single_request_app(spec)
        result = NChecker().scan(apk)
        assert not result.is_buggy

    def test_fully_buggy_app_finds_all_kinds(self):
        apk, record = single_request_app(RequestSpec(library="basichttp"))
        result = NChecker().scan(apk)
        assert {f.kind for f in result.findings} == record.expected

    def test_findings_sorted_deterministically(self):
        apk, _ = single_request_app(RequestSpec())
        r1 = NChecker().scan(apk)
        r2 = NChecker().scan(apk)
        assert [str(f) for f in r1.findings] == [str(f) for f in r2.findings]

    def test_summary_counts(self):
        apk, record = single_request_app(RequestSpec())
        result = NChecker().scan(apk)
        summary = result.summary()
        assert sum(summary.values()) == len(result.findings)
        assert set(summary) == {k.value for k in record.expected}

    def test_libraries_used(self):
        apk, _ = single_request_app(RequestSpec(library="volley"))
        result = NChecker().scan(apk)
        assert result.libraries_used() == {"volley"}

    def test_app_without_requests_is_clean(self):
        from repro.corpus.appbuilder import AppBuilder

        app = AppBuilder("com.test.empty")
        activity = app.activity("MainActivity")
        b = activity.method("onCreate", params=[("android.os.Bundle", "s")])
        b.ret()
        activity.add(b)
        result = NChecker().scan(app.build())
        assert result.requests == [] and not result.is_buggy


class TestCheckSelection:
    @pytest.mark.parametrize(
        "enabled,expected_kinds",
        [
            (
                frozenset({"connectivity"}),
                {DefectKind.MISSED_CONNECTIVITY_CHECK},
            ),
            (
                frozenset({"config-apis"}),
                {DefectKind.MISSED_TIMEOUT, DefectKind.MISSED_RETRY},
            ),
            (
                frozenset({"invalid-response"}),
                {DefectKind.MISSED_RESPONSE_CHECK},
            ),
        ],
    )
    def test_only_enabled_checks_run(self, enabled, expected_kinds):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        options = NCheckerOptions(enabled_checks=enabled)
        result = NChecker(options=options).scan(apk)
        assert {f.kind for f in result.findings} == expected_kinds


class TestReports:
    def test_report_has_all_five_sections(self):
        """Paper §4.6: information, impact, context, call stack, fix."""
        apk, _ = single_request_app(RequestSpec())
        result = NChecker().scan(apk)
        report = build_report(result.findings[0])
        text = report.render()
        for section in (
            "NPD Information",
            "NPD impact",
            "Network request context",
            "Network request call stack",
            "Fix Suggestion",
        ):
            assert section in text

    def test_user_context_mentions_users(self):
        apk, _ = single_request_app(RequestSpec())
        result = NChecker().scan(apk)
        report = build_report(result.findings[0])
        assert "user" in report.request_context.lower()

    def test_background_context_mentions_energy(self):
        apk, _ = single_request_app(RequestSpec(library="volley"), in_service=True)
        result = NChecker().scan(apk)
        finding = result.findings_of(DefectKind.OVER_RETRY_SERVICE)[0]
        report = build_report(finding)
        assert "background" in report.request_context.lower()

    def test_call_stack_starts_at_entry_point(self):
        apk, _ = single_request_app(RequestSpec())
        result = NChecker().scan(apk)
        report = build_report(result.findings[0])
        assert "onClick" in report.call_stack[0]

    def test_fix_suggestion_names_an_api(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        result = NChecker().scan(apk)
        timeout_finding = result.findings_of(DefectKind.MISSED_TIMEOUT)[0]
        report = build_report(timeout_finding)
        assert "Timeout" in report.fix_suggestion or "timeout" in report.fix_suggestion

    def test_reports_for_all_findings(self):
        apk, _ = single_request_app(RequestSpec())
        result = NChecker().scan(apk)
        assert len(result.reports()) == len(result.findings)


class TestDefectMetadata:
    def test_every_kind_has_complete_metadata(self):
        from repro.core.defects import (
            FIX_SUGGESTIONS,
            KIND_IMPACT,
            KIND_PATTERN,
            KIND_ROOT_CAUSE,
            defect_info,
        )

        for kind in DefectKind:
            assert kind in KIND_PATTERN
            assert kind in KIND_ROOT_CAUSE
            assert kind in KIND_IMPACT
            assert kind in FIX_SUGGESTIONS
            info = defect_info(kind)
            assert info.kind is kind

    def test_study_distributions_sum(self):
        from repro.core.defects import Impact
        from repro.corpus.study import IMPACT_CASES, ROOT_CAUSE_CASES

        # Fig 4 gives the impacts in percent of the 90 studied NPDs.
        assert {
            impact: round(100 * count / 90)
            for impact, count in IMPACT_CASES.items()
        } == {
            Impact.DYSFUNCTION: 36,
            Impact.UNFRIENDLY_UI: 33,
            Impact.CRASH_FREEZE: 21,
            Impact.BATTERY_DRAIN: 10,
        }
        assert sum(ROOT_CAUSE_CASES.values()) == 90
