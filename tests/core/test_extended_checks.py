"""The three extended-taxonomy checks (`ui-thread-network`,
`callback-leak`, `offline-cache`) end to end: per-app verdicts on the
lifecycle corpus, the Table 6x precision/recall floor, opt-in gating,
SARIF rule metadata, and patcher convergence."""

import pytest

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from repro.core.defects import DefectKind
from repro.core.patcher import Patcher
from repro.corpus.lifecycle import EXTENDED_KINDS, build_lifecycle_corpus
from repro.eval.experiments import run_table6x
from repro.eval.sarif import sarif_log
from repro.obs import use_metrics


def extended_checker() -> NChecker:
    return NChecker(
        options=NCheckerOptions(enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS)
    )


def extended_findings(result) -> set[tuple]:
    return {
        (f.kind, f.method_key[0], f.method_key[1])
        for f in result.findings
        if f.kind in EXTENDED_KINDS
    }


@pytest.fixture(scope="module")
def corpus():
    return build_lifecycle_corpus()


@pytest.fixture(scope="module")
def scans(corpus):
    checker = extended_checker()
    return {apk.package: checker.scan(apk) for apk, _ in corpus}


class TestPerAppVerdicts:
    """Each buggy app is flagged at the injected site; each clean
    variant stays silent — per app, not just in aggregate."""

    def kinds_of(self, scans, package) -> set[DefectKind]:
        return {kind for kind, _cls, _m in extended_findings(scans[package])}

    @pytest.mark.parametrize(
        "package,method,kind",
        [
            ("org.lifecycle.uidirect", "onClick", DefectKind.UI_THREAD_NETWORK),
            ("org.lifecycle.uihelper", "fetchData", DefectKind.UI_THREAD_NETWORK),
            ("org.lifecycle.leakactivity", "onResume", DefectKind.CALLBACK_LEAK),
            ("org.lifecycle.leakservice", "onCreate", DefectKind.CALLBACK_LEAK),
            (
                "org.lifecycle.offlineguarded",
                "onStartCommand",
                DefectKind.MISSED_OFFLINE_CACHE,
            ),
            (
                "org.lifecycle.offlinehelper",
                "onStartCommand",
                DefectKind.MISSED_OFFLINE_CACHE,
            ),
        ],
    )
    def test_buggy_app_flagged_at_site(self, scans, package, method, kind):
        assert {
            (k, m) for k, _cls, m in extended_findings(scans[package])
        } == {(kind, method)}

    @pytest.mark.parametrize(
        "package",
        [
            "org.lifecycle.uitask",
            "org.lifecycle.uiasync",
            "org.lifecycle.cleanactivity",
            "org.lifecycle.cleanservice",
            "org.lifecycle.offlinecached",
            "org.lifecycle.offlinehelpercache",
            "org.lifecycle.offlineunguarded",
        ],
    )
    def test_clean_variant_not_flagged(self, scans, package):
        assert extended_findings(scans[package]) == set()


class TestAccuracyFloor:
    def test_table6x_meets_the_nine_tenths_bar(self):
        report = run_table6x()
        for kind in EXTENDED_KINDS:
            row = report.data[kind.value]
            assert row["injected"] == 2
            assert row["precision"] >= 0.9, (kind, row)
            assert row["recall"] >= 0.9, (kind, row)


class TestOptInGating:
    """Default scans never run the new checks nor build their artifact —
    the paper-faithful five-analysis output stays untouched."""

    def test_default_scan_reports_no_extended_kinds(self, corpus):
        checker = NChecker()
        for apk, _truth in corpus:
            with use_metrics() as counts:
                result = checker.scan(apk)
            assert not any(f.kind in EXTENDED_KINDS for f in result.findings)
            assert counts.counter_value("artifact.threadcontext.builds") == 0

    def test_extended_scan_keeps_default_findings(self, corpus, scans):
        checker = NChecker()
        for apk, _truth in corpus:
            default = checker.scan(apk)
            extended = scans[apk.package]
            default_sigs = [
                (f.kind, f.method_key, f.stmt_index) for f in default.findings
            ]
            kept = [
                (f.kind, f.method_key, f.stmt_index)
                for f in extended.findings
                if f.kind not in EXTENDED_KINDS
            ]
            assert kept == default_sigs


class TestSarifRules:
    def test_extended_kinds_become_rules_and_results(self, corpus, scans):
        log = sarif_log([scans[apk.package] for apk, _ in corpus])
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {k.value for k in EXTENDED_KINDS} <= rule_ids
        result_rules = {r["ruleId"] for r in run["results"]}
        assert {k.value for k in EXTENDED_KINDS} <= result_rules


class TestPatcherConvergence:
    def test_every_lifecycle_app_patches_clean(self, corpus):
        checker = extended_checker()
        for apk, _truth in corpus:
            working = loads_apk(dumps_apk(apk))  # patching mutates in place
            before = extended_findings(checker.scan(working))
            fixed, applied = Patcher().patch_until_clean(
                working, checker, max_rounds=5
            )
            assert checker.scan(fixed).findings == []
            if before:
                assert applied
