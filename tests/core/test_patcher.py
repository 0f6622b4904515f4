"""Automated-patcher tests: scan → patch → rescan converges to clean, and
patched apps lose their runtime symptoms too."""

import pytest

from repro.core import DefectKind, NChecker
from repro.core.patcher import Patcher
from repro.corpus.snippets import (
    Backoff,
    Notification,
    RequestSpec,
    RetryLoopShape,
    SUPPORTED_LIBRARIES,
)
from repro.netsim import LinkProfile, OFFLINE, Runtime

from tests.conftest import single_request_app


@pytest.fixture(scope="module")
def checker():
    return NChecker()


@pytest.fixture(scope="module")
def patcher():
    return Patcher()


class TestConvergence:
    @pytest.mark.parametrize("library", SUPPORTED_LIBRARIES)
    def test_fully_buggy_app_patches_clean(self, library, checker, patcher):
        apk, _ = single_request_app(RequestSpec(library=library))
        fixed, applied = patcher.patch_until_clean(apk, checker)
        assert applied
        assert not checker.scan(fixed).findings

    def test_original_app_untouched(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec())
        before = checker.scan(apk).summary()
        patcher.patch_until_clean(apk, checker)
        assert checker.scan(apk).summary() == before

    def test_clean_app_needs_no_patches(self, checker, patcher):
        from repro.corpus.snippets import Connectivity

        spec = RequestSpec(
            connectivity=Connectivity.GUARDED,
            with_timeout=True,
            with_retry=True,
            retry_value=2,
            with_notification=Notification.TOAST,
            with_response_check=True,
        )
        apk, _ = single_request_app(spec)
        _fixed, applied = patcher.patch_until_clean(apk, checker)
        assert applied == []

    def test_service_over_retry_patched_to_zero(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec(library="volley"), in_service=True)
        fixed, _ = patcher.patch_until_clean(apk, checker)
        result = checker.scan(fixed)
        assert result.count_of(DefectKind.OVER_RETRY_SERVICE) == 0
        info = result.config_of(result.requests[0])
        assert info.retries == 0

    def test_post_over_retry_patched(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec(library="asynchttp", http_post=True))
        fixed, _ = patcher.patch_until_clean(apk, checker)
        assert checker.scan(fixed).count_of(DefectKind.OVER_RETRY_POST) == 0

    def test_aggressive_loop_gets_backoff(self, checker, patcher):
        apk, _ = single_request_app(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.NONE,
            )
        )
        fixed, _ = patcher.patch_until_clean(apk, checker)
        result = checker.scan(fixed)
        assert result.count_of(DefectKind.AGGRESSIVE_RETRY_LOOP) == 0
        assert result.retry_loops and result.retry_loops[0].has_backoff

    def test_patched_methods_validate(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec(library="volley"))
        fixed, _ = patcher.patch_until_clean(apk, checker)
        fixed.validate()

    def test_patch_ledger_describes_fixes(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        result = checker.scan(apk)
        outcome = patcher.patch_in_place(apk, result)
        assert len(outcome.applied) == len(result.findings)
        for patch in outcome.applied:
            assert patch.description
            assert str(patch)


class TestRuntimeEffect:
    """The patched app behaves better, not just scans cleaner."""

    TERRIBLE = LinkProfile("terrible", bandwidth_kbps=780, rtt_ms=100, loss_rate=0.6)

    def _entry(self, apk):
        return next(
            cls.name for cls in apk.classes() if cls.name.endswith("MainActivity")
        )

    def test_crash_fixed(self, checker, patcher):
        apk, _ = single_request_app(
            RequestSpec(library="basichttp"), package="com.patch.crash"
        )
        assert Runtime(apk, self.TERRIBLE, seed=7).run_entry(
            "com.patch.crash.MainActivity", "onClick"
        ).crashed
        fixed, _ = patcher.patch_until_clean(apk, checker)
        report = Runtime(fixed, self.TERRIBLE, seed=7).run_entry(
            "com.patch.crash.MainActivity", "onClick"
        )
        assert not report.crashed

    def test_battery_drain_fixed(self, checker, patcher):
        apk, _ = single_request_app(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.NONE,
            ),
            package="com.patch.drain",
        )
        assert Runtime(apk, OFFLINE, seed=7).run_entry(
            "com.patch.drain.MainActivity", "onClick"
        ).battery_drain
        fixed, _ = patcher.patch_until_clean(apk, checker)
        report = Runtime(fixed, OFFLINE, seed=7).run_entry(
            "com.patch.drain.MainActivity", "onClick"
        )
        assert not report.battery_drain

    def test_offline_guard_saves_radio(self, checker, patcher):
        apk, _ = single_request_app(RequestSpec(), package="com.patch.guard")
        fixed, _ = patcher.patch_until_clean(apk, checker)
        report = Runtime(fixed, OFFLINE, seed=7).run_entry(
            "com.patch.guard.MainActivity", "onClick"
        )
        assert report.network_attempts == 0  # the inserted guard bailed out

    def test_silent_failure_fixed_for_async(self, checker, patcher):
        apk, _ = single_request_app(
            RequestSpec(library="volley"), package="com.patch.silent"
        )
        fixed, _ = patcher.patch_until_clean(apk, checker)
        # The patched app checks connectivity first; offline it simply does
        # not fire the request — also acceptable UX. Run on a *lossy* link
        # instead so the request goes out and fails.
        report = Runtime(fixed, self.TERRIBLE, seed=9).run_entry(
            "com.patch.silent.MainActivity", "onClick"
        )
        if report.network_failures:
            assert report.user_notified_of_failure


class TestCorpusScale:
    def test_patching_the_small_corpus(self, small_corpus, checker, patcher):
        """Every generated app patches to (near-)clean in ≤3 rounds."""
        for apk, _ in small_corpus[:10]:
            fixed, _ = patcher.patch_until_clean(apk, checker)
            remaining = checker.scan(fixed).findings
            assert not remaining, (apk.package, [str(f) for f in remaining])
