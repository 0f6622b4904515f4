"""Improper-retry-parameter analysis tests (paper §4.4.2, Table 8)."""

import pytest

from repro.core import DefectKind, NChecker
from repro.corpus.snippets import Backoff, RequestSpec, RetryLoopShape

from tests.conftest import single_request_app


def _scan(spec, in_service=False):
    apk, record = single_request_app(spec, in_service=in_service)
    return NChecker().scan(apk), record


class TestTimeSensitive:
    def test_user_request_with_zero_retries_flagged(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_retry=True, retry_value=0)
        )
        assert result.count_of(DefectKind.NO_RETRY_TIME_SENSITIVE) == 1

    def test_user_request_with_retries_clean(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_retry=True, retry_value=2)
        )
        assert result.count_of(DefectKind.NO_RETRY_TIME_SENSITIVE) == 0

    def test_default_retries_satisfy_time_sensitivity(self):
        """Volley defaults to 1 retry: a user request is fine unconfigured."""
        result, _ = _scan(RequestSpec(library="volley"))
        assert result.count_of(DefectKind.NO_RETRY_TIME_SENSITIVE) == 0

    def test_custom_retry_loop_counts_as_retrying(self):
        result, _ = _scan(
            RequestSpec(
                library="basichttp",
                with_retry=True,
                retry_value=0,
                retry_loop=RetryLoopShape.CATCH_DEPENDENT,
                backoff=Backoff.EXPONENTIAL,
            )
        )
        assert result.count_of(DefectKind.NO_RETRY_TIME_SENSITIVE) == 0


class TestOverRetryService:
    def test_background_default_retries_flagged(self):
        result, _ = _scan(RequestSpec(library="asynchttp"), in_service=True)
        findings = result.findings_of(DefectKind.OVER_RETRY_SERVICE)
        assert len(findings) == 1
        assert findings[0].default_caused  # Table 8 column 3

    def test_background_explicit_retries_flagged_not_default(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_retry=True, retry_value=3),
            in_service=True,
        )
        findings = result.findings_of(DefectKind.OVER_RETRY_SERVICE)
        assert len(findings) == 1
        assert not findings[0].default_caused

    def test_background_zero_retries_clean(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_retry=True, retry_value=0),
            in_service=True,
        )
        assert result.count_of(DefectKind.OVER_RETRY_SERVICE) == 0

    def test_user_request_never_flagged_for_service_rule(self):
        result, _ = _scan(RequestSpec(library="asynchttp"))
        assert result.count_of(DefectKind.OVER_RETRY_SERVICE) == 0


class TestOverRetryPost:
    def test_volley_post_default_retry_flagged(self):
        """Volley's method-agnostic DefaultRetryPolicy retries POSTs."""
        result, _ = _scan(RequestSpec(library="volley", http_post=True))
        findings = result.findings_of(DefectKind.OVER_RETRY_POST)
        assert len(findings) == 1 and findings[0].default_caused

    def test_asynchttp_post_default_retry_flagged(self):
        result, _ = _scan(RequestSpec(library="asynchttp", http_post=True))
        assert result.count_of(DefectKind.OVER_RETRY_POST) == 1

    def test_okhttp_post_defaults_are_safe(self):
        """OkHttp's connection-failure retry skips non-idempotent methods."""
        result, _ = _scan(RequestSpec(library="okhttp", http_post=True))
        assert result.count_of(DefectKind.OVER_RETRY_POST) == 0

    def test_explicit_post_retry_flagged_not_default(self):
        result, _ = _scan(
            RequestSpec(
                library="basichttp", http_post=True, with_retry=True, retry_value=2
            )
        )
        findings = result.findings_of(DefectKind.OVER_RETRY_POST)
        assert len(findings) == 1 and not findings[0].default_caused

    def test_get_request_not_flagged(self):
        result, _ = _scan(RequestSpec(library="volley"))
        assert result.count_of(DefectKind.OVER_RETRY_POST) == 0

    def test_apache_post_detected_via_request_class(self):
        """Apache's POST-ness is carried by the HttpPost object."""
        result, _ = _scan(
            RequestSpec(library="apache", http_post=True, with_retry=True, retry_value=3)
        )
        assert result.count_of(DefectKind.OVER_RETRY_POST) == 1

    def test_urlconnection_post_via_setrequestmethod(self):
        from repro.core.requests import find_requests
        from repro.libmodels import HttpMethod, default_registry
        from repro.pipeline import ArtifactStore

        apk, _ = single_request_app(
            RequestSpec(library="httpurlconnection", http_post=True)
        )
        ctx = ArtifactStore(apk, default_registry()).context
        request = find_requests(ctx)[0]
        assert request.http_method is HttpMethod.POST


class TestAggressiveLoops:
    @pytest.mark.parametrize(
        "shape",
        [
            RetryLoopShape.UNCONDITIONAL_EXIT,
            RetryLoopShape.CATCH_DEPENDENT,
            RetryLoopShape.CALLEE_CATCH,
        ],
    )
    def test_no_backoff_flagged(self, shape):
        result, _ = _scan(
            RequestSpec(library="basichttp", retry_loop=shape, backoff=Backoff.NONE)
        )
        assert result.count_of(DefectKind.AGGRESSIVE_RETRY_LOOP) == 1

    def test_fixed_small_delay_still_aggressive(self):
        """The Telegram shape (Fig 2): a constant 500 ms reconnect timer."""
        result, _ = _scan(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.FIXED_SMALL,
            )
        )
        assert result.count_of(DefectKind.AGGRESSIVE_RETRY_LOOP) == 1

    def test_exponential_backoff_clean(self):
        result, _ = _scan(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.EXPONENTIAL,
            )
        )
        assert result.count_of(DefectKind.AGGRESSIVE_RETRY_LOOP) == 0
