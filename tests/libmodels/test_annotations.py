"""Library model and registry tests — including the paper's §4.3 counts."""

import pytest

from repro.ir import InvokeExpr, KIND_STATIC, KIND_VIRTUAL, Local, MethodSig
from repro.libmodels import (
    ALL_LIBRARIES,
    CallbackRole,
    ConfigKind,
    LibraryModel,
    LibraryRegistry,
    VOLLEY,
    default_registry,
)


def _invoke(cls, name, base="c"):
    return InvokeExpr(KIND_VIRTUAL, Local(base), MethodSig(cls, name))


class TestPaperCounts:
    def test_annotation_counts_match_section_4_3(self):
        counts = default_registry().counts()
        assert counts["target_apis"] == 14
        assert counts["config_apis"] == 77
        assert counts["response_check_apis"] == 2
        assert counts["libraries"] == 6

    def test_six_studied_libraries(self):
        keys = {lib.key for lib in ALL_LIBRARIES}
        assert keys == {
            "httpurlconnection",
            "apache",
            "volley",
            "okhttp",
            "asynchttp",
            "basichttp",
        }


class TestLookups:
    def test_exact_target_lookup(self):
        registry = default_registry()
        found = registry.find_target(
            _invoke("com.turbomanage.httpclient.BasicHttpClient", "get")
        )
        assert found is not None
        lib, target = found
        assert lib.key == "basichttp"

    def test_qualified_mismatch_returns_none(self):
        """An app class's `execute` must not match Apache's execute."""
        registry = default_registry()
        assert registry.find_target(_invoke("com.myapp.Task", "execute")) is None

    def test_unqualified_falls_back_by_name(self):
        registry = default_registry()
        found = registry.find_target(_invoke("?", "get"))
        assert found is not None

    def test_config_lookup(self):
        registry = default_registry()
        found = registry.find_config(
            _invoke("com.loopj.android.http.AsyncHttpClient", "setMaxRetriesAndTimeout")
        )
        assert found is not None
        assert found[1].kind is ConfigKind.RETRY

    def test_static_config_lookup(self):
        registry = default_registry()
        invoke = InvokeExpr(
            KIND_STATIC,
            None,
            MethodSig("org.apache.http.params.HttpConnectionParams", "setConnectionTimeout"),
        )
        found = registry.find_config(invoke)
        assert found is not None and found[1].kind is ConfigKind.TIMEOUT

    def test_response_check_lookup(self):
        registry = default_registry()
        found = registry.find_response_check(
            _invoke("com.squareup.okhttp.Response", "isSuccessful")
        )
        assert found is not None and found[0].key == "okhttp"

    def test_callback_spec_lookup(self):
        registry = default_registry()
        found = registry.find_callback_spec(
            "com.android.volley.Response$ErrorListener", "onErrorResponse"
        )
        assert found is not None
        assert found[1].error_param_index == 0

    def test_duplicate_library_rejected(self):
        registry = LibraryRegistry([VOLLEY])
        with pytest.raises(ValueError):
            registry.register(VOLLEY)


class TestLibraryProperties:
    def test_every_library_has_timeout_api(self):
        """Table 6 evaluates 'Missed timeout APIs' over all 285 apps —
        every studied library exposes a timeout knob."""
        for lib in ALL_LIBRARIES:
            assert lib.has_timeout_api, lib.key

    def test_retry_api_presence(self):
        retry = {lib.key for lib in ALL_LIBRARIES if lib.has_retry_api}
        assert retry == {"apache", "volley", "okhttp", "asynchttp", "basichttp"}

    def test_volley_is_the_only_error_type_exposer(self):
        exposers = [lib.key for lib in ALL_LIBRARIES if lib.exposes_error_types]
        assert exposers == ["volley"]

    def test_volley_auto_checks_responses(self):
        assert VOLLEY.defaults.auto_response_check

    def test_volley_default_policy_matches_fig3(self):
        assert VOLLEY.defaults.timeout_ms == 2500
        assert VOLLEY.defaults.retries == 1
        assert VOLLEY.defaults.backoff_multiplier == 1.0

    def test_asynchttp_default_retries_5(self):
        from repro.libmodels import ASYNC_HTTP

        assert ASYNC_HTTP.defaults.retries == 5
        assert ASYNC_HTTP.defaults.retries_apply_to_post

    def test_setretrypolicy_satisfies_timeout_too(self):
        policy_api = next(
            c for c in VOLLEY.config_apis if c.method == "setRetryPolicy"
        )
        assert ConfigKind.TIMEOUT in policy_api.satisfies
        assert ConfigKind.RETRY in policy_api.satisfies

    def test_error_callbacks_present_for_async_libraries(self):
        from repro.libmodels import ASYNC_HTTP, BASIC_HTTP, OKHTTP

        error_roles = (CallbackRole.ERROR, CallbackRole.COMBINED)
        for lib in (VOLLEY, ASYNC_HTTP, OKHTTP, BASIC_HTTP):
            assert any(c.role in error_roles for c in lib.callbacks), lib.key

    def test_generator_retry_table_consistent(self):
        """The corpus generator's local retry map must match the models."""
        from repro.corpus.generator import _LIB_HAS_RETRY

        for lib in ALL_LIBRARIES:
            assert _LIB_HAS_RETRY[lib.key] == lib.has_retry_api
