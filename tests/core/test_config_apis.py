"""Config-API (timeout/retry) analysis tests (paper §4.4.1 taint part)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DefectKind, NChecker
from repro.core.checks.config_apis import _LoopIndex
from repro.corpus.snippets import RequestSpec, SUPPORTED_LIBRARIES

from tests.conftest import single_request_app


def _scan(spec, **kw):
    apk, record = single_request_app(spec, **kw)
    return NChecker().scan(apk), record


class TestMissedTimeout:
    @pytest.mark.parametrize("library", SUPPORTED_LIBRARIES)
    def test_no_timeout_flagged_everywhere(self, library):
        result, _ = _scan(RequestSpec(library=library))
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 1

    @pytest.mark.parametrize("library", SUPPORTED_LIBRARIES)
    def test_timeout_credited_everywhere(self, library):
        result, _ = _scan(RequestSpec(library=library, with_timeout=True))
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 0

    def test_volley_retry_policy_credits_timeout(self):
        """setRetryPolicy(new DefaultRetryPolicy(t, r, b)) sets both."""
        result, _ = _scan(RequestSpec(library="volley", with_retry=True))
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 0


class TestMissedRetry:
    RETRY_LIBS = ("apache", "volley", "okhttp", "asynchttp", "basichttp")

    @pytest.mark.parametrize("library", RETRY_LIBS)
    def test_no_retry_flagged(self, library):
        result, _ = _scan(RequestSpec(library=library))
        assert result.count_of(DefectKind.MISSED_RETRY) == 1

    @pytest.mark.parametrize("library", RETRY_LIBS)
    def test_retry_credited(self, library):
        result, _ = _scan(RequestSpec(library=library, with_retry=True, retry_value=2))
        assert result.count_of(DefectKind.MISSED_RETRY) == 0

    def test_httpurlconnection_has_no_retry_check(self):
        result, _ = _scan(RequestSpec(library="httpurlconnection"))
        assert result.count_of(DefectKind.MISSED_RETRY) == 0


class TestResolvedValues:
    def test_basichttp_retry_constant(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_retry=True, retry_value=4)
        )
        info = result.config_of(result.requests[0])
        assert info.retries == 4 and not info.retries_from_default

    def test_volley_policy_constants(self):
        result, _ = _scan(
            RequestSpec(
                library="volley", with_retry=True, retry_value=3,
                with_timeout=True, timeout_ms=7500,
            )
        )
        info = result.config_of(result.requests[0])
        assert info.retries == 3
        assert info.timeout_ms == 7500

    def test_apache_handler_constant(self):
        result, _ = _scan(
            RequestSpec(library="apache", with_retry=True, retry_value=2)
        )
        info = result.config_of(result.requests[0])
        assert info.retries == 2

    def test_okhttp_boolean_retry(self):
        result, _ = _scan(
            RequestSpec(library="okhttp", with_retry=True, retry_value=1)
        )
        info = result.config_of(result.requests[0])
        assert info.retries == 1

    def test_defaults_applied_when_unconfigured(self):
        result, _ = _scan(RequestSpec(library="asynchttp"))
        info = result.config_of(result.requests[0])
        assert info.retries == 5 and info.retries_from_default
        assert info.timeout_ms == 10_000 and info.timeout_from_default

    def test_timeout_constant_resolved(self):
        result, _ = _scan(
            RequestSpec(library="basichttp", with_timeout=True, timeout_ms=12345)
        )
        info = result.config_of(result.requests[0])
        assert info.timeout_ms == 12345


class TestAliasTracking:
    def test_okhttp_config_found_through_newcall_chain(self):
        """client.setReadTimeout(...); call = client.newCall(...);
        call.execute() — the backward step must reach the client."""
        result, _ = _scan(
            RequestSpec(library="okhttp", with_timeout=True, with_retry=True)
        )
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 0
        assert result.count_of(DefectKind.MISSED_RETRY) == 0

    def test_apache_static_params_config_found(self):
        """HttpConnectionParams.setConnectionTimeout(client.getParams(), t)
        is a *static* call configuring the client via its params object."""
        result, _ = _scan(RequestSpec(library="apache", with_timeout=True))
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 0

    def test_field_held_client_widens_to_class(self):
        """Config applied in one method, request sent in another, client in
        a field: the widened scan still credits the config."""
        from repro.corpus.appbuilder import AppBuilder
        from repro.ir import Local

        app = AppBuilder("com.test.field")
        activity = app.activity("MainActivity")

        setup = activity.method("onCreate", params=[("android.os.Bundle", "b")])
        client = setup.new("com.turbomanage.httpclient.BasicHttpClient", "client")
        setup.call(client, "setReadWriteTimeout", 8000)
        setup.call(client, "setMaxRetries", 2)
        setup.set_field(Local("this"), activity.name, "client", client)
        setup.ret()
        activity.add(setup)

        click = activity.method("onClick", params=[("android.view.View", "v")])
        c = click.get_field(Local("this"), activity.name, "client", "c")
        click.call(
            c, "get", "http://x", ret="r",
            cls="com.turbomanage.httpclient.BasicHttpClient",
        )
        click.ret()
        activity.add(click)

        result = NChecker().scan(app.build())
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 0
        assert result.count_of(DefectKind.MISSED_RETRY) == 0

    def test_unrelated_client_config_not_credited(self):
        """Configuring client A must not silence warnings about client B's
        request in the same method."""
        from repro.corpus.appbuilder import AppBuilder

        app = AppBuilder("com.test.two")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        configured = body.new("com.turbomanage.httpclient.BasicHttpClient", "a")
        body.call(configured, "setReadWriteTimeout", 8000)
        bare = body.new("com.turbomanage.httpclient.BasicHttpClient", "b")
        body.call(bare, "get", "http://x", ret="r")
        body.ret()
        activity.add(body)
        result = NChecker().scan(app.build())
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 1


def _first_covering_loop(loops, request):
    """The linear scan the loop index replaces (the reference)."""
    for loop in loops:
        if loop.method is request.method and request.stmt_index in loop.loop.body:
            return loop
        if request.key in loop.retried_callees:
            return loop
    return None


class TestLoopIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        loop_specs=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.frozensets(st.integers(0, 5), max_size=4),
                st.frozensets(st.integers(0, 2), max_size=2),
            ),
            max_size=6,
        ),
        request_method=st.integers(0, 2),
        stmt_index=st.integers(0, 5),
    )
    def test_returns_the_first_covering_loop(
        self, loop_specs, request_method, stmt_index
    ):
        methods = [SimpleNamespace(name=f"m{i}") for i in range(3)]
        keys = [("com.x.C", f"m{i}", 0) for i in range(3)]
        loops = [
            SimpleNamespace(
                method=methods[m],
                loop=SimpleNamespace(body=body),
                retried_callees=tuple(keys[c] for c in sorted(callees)),
            )
            for m, body, callees in loop_specs
        ]
        request = SimpleNamespace(
            method=methods[request_method],
            key=keys[request_method],
            stmt_index=stmt_index,
        )
        assert _LoopIndex(loops).covering(request) is _first_covering_loop(
            loops, request
        )
