"""Checker edge cases that cross feature boundaries."""

import pytest

from repro.core import DefectKind, NChecker, NCheckerOptions
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import Connectivity, RequestSpec, inject_request
from repro.ir import Local

from tests.conftest import single_request_app


class TestGuardAwareInteractions:
    def test_guard_aware_accepts_helper_wrapped_guard(self):
        """`if (isNetworkOnline()) { request }` — the helper's result
        control-guards the request, so guard-aware mode is satisfied."""
        apk, _ = single_request_app(RequestSpec(connectivity=Connectivity.HELPER))
        options = NCheckerOptions(guard_aware_connectivity=True)
        result = NChecker(options=options).scan(apk)
        assert result.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 0

    def test_guard_aware_plus_icc(self):
        """All four option combinations agree on a plain guarded app."""
        apk, _ = single_request_app(RequestSpec(connectivity=Connectivity.GUARDED))
        for guard in (False, True):
            for icc in (False, True):
                options = NCheckerOptions(
                    guard_aware_connectivity=guard, inter_component=icc
                )
                result = NChecker(options=options).scan(apk)
                assert result.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 0


class TestConstructorRequests:
    def test_request_inside_app_constructor_reachable(self):
        """A request issued from a class's <init>, reached via `new` in a
        click handler."""
        app = AppBuilder("com.edge.ctor")
        worker = app.new_class("Session")
        ctor = worker.method("<init>")
        client = ctor.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        ctor.call(client, "get", "http://handshake", ret="r")
        ctor.ret()
        worker.add(ctor)

        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        body.new("com.edge.ctor.Session", "session")
        body.ret()
        activity.add(body)

        result = NChecker().scan(app.build())
        assert len(result.requests) == 1
        request = result.requests[0]
        assert request.chains
        assert request.user_initiated


class TestMultiLibraryApps:
    def test_findings_attributed_to_right_library(self):
        """Two libraries in one method: each request judged against its
        own library's capabilities."""
        app = AppBuilder("com.edge.multi")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        # HttpURLConnection request (no retry API: no missed-retry row).
        conn = body.new("java.net.HttpURLConnection", "conn")
        body.call(conn, "getInputStream", ret="in")
        # Basic HTTP request (retry API exists: missed-retry fires).
        client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        body.call(client, "get", "http://x", ret="r")
        body.ret()
        activity.add(body)

        result = NChecker().scan(app.build())
        assert len(result.requests) == 2
        retry_findings = result.findings_of(DefectKind.MISSED_RETRY)
        assert len(retry_findings) == 1
        assert retry_findings[0].request.library.key == "basichttp"

    def test_per_request_timeouts_judged_separately(self):
        app = AppBuilder("com.edge.twotimeouts")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        configured = body.new("com.turbomanage.httpclient.BasicHttpClient", "a")
        body.call(configured, "setReadWriteTimeout", 5000)
        body.call(configured, "get", "http://one", ret="r1")
        bare = body.new("java.net.HttpURLConnection", "conn")
        body.call(bare, "getInputStream", ret="in")
        body.ret()
        activity.add(body)

        result = NChecker().scan(app.build())
        timeout_findings = result.findings_of(DefectKind.MISSED_TIMEOUT)
        assert len(timeout_findings) == 1
        assert timeout_findings[0].request.library.key == "httpurlconnection"


class TestRegistryInjection:
    def test_custom_registry_scopes_detection(self):
        """A registry with only Volley registered ignores Basic HTTP."""
        from repro.libmodels import VOLLEY
        from repro.libmodels.annotations import LibraryRegistry

        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        checker = NChecker(registry=LibraryRegistry([VOLLEY]))
        result = checker.scan(apk)
        # BasicHttpClient.get is not annotated in this registry...
        # except name-fallback does not apply: the call site is qualified.
        assert result.requests == []
