"""Robustness: legal-but-weird apps must scan (and run) without crashing
the toolchain."""

import pytest

from repro.core import NChecker
from repro.corpus.appbuilder import AppBuilder
from repro.ir import Local
from repro.netsim import Runtime, THREE_G


class TestRecursion:
    def test_direct_recursion_with_request(self):
        app = AppBuilder("com.rob.rec")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        body.call(client, "get", "http://x", ret="r")
        body.call(Local("this"), "onClick", Local("v"), cls=activity.name)
        body.ret()
        activity.add(body)
        result = NChecker().scan(app.build())
        assert result.requests  # analysis terminated and found the request

    def test_mutual_recursion(self):
        app = AppBuilder("com.rob.mut")
        activity = app.activity("MainActivity")
        a = activity.method("onClick", params=[("android.view.View", "v")])
        a.call(Local("this"), "ping", cls=activity.name)
        a.ret()
        activity.add(a)
        ping = activity.method("ping")
        client = ping.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        ping.call(client, "get", "http://x", ret="r")
        ping.call(Local("this"), "pong", cls=activity.name)
        ping.ret()
        activity.add(ping)
        pong = activity.method("pong")
        pong.call(Local("this"), "ping", cls=activity.name)
        pong.ret()
        activity.add(pong)
        result = NChecker().scan(app.build())
        assert len(result.requests) == 1
        assert result.requests[0].chains

    def test_recursive_runtime_overflows_like_java(self):
        app = AppBuilder("com.rob.deep")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        body.call(Local("this"), "onClick", Local("v"), cls=activity.name)
        body.ret()
        activity.add(body)
        runtime = Runtime(app.build(), THREE_G, statement_budget=5_000)
        report = runtime.run_entry("com.rob.deep.MainActivity", "onClick")
        assert report.crashed
        assert report.crash_type == "java.lang.StackOverflowError"


class TestDegenerateApps:
    def test_empty_manifest_components(self):
        app = AppBuilder("com.rob.empty")
        helper = app.new_class("Util")
        body = helper.method("noop")
        body.ret()
        helper.add(body)
        result = NChecker().scan(app.build())
        assert not result.is_buggy

    def test_request_in_static_method(self):
        app = AppBuilder("com.rob.static")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        body.static_call(f"{app.package}.MainActivity", "fetch", ret=None)
        body.ret()
        activity.add(body)
        fetch = activity.method("fetch", is_static=True)
        client = fetch.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        fetch.call(client, "get", "http://x", ret="r")
        fetch.ret()
        activity.add(fetch)
        result = NChecker().scan(app.build())
        assert len(result.requests) == 1
        assert result.requests[0].user_initiated

    def test_two_requests_same_library_same_method_both_found(self):
        app = AppBuilder("com.rob.double")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        c1 = body.new("com.turbomanage.httpclient.BasicHttpClient", "a")
        body.call(c1, "get", "http://one", ret="r1")
        c2 = body.new("com.turbomanage.httpclient.BasicHttpClient", "b")
        body.call(c2, "get", "http://two", ret="r2")
        body.ret()
        activity.add(body)
        result = NChecker().scan(app.build())
        assert len(result.requests) == 2

    def test_unreached_request_still_scanned(self):
        """Dead code with a request: context unknown, config checks run."""
        app = AppBuilder("com.rob.dead")
        activity = app.activity("MainActivity")
        alive = activity.method("onClick", params=[("android.view.View", "v")])
        alive.ret()
        activity.add(alive)
        dead = activity.method("neverCalled")
        client = dead.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        dead.call(client, "get", "http://x", ret="r")
        dead.ret()
        activity.add(dead)
        result = NChecker().scan(app.build())
        assert len(result.requests) == 1
        request = result.requests[0]
        assert not request.chains
        from repro.core import DefectKind

        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 1

    def test_very_long_method(self):
        app = AppBuilder("com.rob.long")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        for i in range(800):
            body.assign(f"x{i % 40}", i)
        client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        body.call(client, "get", "http://x", ret="r")
        body.ret()
        activity.add(body)
        result = NChecker().scan(app.build())
        assert len(result.requests) == 1
