"""Customized retry-loop identification tests (paper §4.5, Fig 6)."""

import pytest

from repro.core import NChecker
from repro.core.requests import find_requests
from repro.core.retry_loops import identify_retry_loops
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import Backoff, RequestSpec, RetryLoopShape, inject_request
from repro.ir import Local
from repro.libmodels import default_registry
from repro.pipeline import ArtifactStore

from tests.conftest import single_request_app


def _loops_for(spec):
    apk, _ = single_request_app(spec)
    ctx = ArtifactStore(apk, default_registry()).context
    requests = find_requests(ctx)
    return identify_retry_loops(ctx, requests)


class TestFig6Shapes:
    def test_fig6b_unconditional_exit(self):
        loops = _loops_for(
            RequestSpec(retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT)
        )
        assert len(loops) == 1
        assert loops[0].kind == "unconditional-exit"

    def test_fig6c_catch_data_dependency(self):
        loops = _loops_for(RequestSpec(retry_loop=RetryLoopShape.CATCH_DEPENDENT))
        assert len(loops) == 1
        assert loops[0].kind == "catch-dependent"

    def test_fig6d_callee_catch_dependency(self):
        loops = _loops_for(RequestSpec(retry_loop=RetryLoopShape.CALLEE_CATCH))
        assert len(loops) == 1
        loop = loops[0]
        assert loop.kind == "catch-dependent"
        assert loop.retried_callees  # the sendOnce helper


class TestNonRetryLoops:
    def test_sequence_loop_not_flagged(self):
        """The paper's key challenge: a loop that sends a *sequence* of
        requests (one per item) is not a retry loop."""
        from repro.ir import BinaryExpr, Const

        app = AppBuilder("com.test.seq")
        activity = app.activity("MainActivity")
        b = activity.method("onClick", params=[("android.view.View", "v")])
        client = b.new("com.turbomanage.httpclient.BasicHttpClient", "client")
        b.assign("i", 0)
        with b.while_loop("<", Local("i"), 10):
            b.call(client, "get", "http://x", ret=b.fresh_local("r").name)
            b.assign("i", BinaryExpr("+", Local("i"), Const(1)))
        b.ret()
        activity.add(b)
        apk = app.build()
        ctx = ArtifactStore(apk, default_registry()).context
        loops = identify_retry_loops(ctx, find_requests(ctx))
        assert loops == []

    def test_sequence_loop_with_swallowing_catch_not_retry(self):
        """Catching per-item errors to continue the *sequence* is not
        retrying: the exit condition is the item counter."""
        from repro.ir import BinaryExpr, Const

        app = AppBuilder("com.test.seq2")
        activity = app.activity("MainActivity")
        b = activity.method("onClick", params=[("android.view.View", "v")])
        client = b.new("com.turbomanage.httpclient.BasicHttpClient", "client")
        b.assign("i", 0)
        with b.while_loop("<", Local("i"), 10):
            region = b.begin_try()
            b.call(client, "get", "http://x", ret=b.fresh_local("r").name)
            b.begin_catch(region, "java.io.IOException")
            b.static_call("android.util.Log", "e", "t", "skip", ret=None)
            b.end_try(region)
            b.assign("i", BinaryExpr("+", Local("i"), Const(1)))
        b.ret()
        activity.add(b)
        apk = app.build()
        ctx = ArtifactStore(apk, default_registry()).context
        loops = identify_retry_loops(ctx, find_requests(ctx))
        assert loops == []

    def test_no_loop_no_detection(self):
        loops = _loops_for(RequestSpec())
        assert loops == []


class TestNestedLoops:
    def test_inner_retry_loop_found_outer_pagination_not(self):
        """Paginated fetch with per-page retry: only the inner loop is
        retry logic; the outer loop iterates pages."""
        from repro.ir import BinaryExpr, Const

        app = AppBuilder("com.nest.app")
        activity = app.activity("MainActivity")
        b = activity.method("onClick", params=[("android.view.View", "v")])
        client = b.new("com.turbomanage.httpclient.BasicHttpClient", "client")
        b.assign("page", 0)
        with b.while_loop("<", Local("page"), 10):
            b.assign("retry", True)
            with b.while_loop("==", Local("retry"), True):
                region = b.begin_try()
                b.call(client, "get", "http://x", ret=b.fresh_local("r").name)
                b.assign("retry", False)
                b.begin_catch(region, "java.io.IOException")
                should = b.static_call(
                    "java.lang.Math", "random", ret=b.fresh_local("s").name
                )
                b.assign("retry", Local(should.name))
                b.end_try(region)
            b.assign("page", BinaryExpr("+", Local("page"), Const(1)))
        b.ret()
        activity.add(b)
        apk = app.build()
        ctx = ArtifactStore(apk, default_registry()).context
        loops = identify_retry_loops(ctx, find_requests(ctx))
        assert len(loops) == 1
        assert loops[0].kind == "catch-dependent"
        # The detected loop is the inner (smaller) one.
        from repro.cfg import CFG, natural_loops

        method = loops[0].method
        all_loops = natural_loops(CFG(method))
        assert len(loops[0].loop.body) == min(len(l) for l in all_loops)


class TestBackoffClassification:
    def test_no_sleep_is_aggressive(self):
        loops = _loops_for(
            RequestSpec(
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT, backoff=Backoff.NONE
            )
        )
        assert loops[0].aggressive

    def test_fixed_small_sleep_is_aggressive(self):
        loops = _loops_for(
            RequestSpec(
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.FIXED_SMALL,
            )
        )
        assert loops[0].aggressive

    def test_growing_delay_is_backoff(self):
        loops = _loops_for(
            RequestSpec(
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.EXPONENTIAL,
            )
        )
        assert not loops[0].aggressive

    def test_large_fixed_delay_is_backoff(self):
        """A fixed but long (>= 2 s) delay is not the Telegram bug."""
        app = AppBuilder("com.test.slow")
        activity = app.activity("MainActivity")
        b = activity.method("onClick", params=[("android.view.View", "v")])
        client = b.new("com.turbomanage.httpclient.BasicHttpClient", "client")
        with b.loop():
            region = b.begin_try()
            b.call(client, "get", "http://x", ret="r")
            b.ret()
            b.begin_catch(region, "java.io.IOException")
            b.static_call("java.lang.Thread", "sleep", 5000, ret=None)
            b.end_try(region)
        b.ret()
        activity.add(b)
        apk = app.build()
        ctx = ArtifactStore(apk, default_registry()).context
        loops = identify_retry_loops(ctx, find_requests(ctx))
        assert len(loops) == 1 and not loops[0].aggressive


class TestStats:
    def test_scan_result_exposes_loops(self):
        apk, _ = single_request_app(
            RequestSpec(retry_loop=RetryLoopShape.CATCH_DEPENDENT)
        )
        result = NChecker().scan(apk)
        assert len(result.retry_loops) == 1

    def test_detection_can_be_disabled(self):
        from repro.core import NCheckerOptions

        apk, _ = single_request_app(
            RequestSpec(retry_loop=RetryLoopShape.CATCH_DEPENDENT)
        )
        options = NCheckerOptions(detect_retry_loops=False)
        result = NChecker(options=options).scan(apk)
        assert result.retry_loops == []
