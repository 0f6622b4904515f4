"""Failure-notification analysis tests (paper §4.4.3)."""

import pytest

from repro.core import DefectKind, NChecker
from repro.corpus.snippets import Notification, RequestSpec

from tests.conftest import single_request_app


def _scan(spec, in_service=False):
    apk, record = single_request_app(spec, in_service=in_service)
    return NChecker().scan(apk), record


class TestBlockingLibraries:
    def test_silent_catch_flagged(self):
        result, _ = _scan(RequestSpec(with_notification=Notification.NONE))
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 1

    def test_toast_in_catch_clean(self):
        result, _ = _scan(RequestSpec(with_notification=Notification.TOAST))
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 0

    def test_handler_notification_counts(self):
        result, _ = _scan(RequestSpec(with_notification=Notification.HANDLER))
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 0
        info = result.notification_of(result.requests[0])
        assert info.notified_via_handler

    def test_log_only_is_not_notification(self):
        """Table 2(iii): a Log.e leaves the user staring at silence."""
        result, _ = _scan(RequestSpec(with_notification=Notification.LOG))
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 1

    def test_broadcast_is_invisible_to_the_analysis(self):
        """The paper's 5 notification FPs: inter-component display."""
        result, record = _scan(
            RequestSpec(with_notification=Notification.BROADCAST)
        )
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 1  # FP
        assert DefectKind.MISSED_NOTIFICATION not in record.expected


class TestAsyncLibraries:
    @pytest.mark.parametrize("library", ["volley", "asynchttp"])
    def test_silent_error_callback_flagged(self, library):
        result, _ = _scan(
            RequestSpec(library=library, with_notification=Notification.NONE)
        )
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 1

    @pytest.mark.parametrize("library", ["volley", "asynchttp"])
    def test_toast_in_error_callback_clean(self, library):
        result, _ = _scan(
            RequestSpec(library=library, with_notification=Notification.TOAST)
        )
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 0

    def test_explicit_callback_recorded(self):
        result, _ = _scan(
            RequestSpec(library="volley", with_notification=Notification.TOAST)
        )
        info = result.notification_of(result.requests[0])
        assert info.has_explicit_error_callback


class TestContextGating:
    def test_background_requests_not_checked(self):
        """Paper: error messages only help user-initiated requests."""
        result, _ = _scan(
            RequestSpec(with_notification=Notification.NONE), in_service=True
        )
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 0


class TestAsyncTaskShape:
    def test_notification_in_onpostexecute_credited(self):
        """Fig 5's shape: blocking request in doInBackground; the Toast
        lives in onPostExecute."""
        from repro.corpus.appbuilder import AppBuilder
        from repro.ir import Local

        app = AppBuilder("com.test.task")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        task = body.new("com.test.task.FetchTask", "t")
        body.call(task, "execute")
        body.ret()
        activity.add(body)

        task_cls = app.async_task("FetchTask")
        bg = task_cls.method("doInBackground")
        client = bg.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        bg.call(client, "get", "http://x", ret="r")
        bg.ret()
        task_cls.add(bg)
        post = task_cls.method("onPostExecute", params=[("java.lang.String", "r")])
        toast = post.static_call(
            "android.widget.Toast", "makeText", "ctx", "failed", 0,
            ret="t2", return_type="android.widget.Toast",
        )
        post.call(toast, "show", cls="android.widget.Toast")
        post.ret()
        task_cls.add(post)

        result = NChecker().scan(app.build())
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == 0


class TestErrorTypes:
    def test_volley_untyped_error_callback_flagged(self):
        result, _ = _scan(
            RequestSpec(library="volley", with_notification=Notification.TOAST)
        )
        assert result.count_of(DefectKind.MISSED_ERROR_TYPE_CHECK) == 1

    def test_volley_error_instanceof_credited(self):
        result, _ = _scan(
            RequestSpec(
                library="volley",
                with_notification=Notification.TOAST,
                uses_error_types=True,
            )
        )
        assert result.count_of(DefectKind.MISSED_ERROR_TYPE_CHECK) == 0

    def test_other_libraries_exempt(self):
        """Only Volley exposes error types (§4.4.3)."""
        result, _ = _scan(
            RequestSpec(library="asynchttp", with_notification=Notification.TOAST)
        )
        assert result.count_of(DefectKind.MISSED_ERROR_TYPE_CHECK) == 0


def _toast_two_helpers_down():
    """A catch block calls showError, which calls reallyShow, which shows
    the Toast: the notification sits two calls below the error path."""
    from repro.corpus.appbuilder import AppBuilder
    from repro.ir import Local

    app = AppBuilder("com.depth.app")
    activity = app.activity("MainActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
    region = body.begin_try()
    body.call(client, "get", "http://x", ret="r")
    body.begin_catch(region, "java.io.IOException")
    body.call(Local("this"), "showError", cls=activity.name)
    body.end_try(region)
    body.ret()
    activity.add(body)
    helper = activity.method("showError")
    helper.call(Local("this"), "reallyShow", cls=activity.name)
    helper.ret()
    activity.add(helper)
    inner = activity.method("reallyShow")
    toast = inner.static_call(
        "android.widget.Toast", "makeText", "ctx", "err", 0,
        ret="t", return_type="android.widget.Toast",
    )
    inner.call(toast, "show", cls="android.widget.Toast")
    inner.ret()
    activity.add(inner)
    return app.build()


class TestCalleeDepthAblation:
    """``notification_callee_depth``: the default follows the engine's
    transitive facts; an int caps the error-path callee walk."""

    @pytest.mark.parametrize(
        "depth, missed", [(None, 0), (0, 1), (1, 1), (2, 0)]
    )
    def test_depth_cap(self, depth, missed):
        from repro.core import NCheckerOptions

        options = NCheckerOptions(notification_callee_depth=depth)
        result = NChecker(options=options).scan(_toast_two_helpers_down())
        assert result.count_of(DefectKind.MISSED_NOTIFICATION) == missed
