"""Request code-pattern emitters and their semantic ground truth.

The corpus generator assembles synthetic apps out of the code shapes the
paper's study found in the wild: connectivity checks (direct, via an app
helper, present-but-not-guarding, or performed in *another* component —
the FN/FP trap shapes of Table 9), config API usage, listener classes
with or without UI notifications, response validity checks, and the
Fig 6 retry-loop shapes.

``inject_request`` writes one request into a method body (creating any
auxiliary listener classes on the app) and returns the **semantic**
defects present — what a human auditor would confirm, independent of
what the static checker manages to see.  The accuracy evaluation
(Table 9) compares checker findings against this ground truth, so the
paper's FP/FN mechanisms (inter-component flows, path-insensitivity)
arise naturally instead of being hard-coded.
"""

from __future__ import annotations

import enum
from typing import Optional

from .._record import field, record
from ..core.defects import DefectKind
from ..ir.builder import MethodBuilder
from ..ir.values import BinaryExpr, Const, InstanceOfExpr, Local
from ..libmodels import ALL_LIBRARIES
from ..libmodels.annotations import LibraryModel
from .appbuilder import AppBuilder

_LIBS_BY_KEY: dict[str, LibraryModel] = {lib.key: lib for lib in ALL_LIBRARIES}

_BASIC = "com.turbomanage.httpclient.BasicHttpClient"
_BASIC_RESP = "com.turbomanage.httpclient.HttpResponse"
_VOLLEY_QUEUE = "com.android.volley.RequestQueue"
_VOLLEY_REQ = "com.android.volley.toolbox.StringRequest"
_VOLLEY_POLICY = "com.android.volley.DefaultRetryPolicy"
_OK_CLIENT = "com.squareup.okhttp.OkHttpClient"
_OK_CALL = "com.squareup.okhttp.Call"
_OK_RESP = "com.squareup.okhttp.Response"
_ASYNC_CLIENT = "com.loopj.android.http.AsyncHttpClient"
_APACHE_CLIENT = "org.apache.http.impl.client.DefaultHttpClient"
_URLCONN = "java.net.HttpURLConnection"
_TOAST = "android.widget.Toast"
_HANDLER = "android.os.Handler"
_LOG = "android.util.Log"
_CONN_MGR = "android.net.ConnectivityManager"


class Connectivity(enum.Enum):
    """How (and whether) the request is guarded by a connectivity check."""

    NONE = "none"
    GUARDED = "guarded"  # check + branch around the request
    UNGUARDED = "unguarded"  # check invoked, result ignored (paper's FN shape)
    HELPER = "helper"  # check wrapped in an app utility method
    INTER_COMPONENT = "inter-component"  # checked before starting this
    # component from another one (paper's FP shape)


class Notification(enum.Enum):
    """How failures are surfaced to the user."""

    NONE = "none"
    TOAST = "toast"  # explicit UI message
    HANDLER = "handler"  # message handed to the UI thread
    LOG = "log"  # developer log only: the user sees nothing
    BROADCAST = "broadcast"  # error broadcast, shown by another activity
    # (paper's notification-FP shape)


class RetryLoopShape(enum.Enum):
    NONE = "none"
    UNCONDITIONAL_EXIT = "fig6b"
    CATCH_DEPENDENT = "fig6c"
    CALLEE_CATCH = "fig6d"


class Backoff(enum.Enum):
    NONE = "none"
    FIXED_SMALL = "fixed"  # Thread.sleep(500) — still aggressive
    EXPONENTIAL = "exponential"


@record
class RequestSpec:
    """Everything that varies about one injected request."""

    library: str = "basichttp"
    http_post: bool = False
    connectivity: Connectivity = Connectivity.NONE
    with_timeout: bool = False
    timeout_ms: int = 10_000
    with_retry: bool = False
    retry_value: int = 2
    with_notification: Notification = Notification.NONE
    with_response_check: bool = False
    uses_error_types: bool = False  # Volley only
    retry_loop: RetryLoopShape = RetryLoopShape.NONE
    backoff: Backoff = Backoff.NONE
    #: OkHttp only: use the asynchronous enqueue/Callback path instead of
    #: the blocking execute() one.
    use_async: bool = False
    url: str = "http://api.example.com/data"

    @property
    def lib(self) -> LibraryModel:
        return _LIBS_BY_KEY[self.library]


# ---------------------------------------------------------------------------
# Semantic ground truth
# ---------------------------------------------------------------------------


def expected_defects(
    spec: RequestSpec, user_initiated: bool, background: bool
) -> set[DefectKind]:
    """The defects a human auditor would confirm for this request."""
    lib = spec.lib
    defects: set[DefectKind] = set()

    connectivity_ok = spec.connectivity in (
        Connectivity.GUARDED,
        Connectivity.HELPER,
        Connectivity.INTER_COMPONENT,  # checked, just elsewhere
    )
    if not connectivity_ok:
        defects.add(DefectKind.MISSED_CONNECTIVITY_CHECK)

    # Volley's setRetryPolicy installs a DefaultRetryPolicy whose first
    # argument *is* the timeout, so configuring retries configures the
    # timeout too.
    timeout_configured = spec.with_timeout or (
        spec.library == "volley" and spec.with_retry
    )
    if lib.has_timeout_api and not timeout_configured:
        defects.add(DefectKind.MISSED_TIMEOUT)

    has_custom_retry = spec.retry_loop is not RetryLoopShape.NONE
    # ...and conversely, configuring a Volley timeout goes through
    # setRetryPolicy, which is the retry API.
    retry_configured = spec.with_retry or (
        spec.library == "volley" and spec.with_timeout
    )
    if lib.has_retry_api and not retry_configured and not has_custom_retry:
        defects.add(DefectKind.MISSED_RETRY)

    retries = spec.retry_value if spec.with_retry else lib.defaults.retries
    retries_from_default = not spec.with_retry
    effective_for_user = max(retries, 1) if has_custom_retry else retries
    if lib.has_retry_api:
        # POSTs are exempt from the time-sensitivity rule (HTTP/1.1's
        # MUST-NOT-retry dominates).
        if user_initiated and effective_for_user == 0 and not spec.http_post:
            defects.add(DefectKind.NO_RETRY_TIME_SENSITIVE)
        if background and retries > 0:
            defects.add(DefectKind.OVER_RETRY_SERVICE)
        if spec.http_post and retries > 0:
            if not (retries_from_default and not lib.defaults.retries_apply_to_post):
                defects.add(DefectKind.OVER_RETRY_POST)

    if user_initiated:
        notified = spec.with_notification in (
            Notification.TOAST,
            Notification.HANDLER,
            Notification.BROADCAST,  # surfaced, just in another component
        )
        if not notified:
            defects.add(DefectKind.MISSED_NOTIFICATION)
        if (
            lib.exposes_error_types
            and not spec.uses_error_types
        ):
            defects.add(DefectKind.MISSED_ERROR_TYPE_CHECK)

    if (
        lib.has_response_check_api
        and not lib.defaults.auto_response_check
        and not spec.with_response_check
        and spec.retry_loop is RetryLoopShape.NONE  # loop shapes discard
        # the response, so there is nothing to misuse
    ):
        defects.add(DefectKind.MISSED_RESPONSE_CHECK)

    if has_custom_retry and spec.backoff in (Backoff.NONE, Backoff.FIXED_SMALL):
        defects.add(DefectKind.AGGRESSIVE_RETRY_LOOP)
    return defects


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


@record
class InjectedRequest:
    """Record of one emitted request, for the ground-truth ledger."""

    spec: RequestSpec
    host_class: str
    host_method: str
    expected: set[DefectKind] = field(default_factory=set)


def inject_request(
    app: AppBuilder,
    body: MethodBuilder,
    spec: RequestSpec,
    user_initiated: bool,
    background: bool = False,
) -> InjectedRequest:
    """Emit the request described by ``spec`` into ``body``.

    Auxiliary classes (listeners, helpers) are added to ``app``.  Returns
    the ground-truth record.
    """
    skip_label = _emit_connectivity(app, body, spec)
    emitter = _EMITTERS[spec.library]
    host_override = emitter(app, body, spec, user_initiated)
    if skip_label is not None:
        body.label(skip_label)
        body.nop()
    host_class, host_method = host_override or (body.sig.class_name, body.sig.name)
    return InjectedRequest(
        spec,
        host_class,
        host_method,
        expected_defects(spec, user_initiated, background),
    )


def _emit_connectivity(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec
) -> Optional[str]:
    """Emit the connectivity-check prologue; returns the label the guard
    jumps to (to be bound after the request) or None."""
    if spec.connectivity in (Connectivity.NONE, Connectivity.INTER_COMPONENT):
        return None
    if spec.connectivity is Connectivity.HELPER:
        helper_cls = _ensure_net_helper(app)
        online = body.static_call(
            helper_cls, "isNetworkOnline", ret=body.fresh_local("online").name,
            return_type="boolean",
        )
        skip = body.fresh_label("offline")
        body.if_goto("==", online, False, skip)
        return skip
    cm = body.new(_CONN_MGR, body.fresh_local("cm").name)
    ni = body.call(
        cm, "getActiveNetworkInfo", ret=body.fresh_local("ni").name, cls=_CONN_MGR,
        return_type="android.net.NetworkInfo",
    )
    if spec.connectivity is Connectivity.UNGUARDED:
        # The check's result never guards the request (paper's FN shape):
        # log it and fall through.
        body.static_call(_LOG, "d", "net", "state checked", ret=None)
        return None
    skip = body.fresh_label("offline")
    body.if_goto("==", ni, None, skip)
    return skip


def _ensure_net_helper(app: AppBuilder) -> str:
    name = f"{app.package}.NetUtils"
    try:
        app.get_class_builder(name)
        return name
    except KeyError:
        pass
    helper = app.new_class("NetUtils")
    b = helper.method("isNetworkOnline", return_type="boolean", is_static=True)
    cm = b.new(_CONN_MGR, "cm")
    ni = b.call(cm, "getActiveNetworkInfo", ret="ni", cls=_CONN_MGR)
    with b.if_then("==", ni, None):
        b.ret(False)
    b.ret(True)
    helper.add(b)
    return name


def _emit_notification(app: AppBuilder, body: MethodBuilder, spec: RequestSpec) -> None:
    """Emit the failure-path reaction selected by the spec."""
    kind = spec.with_notification
    if kind is Notification.TOAST:
        toast = body.static_call(
            _TOAST, "makeText", "ctx", "Network error", 0,
            ret=body.fresh_local("toast").name, return_type=_TOAST,
        )
        body.call(toast, "show", cls=_TOAST)
    elif kind is Notification.HANDLER:
        handler = body.new(_HANDLER, body.fresh_local("h").name)
        body.call(handler, "sendEmptyMessage", 1, cls=_HANDLER)
    elif kind is Notification.LOG:
        body.static_call(_LOG, "e", "net", "request failed", ret=None)
    elif kind is Notification.BROADCAST:
        intent = body.new("android.content.Intent", body.fresh_local("i").name)
        body.call(intent, "putExtra", "error_code", 1, cls="android.content.Intent")
        body.static_call(
            "android.content.Context", "sendBroadcast", intent, ret=None
        )
    # Notification.NONE: silence.


def _emit_response_use(
    body: MethodBuilder, spec: RequestSpec, response: Local, response_cls: str,
    body_method: str,
) -> None:
    """Emit the (optionally guarded) response dereference."""
    if spec.with_response_check:
        if spec.library == "okhttp":
            ok = body.call(
                response, "isSuccessful", ret=body.fresh_local("ok").name,
                cls=_OK_RESP, return_type="boolean",
            )
            with body.if_then("==", ok, True):
                body.call(
                    response, body_method, ret=body.fresh_local("data").name,
                    cls=response_cls,
                )
        else:
            with body.if_then("!=", response, None):
                status = body.call(
                    response, "getStatus", ret=body.fresh_local("st").name,
                    cls=response_cls, return_type="int",
                )
                with body.if_then("<", status, 400):
                    body.call(
                        response, body_method,
                        ret=body.fresh_local("data").name, cls=response_cls,
                    )
    else:
        body.call(
            response, body_method, ret=body.fresh_local("data").name,
            cls=response_cls,
        )


# -- per-library emitters ----------------------------------------------------


def _emit_basichttp(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    client = body.new(_BASIC, body.fresh_local("client").name)
    if spec.with_timeout:
        body.call(client, "setReadWriteTimeout", spec.timeout_ms, cls=_BASIC)
    if spec.with_retry:
        body.call(client, "setMaxRetries", spec.retry_value, cls=_BASIC)
    verb = "post" if spec.http_post else "get"

    if spec.retry_loop is not RetryLoopShape.NONE:
        return _emit_retry_loop(app, body, spec, client, verb)

    region = body.begin_try()
    response = body.call(
        client, verb, spec.url, ret=body.fresh_local("resp").name,
        cls=_BASIC, return_type=_BASIC_RESP,
    )
    _emit_response_use(body, spec, response, _BASIC_RESP, "getBodyAsString")
    body.begin_catch(region, "java.io.IOException")
    _emit_notification(app, body, spec)
    body.end_try(region)


def _emit_httpurlconnection(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    conn = body.new(_URLCONN, body.fresh_local("conn").name)
    if spec.with_timeout:
        body.call(conn, "setConnectTimeout", spec.timeout_ms, cls=_URLCONN)
        body.call(conn, "setReadTimeout", spec.timeout_ms, cls=_URLCONN)
    if spec.http_post:
        body.call(conn, "setRequestMethod", "POST", cls=_URLCONN)
        body.call(conn, "setDoOutput", True, cls=_URLCONN)
    if spec.retry_loop is not RetryLoopShape.NONE:
        return _emit_retry_loop(app, body, spec, conn, "getInputStream")
    region = body.begin_try()
    stream = body.call(
        conn, "getInputStream", ret=body.fresh_local("in").name, cls=_URLCONN,
        return_type="java.io.InputStream",
    )
    body.call(stream, "read", cls="java.io.InputStream", ret=body.fresh_local("n").name)
    body.begin_catch(region, "java.io.IOException")
    _emit_notification(app, body, spec)
    body.end_try(region)


def _emit_apache(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    client = body.new(_APACHE_CLIENT, body.fresh_local("client").name)
    if spec.with_timeout:
        params = body.call(
            client, "getParams", ret=body.fresh_local("params").name,
            cls=_APACHE_CLIENT, return_type="org.apache.http.params.HttpParams",
        )
        body.static_call(
            "org.apache.http.params.HttpConnectionParams",
            "setConnectionTimeout", params, spec.timeout_ms, ret=None,
        )
    if spec.with_retry:
        handler = body.new(
            "org.apache.http.impl.client.DefaultHttpRequestRetryHandler",
            body.fresh_local("rh").name, args=[spec.retry_value, False],
        )
        body.call(client, "setHttpRequestRetryHandler", handler, cls=_APACHE_CLIENT)
    req_cls = (
        "org.apache.http.client.methods.HttpPost"
        if spec.http_post
        else "org.apache.http.client.methods.HttpGet"
    )
    reqobj = body.new(req_cls, body.fresh_local("req").name, args=[spec.url])
    if spec.retry_loop is not RetryLoopShape.NONE:
        return _emit_retry_loop(app, body, spec, client, "execute", extra_args=(reqobj,))
    region = body.begin_try()
    response = body.call(
        client, "execute", reqobj, ret=body.fresh_local("resp").name,
        cls=_APACHE_CLIENT, return_type="org.apache.http.HttpResponse",
    )
    body.call(
        response, "getEntity", ret=body.fresh_local("entity").name,
        cls="org.apache.http.HttpResponse",
    )
    body.begin_catch(region, "java.io.IOException")
    _emit_notification(app, body, spec)
    body.end_try(region)


def _emit_okhttp(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    client = body.new(_OK_CLIENT, body.fresh_local("client").name)
    if spec.with_timeout:
        body.call(client, "setReadTimeout", spec.timeout_ms, cls=_OK_CLIENT)
    if spec.with_retry:
        body.call(
            client, "setRetryOnConnectionFailure",
            spec.retry_value > 0, cls=_OK_CLIENT,
        )
    call = body.call(
        client, "newCall", spec.url, ret=body.fresh_local("call").name,
        cls=_OK_CLIENT, return_type=_OK_CALL,
    )
    if spec.use_async:
        callback_cls = _make_okhttp_callback(app, spec)
        callback = body.new(callback_cls, body.fresh_local("cb").name)
        body.call(call, "enqueue", callback, cls=_OK_CALL)
        return
    region = body.begin_try()
    response = body.call(
        call, "execute", ret=body.fresh_local("resp").name, cls=_OK_CALL,
        return_type=_OK_RESP,
    )
    _emit_response_use(body, spec, response, _OK_RESP, "body")
    body.begin_catch(region, "java.io.IOException")
    _emit_notification(app, body, spec)
    body.end_try(region)


def _make_okhttp_callback(app: AppBuilder, spec: RequestSpec) -> str:
    """An OkHttp Callback class: onResponse dereferences the response
    (optionally behind isSuccessful) and onFailure carries the spec's
    notification behaviour."""
    name = app.fresh_name("OkCallback")
    cls = app.new_class(name, interfaces=["com.squareup.okhttp.Callback"])
    ok = cls.method("onResponse", params=[(_OK_RESP, "response")])
    _emit_response_use(ok, spec, Local("response", _OK_RESP), _OK_RESP, "body")
    ok.ret()
    cls.add(ok)
    fail = cls.method(
        "onFailure",
        params=[("com.squareup.okhttp.Request", "req"), ("java.io.IOException", "e")],
    )
    _emit_notification(app, fail, spec)
    fail.ret()
    cls.add(fail)
    return name


def _emit_asynchttp(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    client = body.new(_ASYNC_CLIENT, body.fresh_local("client").name)
    if spec.with_timeout:
        body.call(client, "setTimeout", spec.timeout_ms, cls=_ASYNC_CLIENT)
    if spec.with_retry:
        body.call(
            client, "setMaxRetriesAndTimeout", spec.retry_value, 1000,
            cls=_ASYNC_CLIENT,
        )
    handler_cls = _make_async_handler(app, spec)
    handler = body.new(handler_cls, body.fresh_local("handler").name)
    verb = "post" if spec.http_post else "get"
    body.call(client, verb, spec.url, handler, cls=_ASYNC_CLIENT)


def _make_async_handler(app: AppBuilder, spec: RequestSpec) -> str:
    name = app.fresh_name("ResponseHandler")
    cls = app.new_class(
        name, interfaces=["com.loopj.android.http.AsyncHttpResponseHandler"]
    )
    b = cls.method("onSuccess", params=[("java.lang.String", "response")])
    b.static_call(_LOG, "d", "net", "ok", ret=None)
    b.ret()
    cls.add(b)
    b = cls.method(
        "onFailure",
        params=[
            ("int", "statusCode"),
            ("java.lang.Object", "headers"),
            ("java.lang.String", "responseBody"),
            ("java.lang.Throwable", "error"),
        ],
    )
    _emit_notification(app, b, spec)
    b.ret()
    cls.add(b)
    return name


def _emit_volley(
    app: AppBuilder, body: MethodBuilder, spec: RequestSpec, user: bool
) -> None:
    queue = body.new(_VOLLEY_QUEUE, body.fresh_local("queue").name)
    listener_cls = _make_volley_listener(app)
    error_cls = _make_volley_error_listener(app, spec)
    listener = body.new(listener_cls, body.fresh_local("listener").name)
    error = body.new(error_cls, body.fresh_local("errl").name)
    method_code = 1 if spec.http_post else 0
    request = body.new(
        _VOLLEY_REQ,
        body.fresh_local("request").name,
        args=[Const(method_code), spec.url, listener, error],
    )
    if spec.with_retry or spec.with_timeout:
        timeout = spec.timeout_ms if spec.with_timeout else 2500
        retries = spec.retry_value if spec.with_retry else 1
        policy = body.new(
            _VOLLEY_POLICY,
            body.fresh_local("policy").name,
            args=[Const(timeout), Const(retries), Const(1)],
        )
        body.call(request, "setRetryPolicy", policy, cls="com.android.volley.Request")
    body.call(queue, "add", request, cls=_VOLLEY_QUEUE)


def _make_volley_listener(app: AppBuilder) -> str:
    name = app.fresh_name("OkListener")
    cls = app.new_class(name, interfaces=["com.android.volley.Response$Listener"])
    b = cls.method("onResponse", params=[("java.lang.String", "response")])
    b.static_call(_LOG, "d", "net", "ok", ret=None)
    b.ret()
    cls.add(b)
    return name


def _make_volley_error_listener(app: AppBuilder, spec: RequestSpec) -> str:
    name = app.fresh_name("ErrListener")
    cls = app.new_class(name, interfaces=["com.android.volley.Response$ErrorListener"])
    b = cls.method(
        "onErrorResponse", params=[("com.android.volley.VolleyError", "error")]
    )
    if spec.uses_error_types:
        b.assign(
            "isConn",
            InstanceOfExpr(Local("error"), "com.android.volley.NoConnectionError"),
        )
        with b.if_then("==", Local("isConn"), True):
            _emit_notification(app, b, spec)
        b.ret()
    else:
        _emit_notification(app, b, spec)
        b.ret()
    cls.add(b)
    return name


# -- customized retry loops (Fig 6 shapes) ------------------------------------


def _emit_retry_loop(
    app: AppBuilder,
    body: MethodBuilder,
    spec: RequestSpec,
    client: Local,
    verb: str,
    extra_args: tuple = (),
) -> None:
    if spec.retry_loop is RetryLoopShape.CALLEE_CATCH:
        return _emit_fig6d(app, body, spec, client, verb, extra_args)
    if spec.retry_loop is RetryLoopShape.UNCONDITIONAL_EXIT:
        return _emit_fig6b(app, body, spec, client, verb, extra_args)
    return _emit_fig6c(app, body, spec, client, verb, extra_args)


def _request_args(spec: RequestSpec, extra_args: tuple) -> tuple:
    return extra_args if extra_args else (spec.url,)


def _emit_backoff(body: MethodBuilder, spec: RequestSpec, delay_local: str) -> None:
    if spec.backoff is Backoff.NONE:
        return
    if spec.backoff is Backoff.FIXED_SMALL:
        body.static_call("java.lang.Thread", "sleep", 500, ret=None)
        return
    # Exponential: delay doubles every attempt.
    body.assign(delay_local, BinaryExpr("*", Local(delay_local), Const(2)))
    body.static_call("java.lang.Thread", "sleep", Local(delay_local), ret=None)


def _emit_fig6b(app, body, spec, client, verb, extra_args) -> None:
    """for(;;) { try { send; return; } catch (e) { [backoff] } }"""
    body.assign("delay", 250)
    with body.loop():
        region = body.begin_try()
        body.call(
            client, verb, *_request_args(spec, extra_args),
            ret=body.fresh_local("resp").name,
            cls=client.type_hint,
        )
        body.ret()
        body.begin_catch(region, "java.io.IOException")
        _emit_notification(app, body, spec)
        _emit_backoff(body, spec, "delay")
        body.end_try(region)


def _emit_fig6c(app, body, spec, client, verb, extra_args) -> None:
    """while (retry) { try { send; retry=false; } catch { retry=shouldRetry(); } }"""
    body.assign("retry", True)
    body.assign("delay", 250)
    with body.while_loop("==", Local("retry"), True):
        region = body.begin_try()
        body.call(
            client, verb, *_request_args(spec, extra_args),
            ret=body.fresh_local("resp").name,
            cls=client.type_hint,
        )
        body.assign("retry", False)
        body.begin_catch(region, "java.io.IOException")
        _emit_notification(app, body, spec)
        _emit_backoff(body, spec, "delay")
        should = body.static_call(
            "java.lang.Math", "random", ret="should", return_type="boolean"
        )
        body.assign("retry", Local("should"))
        body.end_try(region)


def _emit_fig6d(app, body, spec, client, verb, extra_args) -> tuple[str, str]:
    """while (!success) { success = sendOnce(...); } with sendOnce catching
    IOException into its boolean return.

    The request physically lands in the helper method, so its (class,
    method) pair is returned for the ground-truth ledger.
    """
    helper_cls = app.get_class_builder(body.sig.class_name)
    helper_name = f"sendOnceFor_{body.sig.name}"
    hb = helper_cls.method(
        helper_name,
        params=[(client.type_hint or "java.lang.Object", "client")],
        return_type="boolean",
    )
    region = hb.begin_try()
    if client.type_hint == _APACHE_CLIENT:
        # Apache sends request *objects*: rebuild one inside the helper so
        # POST detection sees the same shape as the straight-line emitter.
        req_cls = (
            "org.apache.http.client.methods.HttpPost"
            if spec.http_post
            else "org.apache.http.client.methods.HttpGet"
        )
        reqobj = hb.new(req_cls, hb.fresh_local("req").name, args=[spec.url])
        hb.call(
            Local("client", client.type_hint), verb, reqobj,
            ret=hb.fresh_local("resp").name, cls=client.type_hint,
        )
    else:
        hb.call(
            Local("client", client.type_hint), verb, spec.url,
            ret=hb.fresh_local("resp").name, cls=client.type_hint,
        )
    hb.ret(True)
    hb.begin_catch(region, "java.io.IOException")
    _emit_notification(app, hb, spec)
    hb.ret(False)
    hb.end_try(region)
    helper_cls.add(hb)

    body.assign("success", False)
    body.assign("delay", 250)
    with body.while_loop("==", Local("success"), False):
        _emit_backoff(body, spec, "delay")
        body.call(
            Local("this"), helper_name, client,
            ret="success", cls=body.sig.class_name, return_type="boolean",
        )
    return helper_cls.name, helper_name


_EMITTERS = {
    "basichttp": _emit_basichttp,
    "httpurlconnection": _emit_httpurlconnection,
    "apache": _emit_apache,
    "okhttp": _emit_okhttp,
    "asynchttp": _emit_asynchttp,
    "volley": _emit_volley,
}

SUPPORTED_LIBRARIES = tuple(_EMITTERS)
