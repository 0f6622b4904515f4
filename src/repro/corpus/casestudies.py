"""Table 2, executable: the paper's six representative NPDs as runnable
buggy/fixed app pairs.

Each case study builds the defective app the paper describes, names the
network condition that triggers it, exposes a ``symptom`` predicate over
the runtime's :class:`~repro.netsim.runtime.RunReport`, and builds the
fixed variant implementing the "Developer's resolution" column.  The
tests (and `repro.eval`) verify the full arc for every row: NChecker
flags the buggy app, the symptom manifests at runtime, and the paper's
fix removes both.
"""

from __future__ import annotations

from typing import Callable

from .._record import record
from ..app.apk import APK
from ..core.defects import DefectKind, Impact
from ..ir.values import Local
from ..libmodels import extended_registry
from ..netsim.link import LinkProfile, LinkSchedule, OFFLINE, THREE_G, WIFI
from ..netsim.runtime import RunReport, Runtime
from .appbuilder import AppBuilder

#: Transient-error condition: individual attempts often fail, retries
#: usually recover (the Firefox download situation).
TRANSIENT_3G = LinkProfile("transient-3G", bandwidth_kbps=780, rtt_ms=100, loss_rate=0.22)
#: The WiFi→3G handover that stales long-lived connections.
HANDOVER = LinkSchedule(((0.0, WIFI), (5_000.0, THREE_G)))
#: Available but very poor (Fig 1's caption).
VERY_POOR = LinkProfile("very-poor", bandwidth_kbps=780, rtt_ms=100, loss_rate=0.995)


@record
class CaseStudy:
    """One executable row of Table 2."""

    case_id: str
    app_name: str
    description: str
    resolution: str
    impact: Impact
    detected_as: DefectKind
    entry: tuple[str, str]
    network: object  # LinkProfile or LinkSchedule
    build_buggy: Callable[[], APK]
    build_fixed: Callable[[], APK]
    #: Does this run exhibit the case's symptom?
    symptom: Callable[[RunReport], bool]
    seed: int = 7
    uses_xmpp: bool = False

    def run(self, apk: APK) -> RunReport:
        registry = extended_registry() if self.uses_xmpp else None
        runtime = Runtime(apk, self.network, registry=registry, seed=self.seed)
        return runtime.run_entry(*self.entry)


# ---------------------------------------------------------------------------
# (i) Firefox — "The download fails due to transient network errors"
# ---------------------------------------------------------------------------


def _firefox(with_retry: bool) -> APK:
    app = AppBuilder("case.firefox")
    activity = app.activity("DownloadActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    client = body.new("com.turbomanage.httpclient.BasicHttpClient", "client")
    body.call(client, "setReadWriteTimeout", 3000)
    if with_retry:
        body.call(client, "setMaxRetries", 5)
    else:
        body.call(client, "setMaxRetries", 0)
    region = body.begin_try()
    response = body.call(
        client, "get", "http://dl.example.com/file", ret="resp",
        return_type="com.turbomanage.httpclient.HttpResponse",
    )
    with body.if_then("!=", response, None):
        body.call(response, "getBodyAsString", ret="data",
                  cls="com.turbomanage.httpclient.HttpResponse")
    body.begin_catch(region, "java.io.IOException")
    toast = body.static_call("android.widget.Toast", "makeText", "ctx",
                             "Download failed", 0, ret="t",
                             return_type="android.widget.Toast")
    body.call(toast, "show", cls="android.widget.Toast")
    body.end_try(region)
    body.ret()
    activity.add(body)
    return app.build()


FIREFOX_DOWNLOAD = CaseStudy(
    "i",
    "Firefox",
    "The download fails due to transient network errors",
    "Add retry on connection failures",
    Impact.DYSFUNCTION,
    DefectKind.NO_RETRY_TIME_SENSITIVE,
    ("case.firefox.DownloadActivity", "onClick"),
    TRANSIENT_3G,
    lambda: _firefox(with_retry=False),
    lambda: _firefox(with_retry=True),
    symptom=lambda r: r.requests_succeeded == 0,  # the download never lands
    seed=2,
)


# ---------------------------------------------------------------------------
# (ii) Yaxim — "The sent message is lost on network failure"
# ---------------------------------------------------------------------------


def _yaxim(with_requeue: bool) -> APK:
    app = AppBuilder("case.yaxim")
    activity = app.activity("ChatActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    conn = body.new("org.jivesoftware.smack.XMPPConnection", "conn")
    if with_requeue:
        body.call(conn, "setReconnectionAllowed", True)
    body.call(conn, "connect")
    body.static_call("java.lang.Thread", "sleep", 10_000, ret=None)  # handover
    region = body.begin_try()
    body.call(conn, "sendPacket", "hello")
    body.begin_catch(region, "java.io.IOException")
    # The buggy version drops the message here; the resolution queues it
    # for re-sending (modelled as an immediate resend after reconnect).
    if with_requeue:
        body.call(conn, "connect")
        body.call(conn, "sendPacket", "hello")
    body.end_try(region)
    body.ret()
    activity.add(body)
    return app.build()


YAXIM_LOST_MESSAGE = CaseStudy(
    "ii",
    "Yaxim",
    "The sent message is lost on network failure",
    "Queue the message for re-sending",
    Impact.DYSFUNCTION,
    DefectKind.NO_RECONNECT_ON_SWITCH,
    ("case.yaxim.ChatActivity", "onClick"),
    HANDOVER,
    lambda: _yaxim(with_requeue=False),
    lambda: _yaxim(with_requeue=True),
    # Lost message: connect succeeded but the send never did.
    symptom=lambda r: r.requests_succeeded <= 1,
    uses_xmpp=True,
)


# ---------------------------------------------------------------------------
# (iii) Hacker News — "No indication if the feeds loading fails"
# ---------------------------------------------------------------------------


def _hackernews(with_message: bool) -> APK:
    from .snippets import Notification, RequestSpec, inject_request

    app = AppBuilder("case.hackernews")
    activity = app.activity("FeedActivity")
    body = activity.method("onRefresh")
    spec = RequestSpec(
        library="volley",
        with_notification=Notification.TOAST if with_message else Notification.NONE,
        uses_error_types=True,
    )
    inject_request(app, body, spec, user_initiated=True)
    body.ret()
    activity.add(body)
    return app.build()


HACKERNEWS_SILENT_FEED = CaseStudy(
    "iii",
    "Hacker News",
    "No indication if the feeds loading fails",
    "Add error message",
    Impact.UNFRIENDLY_UI,
    DefectKind.MISSED_NOTIFICATION,
    ("case.hackernews.FeedActivity", "onRefresh"),
    OFFLINE,
    lambda: _hackernews(with_message=False),
    lambda: _hackernews(with_message=True),
    symptom=lambda r: r.silent_failure,
)


# ---------------------------------------------------------------------------
# (iv) ChatSecure — "Do not handle no connection exception on login"
# ---------------------------------------------------------------------------


def _chatsecure(with_catch: bool) -> APK:
    app = AppBuilder("case.chatsecure")
    activity = app.activity("LoginActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    conn = body.new("org.jivesoftware.smack.XMPPConnection", "conn")
    if with_catch:
        region = body.begin_try()
        body.call(conn, "connect")
        ok = body.call(conn, "isConnected", ret="ok", return_type="boolean")
        with body.if_then("==", Local("ok"), True):
            body.call(conn, "login")
        body.begin_catch(region, "java.io.IOException")
        toast = body.static_call("android.widget.Toast", "makeText", "ctx",
                                 "Could not sign in - check your connection", 0,
                                 ret="t", return_type="android.widget.Toast")
        body.call(toast, "show", cls="android.widget.Toast")
        body.end_try(region)
    else:
        # The pre-patch shape of Fig 1: no guard, no catch.
        body.call(conn, "connect")
        body.call(conn, "login")
    body.ret()
    activity.add(body)
    return app.build()


CHATSECURE_LOGIN_CRASH = CaseStudy(
    "iv",
    "ChatSecure",
    "Do not handle no connection exception on login",
    "Add catch blocks",
    Impact.CRASH_FREEZE,
    DefectKind.MISSED_NOTIFICATION,  # plus the crash the runtime shows
    ("case.chatsecure.LoginActivity", "onClick"),
    VERY_POOR,
    lambda: _chatsecure(with_catch=False),
    lambda: _chatsecure(with_catch=True),
    symptom=lambda r: r.crashed,
    seed=11,
    uses_xmpp=True,
)


# ---------------------------------------------------------------------------
# (v) Chrome — "Failed XMLHttpRequest on webpage freezes the WebView"
# ---------------------------------------------------------------------------


def _chrome(with_timeout: bool) -> APK:
    app = AppBuilder("case.chrome")
    activity = app.activity("WebViewActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    client = body.new("com.squareup.okhttp.OkHttpClient", "client")
    if with_timeout:
        body.call(client, "setReadTimeout", 5000)
    call = body.call(client, "newCall", "http://xhr.example.com", ret="call",
                     return_type="com.squareup.okhttp.Call")
    region = body.begin_try()
    body.call(call, "execute", ret="resp", cls="com.squareup.okhttp.Call")
    body.begin_catch(region, "java.io.IOException")
    body.nop()  # "cancel the request on failure"
    body.end_try(region)
    body.ret()
    activity.add(body)
    return app.build()


CHROME_FROZEN_WEBVIEW = CaseStudy(
    "v",
    "Chrome",
    "Failed XMLHttpRequest on webpage freezes the WebView",
    "Cancel the request on failure",
    Impact.CRASH_FREEZE,
    DefectKind.MISSED_TIMEOUT,
    ("case.chrome.WebViewActivity", "onClick"),
    OFFLINE,
    lambda: _chrome(with_timeout=False),
    lambda: _chrome(with_timeout=True),
    symptom=lambda r: r.sim_time_ms > 60_000,  # the page hangs for minutes
)


# ---------------------------------------------------------------------------
# (vi) Kontalk — "Frequent synchronizations in offline mode"
# ---------------------------------------------------------------------------


def _kontalk(with_guard: bool) -> APK:
    app = AppBuilder("case.kontalk")
    service = app.service("SyncService")
    body = service.method(
        "onStartCommand",
        params=[("android.content.Intent", "intent"), ("int", "flags")],
        return_type="int",
    )
    if with_guard:
        cm = body.new("android.net.ConnectivityManager", "cm")
        ni = body.call(cm, "getActiveNetworkInfo", ret="ni")
        skip = body.fresh_label("offline")
        body.if_goto("==", Local("ni"), None, skip)
        _kontalk_sync_loop(body)
        body.label(skip)
        body.nop()
    else:
        _kontalk_sync_loop(body)
    body.ret(0)
    service.add(body)
    return app.build()


def _kontalk_sync_loop(body) -> None:
    client = body.new("com.turbomanage.httpclient.BasicHttpClient", "client")
    body.call(client, "setReadWriteTimeout", 2000)
    with body.loop():
        region = body.begin_try()
        body.call(client, "get", "http://sync.example.com", ret=body.fresh_local("r").name)
        body.ret(0)
        body.begin_catch(region, "java.io.IOException")
        body.nop()  # no backoff: sync again immediately
        body.end_try(region)


KONTALK_OFFLINE_SYNC = CaseStudy(
    "vi",
    "Kontalk",
    "Frequent synchronizations in offline mode",
    "Disable synchronization in offline",
    Impact.BATTERY_DRAIN,
    # The resolution is the connectivity guard, so that is the flag the
    # fix clears; the (still backoff-free) loop keeps its aggressive
    # warning, which is fair — the paper's Kontalk patch was partial too.
    DefectKind.MISSED_CONNECTIVITY_CHECK,
    ("case.kontalk.SyncService", "onStartCommand"),
    OFFLINE,
    lambda: _kontalk(with_guard=False),
    lambda: _kontalk(with_guard=True),
    symptom=lambda r: r.battery_drain,
)


CASE_STUDIES: tuple[CaseStudy, ...] = (
    FIREFOX_DOWNLOAD,
    YAXIM_LOST_MESSAGE,
    HACKERNEWS_SILENT_FEED,
    CHATSECURE_LOGIN_CRASH,
    CHROME_FROZEN_WEBVIEW,
    KONTALK_OFFLINE_SYNC,
)
