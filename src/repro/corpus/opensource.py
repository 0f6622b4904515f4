"""The 16-app "open-source" corpus for the accuracy evaluation (Table 9).

The paper measured accuracy on 16 open-source apps by manually verifying
every warning against source.  This module builds a deterministic 16-app
corpus whose defect roster reproduces Table 9 exactly:

=============================  =======  ===  =========
NPD cause                      correct  FP   known FN
=============================  =======  ===  =========
Missed conn. checks            31       4    5
Missed timeout APIs            58       0    0
Missed retry APIs              12       0    0
Over retries                   4        0    0
Missed failure notifications   20       5    0
Missed response checks         5        0    0
=============================  =======  ===  =========

The false positives and negatives are not injected as labels — they
emerge from the same analysis limitations the paper reports: the four
connectivity FPs come from two apps that check connectivity in a launcher
activity before starting the requesting activity (inter-component flow,
§5.3); the five FNs come from one app whose checks do not control-guard
the requests (path-insensitivity); the five notification FPs come from
one app that broadcasts the error code and shows the message in another
activity.
"""

from __future__ import annotations

from .._record import record
from ..app.apk import APK
from .appbuilder import AppBuilder
from .groundtruth import AppGroundTruth
from .snippets import (
    Connectivity,
    Notification,
    RequestSpec,
    inject_request,
)

_UI_METHODS = (
    "onClick",
    "onLongClick",
    "onItemClick",
    "onMenuItemClick",
    "onOptionsItemSelected",
    "onRefresh",
    "onEditorAction",
    "onQueryTextSubmit",
)
_UI_PARAMS = {
    "onClick": [("android.view.View", "v")],
    "onLongClick": [("android.view.View", "v")],
    "onItemClick": [("android.widget.AdapterView", "parent"), ("int", "pos")],
    "onMenuItemClick": [("android.view.MenuItem", "item")],
    "onOptionsItemSelected": [("android.view.MenuItem", "item")],
    "onRefresh": [],
    "onEditorAction": [("android.widget.TextView", "tv"), ("int", "action")],
    "onQueryTextSubmit": [("java.lang.String", "query")],
}

#: Names in homage to the apps the paper patched (§5.2).
_APP_NAMES = (
    "fdroid",
    "kontalk",
    "gpslogger",
    "ankidroid",
    "popcorntime",
    "galaxyzoo",
    "yaxim",
    "hackernews",
    "jamendo",
    "bombusmod",
    "owncloud",
    "gtalksms",
    "connectbot",
    "sipdroid",
    "wordpress",
    "devfest",
)


@record
class _Placement:
    spec: RequestSpec
    in_service: bool = False


def _plans() -> list[list[_Placement]]:
    """Request placements for each of the 16 apps."""

    def r(**kw) -> _Placement:
        in_service = kw.pop("in_service", False)
        return _Placement(RequestSpec(**kw), in_service)

    http = dict(library="httpurlconnection")
    toast = dict(with_notification=Notification.TOAST)
    guard = dict(connectivity=Connectivity.GUARDED)

    plans: list[list[_Placement]] = []

    # Apps 1-2 — the connectivity-FP apps: launcher checks connectivity,
    # then starts the requesting activity (2 inter-component requests each
    # + 1 honestly guarded one).
    for _ in range(2):
        plans.append(
            [
                r(**http, connectivity=Connectivity.INTER_COMPONENT, **toast),
                r(**http, connectivity=Connectivity.INTER_COMPONENT, **toast),
                r(**http, **guard, **toast),
            ]
        )

    # App 3 — the connectivity-FN app: five checks that never guard.
    plans.append(
        [r(**http, connectivity=Connectivity.UNGUARDED, **toast) for _ in range(5)]
    )

    # App 4 — the notification-FP app: five requests that broadcast the
    # error; another activity displays it.
    plans.append(
        [
            r(**http, **guard, with_notification=Notification.BROADCAST)
            for _ in range(5)
        ]
    )

    # Apps 5-8 — group A: 20 HttpURLConnection requests, no connectivity
    # check, no timeout, silent failures (the bulk of the correct
    # warnings: 20 conn + 20 timeout + 20 notification).
    for _ in range(4):
        plans.append([r(**http) for _ in range(5)])

    # Apps 9-10 — group B: 10 Apache requests with retry handlers and
    # honest guards; they contribute 10 missed timeouts only.
    for _ in range(2):
        plans.append(
            [
                r(library="apache", with_retry=True, retry_value=2, **guard, **toast)
                for _ in range(5)
            ]
        )

    # App 11 — group C1: Volley background/POST over-retries via defaults
    # (2 service requests + 1 POST), no retry config → 3 missed-retry.
    plans.append(
        [
            r(library="volley", uses_error_types=True, in_service=True, **toast),
            r(library="volley", uses_error_types=True, in_service=True, **toast),
            r(library="volley", uses_error_types=True, http_post=True, **guard, **toast),
        ]
    )

    # App 12 — group C2: 3 user Volley GETs without retry config or
    # connectivity checks.
    plans.append(
        [r(library="volley", uses_error_types=True, **toast) for _ in range(3)]
    )

    # App 13 — group D: 3 Android-Async-HTTP requests without retry config
    # or connectivity checks.
    plans.append([r(library="asynchttp", **toast) for _ in range(3)])

    # App 14 — group E: 3 Basic-HTTP requests without retry config or
    # connectivity checks; their responses are used unchecked (3 of the 5
    # response warnings).
    plans.append([r(library="basichttp", **toast) for _ in range(3)])

    # App 15 — group F + G1: an explicit retries=0 on a user request (the
    # no-retry-for-time-sensitive case) and one OkHttp request.
    plans.append(
        [
            r(
                library="basichttp",
                with_retry=True,
                retry_value=0,
                with_timeout=True,
                with_response_check=True,
                **guard,
                **toast,
            ),
            r(
                library="okhttp",
                with_retry=True,
                retry_value=1,
                with_timeout=True,
                **guard,
                **toast,
            ),
        ]
    )

    # App 16 — group G2: one more OkHttp request, response unchecked.
    plans.append(
        [
            r(
                library="okhttp",
                with_retry=True,
                retry_value=1,
                with_timeout=True,
                **guard,
                **toast,
            )
        ]
    )

    assert len(plans) == 16
    return plans


def build_opensource_corpus() -> list[tuple[APK, AppGroundTruth]]:
    """Build the 16 deterministic open-source-style apps."""
    corpus: list[tuple[APK, AppGroundTruth]] = []
    for name, placements in zip(_APP_NAMES, _plans()):
        package = f"org.opensource.{name}"
        app = AppBuilder(package)
        truth = AppGroundTruth(package)
        has_inter_component = any(
            p.spec.connectivity is Connectivity.INTER_COMPONENT for p in placements
        )
        if has_inter_component:
            _add_launcher_with_check(app)
        if any(p.spec.with_notification is Notification.BROADCAST for p in placements):
            _add_error_display_activity(app)

        activity = app.activity("MainActivity")
        ui_slots = list(_UI_METHODS)
        service_count = 0
        for placement in placements:
            if placement.in_service:
                service_count += 1
                service = app.service(f"SyncService{service_count}")
                body = service.method(
                    "onStartCommand",
                    params=[("android.content.Intent", "intent"), ("int", "flags")],
                    return_type="int",
                )
                record = inject_request(
                    app, body, placement.spec, user_initiated=False, background=True
                )
                body.ret(0)
                service.add(body)
            else:
                if not ui_slots:
                    activity = app.activity(f"Screen{len(truth.requests)}")
                    ui_slots = list(_UI_METHODS)
                method_name = ui_slots.pop(0)
                body = activity.method(method_name, params=_UI_PARAMS[method_name])
                record = inject_request(app, body, placement.spec, user_initiated=True)
                body.ret()
                activity.add(body)
            truth.requests.append(record)
        corpus.append((app.build(), truth))
    return corpus


def _add_launcher_with_check(app: AppBuilder) -> None:
    """The inter-component FP shape: the launcher checks connectivity and
    only then starts the requesting activity.  Static analysis without
    inter-component tracking cannot connect the two."""
    launcher = app.activity("LauncherActivity")
    b = launcher.method("onCreate", params=[("android.os.Bundle", "saved")])
    cm = b.new("android.net.ConnectivityManager", "cm")
    ni = b.call(cm, "getActiveNetworkInfo", ret="ni", cls="android.net.ConnectivityManager")
    with b.if_then("!=", ni, None):
        # An explicit Intent: the ICC extension resolves its target.
        intent = b.new(
            "android.content.Intent", "intent",
            args=[f"{app.package}.MainActivity"],
        )
        b.static_call("android.content.Context", "startActivity", intent, ret=None)
    b.ret()
    launcher.add(b)


def _add_error_display_activity(app: AppBuilder) -> None:
    """The notification-FP shape: a dedicated activity receives the error
    broadcast and shows the message."""
    display = app.activity("ErrorDisplayActivity")
    b = display.method(
        "onReceive",
        params=[("android.content.Context", "ctx"), ("android.content.Intent", "intent")],
    )
    toast = b.static_call(
        "android.widget.Toast", "makeText", "ctx", "Network error", 0,
        ret="t", return_type="android.widget.Toast",
    )
    b.call(toast, "show", cls="android.widget.Toast")
    b.ret()
    display.add(b)
