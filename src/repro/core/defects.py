"""The NPD taxonomy: root causes (Table 3), UX impacts (Fig 4), API
misuse patterns (Table 5), and the concrete defect kinds NChecker reports
(Table 6 rows)."""

from __future__ import annotations

from enum import Enum

from .._record import record


class Impact(Enum):
    """UX impact categories and their share among the 90 studied NPDs
    (paper Fig 4)."""

    DYSFUNCTION = "Dysfunction"
    UNFRIENDLY_UI = "Unfriendly UI"
    CRASH_FREEZE = "Crash/Freeze"
    BATTERY_DRAIN = "Battery drain"


#: Fig 4 distribution (percent of the 90 studied NPDs).
IMPACT_DISTRIBUTION: dict[Impact, int] = {
    Impact.DYSFUNCTION: 36,
    Impact.UNFRIENDLY_UI: 33,
    Impact.CRASH_FREEZE: 21,
    Impact.BATTERY_DRAIN: 10,
}


class RootCause(Enum):
    """Root causes of the studied NPDs (paper Table 3 / §2.3)."""

    NO_CONNECTIVITY_CHECK = "No connectivity checks"
    MISHANDLED_TRANSIENT = "Mishandling transient error"
    MISHANDLED_PERMANENT = "Mishandling permanent error"
    MISHANDLED_SWITCH = "Mishandling network switch"


#: Table 3: cases (of 90) per root cause.
ROOT_CAUSE_CASES: dict[RootCause, int] = {
    RootCause.NO_CONNECTIVITY_CHECK: 27,
    RootCause.MISHANDLED_TRANSIENT: 12,
    RootCause.MISHANDLED_PERMANENT: 24,
    RootCause.MISHANDLED_SWITCH: 27,
}


class MisusePattern(Enum):
    """API misuse patterns (paper Table 5 / §4.2)."""

    MISS_REQUEST_SETTING = "Miss request setting APIs"
    IMPROPER_PARAMETERS = "Improper API parameters"
    NO_ERROR_MESSAGE = "No/implicit error message"
    MISS_RESPONSE_CHECK = "Miss response checking APIs"


class DefectKind(Enum):
    """The concrete defect kinds NChecker detects (Table 6 rows plus the
    sub-kinds of improper retry from Table 8 and §4.4.3's error-type
    check)."""

    MISSED_CONNECTIVITY_CHECK = "missed-connectivity-check"
    MISSED_TIMEOUT = "missed-timeout"
    MISSED_RETRY = "missed-retry"
    NO_RETRY_TIME_SENSITIVE = "no-retry-time-sensitive"
    OVER_RETRY_SERVICE = "over-retry-in-service"
    OVER_RETRY_POST = "over-retry-on-post"
    MISSED_NOTIFICATION = "missed-failure-notification"
    MISSED_ERROR_TYPE_CHECK = "missed-error-type-check"
    MISSED_RESPONSE_CHECK = "missed-response-check"
    AGGRESSIVE_RETRY_LOOP = "aggressive-retry-loop"
    #: Experimental (paper Cause 4.1, unchecked by the original tool):
    #: long-lived connections never re-established on network switches.
    NO_RECONNECT_ON_SWITCH = "no-reconnection-on-switch"
    #: Extended taxonomy classes (PAPERS.md: *Detecting Connectivity
    #: Issues in Android Apps*), powered by the thread-context and
    #: callback-lifecycle analyses — opt-in via ``enabled_checks``.
    UI_THREAD_NETWORK = "ui-thread-network"
    CALLBACK_LEAK = "callback-leak"
    MISSED_OFFLINE_CACHE = "missed-offline-cache"


#: Defect kind → API misuse pattern (Table 5 column mapping).
KIND_PATTERN: dict[DefectKind, MisusePattern] = {
    DefectKind.MISSED_CONNECTIVITY_CHECK: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.MISSED_TIMEOUT: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.MISSED_RETRY: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.NO_RETRY_TIME_SENSITIVE: MisusePattern.IMPROPER_PARAMETERS,
    DefectKind.OVER_RETRY_SERVICE: MisusePattern.IMPROPER_PARAMETERS,
    DefectKind.OVER_RETRY_POST: MisusePattern.IMPROPER_PARAMETERS,
    DefectKind.MISSED_NOTIFICATION: MisusePattern.NO_ERROR_MESSAGE,
    DefectKind.MISSED_ERROR_TYPE_CHECK: MisusePattern.NO_ERROR_MESSAGE,
    DefectKind.MISSED_RESPONSE_CHECK: MisusePattern.MISS_RESPONSE_CHECK,
    DefectKind.AGGRESSIVE_RETRY_LOOP: MisusePattern.IMPROPER_PARAMETERS,
    DefectKind.NO_RECONNECT_ON_SWITCH: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.UI_THREAD_NETWORK: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.CALLBACK_LEAK: MisusePattern.MISS_REQUEST_SETTING,
    DefectKind.MISSED_OFFLINE_CACHE: MisusePattern.MISS_REQUEST_SETTING,
}

#: Defect kind → root cause (how Table 5 column 2 maps patterns back to §2.3).
KIND_ROOT_CAUSE: dict[DefectKind, RootCause] = {
    DefectKind.MISSED_CONNECTIVITY_CHECK: RootCause.NO_CONNECTIVITY_CHECK,
    DefectKind.MISSED_TIMEOUT: RootCause.MISHANDLED_PERMANENT,
    DefectKind.MISSED_RETRY: RootCause.MISHANDLED_TRANSIENT,
    DefectKind.NO_RETRY_TIME_SENSITIVE: RootCause.MISHANDLED_TRANSIENT,
    DefectKind.OVER_RETRY_SERVICE: RootCause.MISHANDLED_TRANSIENT,
    DefectKind.OVER_RETRY_POST: RootCause.MISHANDLED_TRANSIENT,
    DefectKind.MISSED_NOTIFICATION: RootCause.MISHANDLED_PERMANENT,
    DefectKind.MISSED_ERROR_TYPE_CHECK: RootCause.MISHANDLED_PERMANENT,
    DefectKind.MISSED_RESPONSE_CHECK: RootCause.MISHANDLED_PERMANENT,
    DefectKind.AGGRESSIVE_RETRY_LOOP: RootCause.MISHANDLED_TRANSIENT,
    DefectKind.NO_RECONNECT_ON_SWITCH: RootCause.MISHANDLED_SWITCH,
    DefectKind.UI_THREAD_NETWORK: RootCause.MISHANDLED_PERMANENT,
    DefectKind.CALLBACK_LEAK: RootCause.MISHANDLED_SWITCH,
    DefectKind.MISSED_OFFLINE_CACHE: RootCause.MISHANDLED_PERMANENT,
}

#: Defect kind → dominant UX impact (used in reports — paper §4.6 item 2).
KIND_IMPACT: dict[DefectKind, Impact] = {
    DefectKind.MISSED_CONNECTIVITY_CHECK: Impact.BATTERY_DRAIN,
    DefectKind.MISSED_TIMEOUT: Impact.UNFRIENDLY_UI,
    DefectKind.MISSED_RETRY: Impact.DYSFUNCTION,
    DefectKind.NO_RETRY_TIME_SENSITIVE: Impact.DYSFUNCTION,
    DefectKind.OVER_RETRY_SERVICE: Impact.BATTERY_DRAIN,
    DefectKind.OVER_RETRY_POST: Impact.DYSFUNCTION,
    DefectKind.MISSED_NOTIFICATION: Impact.UNFRIENDLY_UI,
    DefectKind.MISSED_ERROR_TYPE_CHECK: Impact.UNFRIENDLY_UI,
    DefectKind.MISSED_RESPONSE_CHECK: Impact.CRASH_FREEZE,
    DefectKind.AGGRESSIVE_RETRY_LOOP: Impact.BATTERY_DRAIN,
    DefectKind.NO_RECONNECT_ON_SWITCH: Impact.DYSFUNCTION,
    DefectKind.UI_THREAD_NETWORK: Impact.CRASH_FREEZE,
    DefectKind.CALLBACK_LEAK: Impact.BATTERY_DRAIN,
    DefectKind.MISSED_OFFLINE_CACHE: Impact.DYSFUNCTION,
}

#: Fix-suggestion templates (paper §4.6 item 5, Fig 7); `{api}` is the
#: misused/missing API, `{target}` the request API.
FIX_SUGGESTIONS: dict[DefectKind, str] = {
    DefectKind.MISSED_CONNECTIVITY_CHECK: (
        "Use getActiveNetworkInfo() to check connectivity before {target}. "
        "Show error message if no connection."
    ),
    DefectKind.MISSED_TIMEOUT: (
        "Call {api} to set an explicit timeout before {target}; the default "
        "can block far longer than users tolerate."
    ),
    DefectKind.MISSED_RETRY: (
        "Call {api} to set a retry policy for {target}; transient mobile "
        "network errors need bounded retries."
    ),
    DefectKind.NO_RETRY_TIME_SENSITIVE: (
        "This user-initiated request never retries; call {api} with a small "
        "retry count so transient errors do not surface to the user."
    ),
    DefectKind.OVER_RETRY_SERVICE: (
        "Background requests should not retry aggressively; call {api} with "
        "0 retries to save energy and mobile data."
    ),
    DefectKind.OVER_RETRY_POST: (
        "POST is not idempotent; disable automatic retries via {api} "
        "(HTTP/1.1: a user agent MUST NOT automatically retry a request "
        "with a non-idempotent method)."
    ),
    DefectKind.MISSED_NOTIFICATION: (
        "Show a UI message (Toast/AlertDialog) in the error callback of "
        "{target} so users can tell network failures from empty results."
    ),
    DefectKind.MISSED_ERROR_TYPE_CHECK: (
        "Inspect the error object passed to the callback (NoConnectionError, "
        "TimeoutError, ClientError...) and handle each cause accordingly."
    ),
    DefectKind.MISSED_RESPONSE_CHECK: (
        "Call {api} (or null-check the response) before reading the body; "
        "responses can be invalid under network disruptions."
    ),
    DefectKind.AGGRESSIVE_RETRY_LOOP: (
        "This hand-rolled retry loop reconnects without backoff; add an "
        "exponential backoff delay between attempts to avoid battery drain."
    ),
    DefectKind.NO_RECONNECT_ON_SWITCH: (
        "Register a connectivity BroadcastReceiver (or call "
        "setReconnectionAllowed(true)) and re-establish {target} when the "
        "network switches; the old connection is stale after a WiFi/cellular "
        "hop."
    ),
    DefectKind.UI_THREAD_NETWORK: (
        "Move the blocking {target} call off the main thread (wrap it in an "
        "AsyncTask.doInBackground or a worker Runnable); on the UI thread it "
        "freezes the app and throws NetworkOnMainThreadException."
    ),
    DefectKind.CALLBACK_LEAK: (
        "Pair {api} with its unregistration on every lifecycle exit path "
        "(unregister in onPause/onDestroy what onResume/onCreate registers); "
        "a leaked connectivity callback keeps firing after the component is "
        "gone and drains the battery."
    ),
    DefectKind.MISSED_OFFLINE_CACHE: (
        "The connectivity-failure branch around {target} leaves the user "
        "with nothing; cache successful responses (LruCache/"
        "SharedPreferences) and serve the cached copy when the network is "
        "unavailable."
    ),
}


@record(frozen=True)
class DefectInfo:
    """Static metadata for one defect kind."""

    kind: DefectKind
    pattern: MisusePattern
    root_cause: RootCause
    impact: Impact
    fix_template: str


def defect_info(kind: DefectKind) -> DefectInfo:
    return DefectInfo(
        kind,
        KIND_PATTERN[kind],
        KIND_ROOT_CAUSE[kind],
        KIND_IMPACT[kind],
        FIX_SUGGESTIONS[kind],
    )
