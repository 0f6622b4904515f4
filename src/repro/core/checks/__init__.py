"""NChecker's analyses (paper §4.4 plus the extended taxonomy checks)
as pluggable checks."""

from __future__ import annotations

from .base import Check, methods_invoking, request_frames
from .callback_leak import CallbackLeakCheck
from .config_apis import ConfigAPICheck, RequestConfigInfo
from .connectivity import ConnectivityCheck
from .notification import NotificationCheck, NotificationInfo
from .offline_cache import OfflineCacheCheck
from .response import ResponseCheck
from .retry_params import RetryParameterCheck
from .ui_thread_network import UiThreadNetworkCheck


def check_catalog(options) -> list[Check]:
    """One fresh instance of every registered check, in pipeline order —
    the source of truth for ``nchecker checks`` and mirrored by the scan
    session's pass construction.  ``options`` feeds the knobs a check's
    constructor or :meth:`~Check.reads` consults (guard awareness,
    inter-component analysis); whether a check actually *runs* is decided by
    ``options.enabled_checks``, which the caller compares names against.
    """
    config_check = ConfigAPICheck()
    return [
        config_check,
        ConnectivityCheck(
            guard_aware=options.guard_aware_connectivity,
            interprocedural=options.interprocedural_connectivity,
        ),
        RetryParameterCheck(config_check),
        NotificationCheck(options.notification_callee_depth),
        ResponseCheck(),
        UiThreadNetworkCheck(),
        CallbackLeakCheck(),
        OfflineCacheCheck(),
    ]


__all__ = [
    "CallbackLeakCheck",
    "Check",
    "ConfigAPICheck",
    "ConnectivityCheck",
    "NotificationCheck",
    "NotificationInfo",
    "OfflineCacheCheck",
    "RequestConfigInfo",
    "ResponseCheck",
    "RetryParameterCheck",
    "UiThreadNetworkCheck",
    "check_catalog",
    "methods_invoking",
    "request_frames",
]
