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


def check_catalog(options, icc_model=None) -> list[tuple[Check, bool]]:
    """One fresh instance of every registered check, in run order, each
    paired with whether it runs under ``options`` — the only place checks
    are built, read by the scan session and ``nchecker checks``.

    A check runs when its name is in ``options.enabled_checks``; the
    experimental network-switch check is catalogued, and runs, only with
    ``options.check_network_switch``.  ``icc_model`` (the inter-component
    extension) goes to the connectivity and failure-notification checks.
    The retry-parameter check reads the config check's per-request info,
    so it comes after it.
    """
    config_check = ConfigAPICheck()
    checks = [
        config_check,
        ConnectivityCheck(
            guard_aware=options.guard_aware_connectivity,
            interprocedural=options.interprocedural_connectivity,
            icc_model=icc_model,
        ),
        RetryParameterCheck(config_check),
        NotificationCheck(
            options.notification_callee_depth, icc_model=icc_model
        ),
        ResponseCheck(),
        # The extended (taxonomy-driven) checks: absent from the default
        # `enabled_checks`, so default output stays the paper's.
        UiThreadNetworkCheck(),
        CallbackLeakCheck(),
        OfflineCacheCheck(),
    ]
    catalog = [(check, check.name in options.enabled_checks) for check in checks]
    if options.check_network_switch:
        from .network_switch import NetworkSwitchCheck

        catalog.append((NetworkSwitchCheck(), True))
    return catalog


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
