"""Table 11: observations → design guidelines for mobile network libraries.

The paper closes the loop from measurement to library design (§6): each
large-scale observation implies a guideline.  This module derives the
observation numbers from an actual corpus scan, pairing each with the
guideline text, so the printed Table 11 is *recomputed*, not quoted.
"""

from __future__ import annotations

from .._record import record
from ..core.checker import ScanResult
from .metrics import (
    app_flags,
    notification_split,
    table6,
)


@record(frozen=True)
class Guideline:
    observation: str
    guideline: str


def derive_guidelines(results: list[ScanResult]) -> list[Guideline]:
    """Recompute Table 11 from a corpus scan."""
    rows = {r.cause: r for r in table6(results)}
    flags = [app_flags(r) for r in results]
    retry_apps = [f for f in flags if f.retry_lib_requests]
    custom_retry_apps = sum(1 for f in flags if f.custom_retry_loops)
    over_retries = sum(f.over_retries for f in flags)
    default_over = sum(f.default_caused_over_retries for f in flags)
    split = notification_split(results)

    total_resp = sum(f.resp_lib_requests for f in flags)
    missed_resp = sum(f.missing_response_check for f in flags)

    def pct(n: int, d: int) -> int:
        return round(100 * n / d) if d else 0

    return [
        Guideline(
            f"{rows['Missed conn. checks'].percent}% apps never check "
            "network connectivity",
            "Automatically check connectivity before each network request",
        ),
        Guideline(
            f"{rows['Missed retry APIs'].percent}% apps ignore retry APIs; "
            f"only {pct(custom_retry_apps, len(flags))}% apps impl. "
            "customized retry",
            "Automatically retry on transient network error",
        ),
        Guideline(
            f"Over {pct(default_over, over_retries)}% of over retries are "
            "caused by default API values",
            "Set default retries considering the request context",
        ),
        Guideline(
            f"{rows['Missed failure notifications'].percent}% apps never "
            "show failure notifications for user-initiated requests",
            "Pre-define error message on network failure",
        ),
        Guideline(
            f"{pct(missed_resp, total_resp)}% of network requests miss "
            "validity checks",
            "Automatically put invalid response into error callbacks",
        ),
        Guideline(
            f"More apps show error mesg. in explicit error callbacks "
            f"({round(100 * split.explicit_rate)}%) than implicit ones "
            f"({round(100 * split.implicit_rate)}%)",
            "Explicitly separate success and error network callbacks",
        ),
        Guideline(
            f"{100 - pct(split.error_type_checked_apps, split.apps_with_volley)}"
            "% apps do not check error types",
            "Expose important error types in addition to error callbacks",
        ),
    ]
