"""Corpus-level aggregation: Tables 6-8 and the Fig 8/9 CDFs.

All functions take the list of :class:`~repro.core.checker.ScanResult`
produced by scanning a corpus and compute exactly the quantities the
paper's evaluation section reports.
"""

from __future__ import annotations

from typing import Optional

from .._record import field, record
from ..core.checker import ScanResult
from ..core.defects import DefectKind
from ..core.requests import RequestLocation

#: Table 6 "over retries" aggregates the three improper-parameter kinds.
_OVER_RETRY = (
    DefectKind.NO_RETRY_TIME_SENSITIVE,
    DefectKind.OVER_RETRY_SERVICE,
    DefectKind.OVER_RETRY_POST,
)


@record
class AppRequestFlags:
    """Per-app request-level outcome flags (the CDF raw material)."""

    package: str
    total_requests: int = 0
    missing_conn: int = 0
    retry_lib_requests: int = 0
    missing_retry: int = 0
    #: Requests on retry-capable libraries with no retry *API* configured
    #: (the paper's literal "never set retry APIs" — hand-rolled retry
    #: loops do not count as using the API).
    missing_retry_config: int = 0
    missing_timeout: int = 0
    user_requests: int = 0
    user_missing_notification: int = 0
    resp_lib_requests: int = 0
    missing_response_check: int = 0
    has_over_retry: bool = False
    over_retry_kinds: set = field(default_factory=set)
    default_caused_over_retries: int = 0
    over_retries: int = 0
    custom_retry_loops: int = 0

    @property
    def never_checks_connectivity(self) -> bool:
        return self.total_requests > 0 and self.missing_conn == self.total_requests

    @property
    def never_sets_timeout(self) -> bool:
        return self.total_requests > 0 and self.missing_timeout == self.total_requests

    @property
    def never_sets_retry(self) -> bool:
        return (
            self.retry_lib_requests > 0
            and self.missing_retry_config == self.retry_lib_requests
        )

    @property
    def never_notifies(self) -> bool:
        return (
            self.user_requests > 0
            and self.user_missing_notification == self.user_requests
        )

    @property
    def conn_miss_ratio(self) -> float:
        return self.missing_conn / self.total_requests if self.total_requests else 0.0

    @property
    def timeout_miss_ratio(self) -> float:
        return (
            self.missing_timeout / self.total_requests if self.total_requests else 0.0
        )

    @property
    def notification_miss_ratio(self) -> float:
        return (
            self.user_missing_notification / self.user_requests
            if self.user_requests
            else 0.0
        )


def app_flags(result: ScanResult) -> AppRequestFlags:
    """Fold one scan into per-request outcome flags."""
    flags = AppRequestFlags(result.package)
    findings_by_request: dict[RequestLocation, set[DefectKind]] = {}
    for finding in result.findings:
        if finding.request is not None:
            findings_by_request.setdefault(finding.request.loc, set()).add(
                finding.kind
            )
    for request in result.requests:
        kinds = findings_by_request.get(request.loc, set())
        flags.total_requests += 1
        if DefectKind.MISSED_CONNECTIVITY_CHECK in kinds:
            flags.missing_conn += 1
        if DefectKind.MISSED_TIMEOUT in kinds:
            flags.missing_timeout += 1
        if request.library.has_retry_api:
            flags.retry_lib_requests += 1
            if DefectKind.MISSED_RETRY in kinds:
                flags.missing_retry += 1
            config = result.config_of(request)
            if config is None or not config.has_retry_config:
                flags.missing_retry_config += 1
        if request.user_initiated:
            flags.user_requests += 1
            if DefectKind.MISSED_NOTIFICATION in kinds:
                flags.user_missing_notification += 1
        if request.library.has_response_check_api:
            flags.resp_lib_requests += 1
            if DefectKind.MISSED_RESPONSE_CHECK in kinds:
                flags.missing_response_check += 1
    for finding in result.findings:
        if finding.kind in _OVER_RETRY:
            flags.has_over_retry = True
            flags.over_retry_kinds.add(finding.kind)
            flags.over_retries += 1
            if finding.default_caused:
                flags.default_caused_over_retries += 1
    flags.custom_retry_loops = len(result.retry_loops)
    return flags


# ---------------------------------------------------------------------------
# Table 6 — percentage of buggy apps per NPD cause
# ---------------------------------------------------------------------------


@record
class Table6Row:
    cause: str
    eval_condition: str
    evaluated: int
    buggy: int

    @property
    def percent(self) -> int:
        return round(100 * self.buggy / self.evaluated) if self.evaluated else 0


def table6(results: list[ScanResult]) -> list[Table6Row]:
    flags = [app_flags(r) for r in results]
    with_requests = [f for f in flags if f.total_requests]
    retry_apps = [f for f in flags if f.retry_lib_requests]
    user_apps = [f for f in flags if f.user_requests]
    resp_apps = [f for f in flags if f.resp_lib_requests]
    return [
        Table6Row(
            "Missed conn. checks",
            "All apps",
            len(with_requests),
            sum(f.never_checks_connectivity for f in with_requests),
        ),
        Table6Row(
            "Missed timeout APIs",
            "Use libs that have timeout APIs",
            len(with_requests),
            sum(f.never_sets_timeout for f in with_requests),
        ),
        Table6Row(
            "Missed retry APIs",
            "Use libs that have retry APIs",
            len(retry_apps),
            sum(f.never_sets_retry for f in retry_apps),
        ),
        Table6Row(
            "Over retries",
            "Use libs that have retry APIs",
            len(retry_apps),
            sum(f.has_over_retry for f in retry_apps),
        ),
        Table6Row(
            "Missed failure notifications",
            "Include user initiated requests",
            len(user_apps),
            sum(f.never_notifies for f in user_apps),
        ),
        Table6Row(
            "Missed response checks",
            "Use libs that have resp. check APIs",
            len(resp_apps),
            sum(f.missing_response_check > 0 for f in resp_apps),
        ),
    ]


# ---------------------------------------------------------------------------
# Table 7 — evaluated apps per library
# ---------------------------------------------------------------------------


def table7(results: list[ScanResult]) -> dict[str, int]:
    counts = {"Native": 0, "Volley": 0, "Android Async Http": 0, "Basic Http": 0, "OkHttp": 0}
    for result in results:
        used = result.libraries_used()
        if used & {"httpurlconnection", "apache"}:
            counts["Native"] += 1
        if "volley" in used:
            counts["Volley"] += 1
        if "asynchttp" in used:
            counts["Android Async Http"] += 1
        if "basichttp" in used:
            counts["Basic Http"] += 1
        if "okhttp" in used:
            counts["OkHttp"] += 1
    return counts


# ---------------------------------------------------------------------------
# Table 8 — inappropriate retry behaviours
# ---------------------------------------------------------------------------


@record
class Table8Row:
    cause: str
    apps_percent: int
    default_caused_percent: int


def table8(results: list[ScanResult]) -> list[Table8Row]:
    flags = [app_flags(r) for r in results]
    retry_apps = [f for f in flags if f.retry_lib_requests]
    n = len(retry_apps)

    def row(cause: str, kind: DefectKind) -> Table8Row:
        apps_with = 0
        total_findings = 0
        default_caused = 0
        for result in results:
            matching = [f for f in result.findings if f.kind is kind]
            if not matching:
                continue
            app_flag = app_flags(result)
            if app_flag.retry_lib_requests:
                apps_with += 1
            total_findings += len(matching)
            default_caused += sum(f.default_caused for f in matching)
        return Table8Row(
            cause,
            round(100 * apps_with / n) if n else 0,
            round(100 * default_caused / total_findings) if total_findings else 0,
        )

    return [
        row("No retry in Activities", DefectKind.NO_RETRY_TIME_SENSITIVE),
        row("Over retry in Services", DefectKind.OVER_RETRY_SERVICE),
        row("Over retry in POST requests", DefectKind.OVER_RETRY_POST),
    ]


# ---------------------------------------------------------------------------
# Figures 8 and 9 — CDFs over per-app miss ratios
# ---------------------------------------------------------------------------


def fig8_conn_ratios(results: list[ScanResult]) -> list[float]:
    """Per-app ratio of requests missing the connectivity check, for apps
    that check *some but not all* requests (Fig 8 red line)."""
    ratios = []
    for result in results:
        flags = app_flags(result)
        if flags.total_requests and 0 < flags.missing_conn < flags.total_requests:
            ratios.append(flags.conn_miss_ratio)
    return ratios


def fig8_timeout_ratios(results: list[ScanResult]) -> list[float]:
    ratios = []
    for result in results:
        flags = app_flags(result)
        if flags.total_requests and 0 < flags.missing_timeout < flags.total_requests:
            ratios.append(flags.timeout_miss_ratio)
    return ratios


def fig9_notification_ratios(results: list[ScanResult]) -> list[float]:
    ratios = []
    for result in results:
        flags = app_flags(result)
        if (
            flags.user_requests
            and 0 < flags.user_missing_notification < flags.user_requests
        ):
            ratios.append(flags.notification_miss_ratio)
    return ratios


def cdf(values: list[float], points: Optional[list[float]] = None) -> list[tuple[float, float]]:
    """The empirical CDF of ``values`` sampled at ``points``."""
    if points is None:
        points = [i / 10 for i in range(11)]
    n = len(values)
    if n == 0:
        return [(p, 0.0) for p in points]
    sorted_values = sorted(values)
    return [
        (p, sum(1 for v in sorted_values if v <= p) / n)
        for p in points
    ]


def fraction_above(values: list[float], threshold: float) -> float:
    """Fraction of apps whose miss ratio exceeds ``threshold`` (the paper
    quotes "62 % of apps miss connectivity checking in over half of their
    requests")."""
    if not values:
        return 0.0
    return sum(1 for v in values if v > threshold) / len(values)


# ---------------------------------------------------------------------------
# §5.2.3 — explicit vs implicit callback notification rates
# ---------------------------------------------------------------------------


@record
class NotificationSplit:
    explicit_requests: int = 0
    explicit_notified: int = 0
    implicit_requests: int = 0
    implicit_notified: int = 0
    error_type_checked_apps: int = 0
    apps_with_volley: int = 0

    @property
    def explicit_rate(self) -> float:
        return (
            self.explicit_notified / self.explicit_requests
            if self.explicit_requests
            else 0.0
        )

    @property
    def implicit_rate(self) -> float:
        return (
            self.implicit_notified / self.implicit_requests
            if self.implicit_requests
            else 0.0
        )


def notification_split(results: list[ScanResult]) -> NotificationSplit:
    split = NotificationSplit()
    for result in results:
        app_checks_types = False
        app_has_volley = False
        for request in result.requests:
            info = result.notification_of(request)
            if info is None:
                continue
            if info.has_explicit_error_callback:
                split.explicit_requests += 1
                split.explicit_notified += info.notified
            else:
                split.implicit_requests += 1
                split.implicit_notified += info.notified
            if request.library.exposes_error_types:
                app_has_volley = True
                app_checks_types = app_checks_types or info.checks_error_types
        if app_has_volley:
            split.apps_with_volley += 1
            split.error_type_checked_apps += app_checks_types
    return split
