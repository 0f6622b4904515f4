"""Ground-truth ledger and accuracy accounting (paper §5.3, Table 9).

Every generated request records the *semantic* defects present (what a
human code reviewer would confirm).  Comparing checker findings against
the ledger yields per-kind confusion counts: correct warnings, false
positives (warned, no real defect — the paper's inter-component shapes),
and false negatives (real defect, no warning — the paper's
path-insensitive connectivity shapes).
"""

from __future__ import annotations

from .._record import field, record
from ..core.checker import ScanResult
from ..core.defects import DefectKind
from .snippets import InjectedRequest

#: Defect kinds aggregated into Table 9's "Over retries" row.
OVER_RETRY_KINDS = frozenset(
    {
        DefectKind.NO_RETRY_TIME_SENSITIVE,
        DefectKind.OVER_RETRY_SERVICE,
        DefectKind.OVER_RETRY_POST,
    }
)

#: Table 9 row labels, in paper order, and the kinds each aggregates.
TABLE9_ROWS: tuple[tuple[str, frozenset[DefectKind]], ...] = (
    ("Missed conn. checks", frozenset({DefectKind.MISSED_CONNECTIVITY_CHECK})),
    ("Missed timeout APIs", frozenset({DefectKind.MISSED_TIMEOUT})),
    ("Missed retry APIs", frozenset({DefectKind.MISSED_RETRY})),
    ("Over retries", OVER_RETRY_KINDS),
    ("Missed failure notifications", frozenset({DefectKind.MISSED_NOTIFICATION})),
    ("Missed response checks", frozenset({DefectKind.MISSED_RESPONSE_CHECK})),
)


@record
class AppGroundTruth:
    """Injected requests (and their expected defects) for one app."""

    package: str
    requests: list[InjectedRequest] = field(default_factory=list)


@record
class Confusion:
    """Per-kind-group confusion counts."""

    correct: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    @property
    def reported(self) -> int:
        return self.correct + self.false_positives

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.correct + other.correct,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


def confusion_for_app(
    truth: AppGroundTruth, result: ScanResult, kinds: frozenset[DefectKind]
) -> Confusion:
    """Compare findings against ground truth for one defect-kind group.

    Counts are per (request-host-method, kind): a finding is *correct* when
    the ledger expects that kind in that method, a *false positive*
    otherwise; an expected defect with no matching finding is a *false
    negative*.  Method granularity matches how the paper verified warnings
    against source code.
    """
    expected: set[tuple[str, str, DefectKind]] = set()
    for request in truth.requests:
        for kind in request.expected:
            if kind in kinds:
                expected.add((request.host_class, request.host_method, kind))

    reported: set[tuple[str, str, DefectKind]] = set()
    for finding in result.findings:
        if finding.kind not in kinds:
            continue
        if finding.request is not None:
            key = (
                finding.request.method.class_name,
                finding.request.method.name,
                finding.kind,
            )
        else:
            key = (finding.method_key[0], finding.method_key[1], finding.kind)
        reported.add(key)
    # Findings carry the request they concern, and the ledger records the
    # request's injection site, so exact (class, method, kind) matching is
    # sound: the corpus injects at most one request per method.
    correct = len(reported & expected)
    false_positive = len(reported - expected)
    false_negative = len(expected - reported)
    return Confusion(correct, false_positive, false_negative)


def table9_confusions(
    truths: list[AppGroundTruth], results: list[ScanResult]
) -> dict[str, Confusion]:
    """Aggregate Table 9 over a corpus (apps matched by package name)."""
    by_package = {r.package: r for r in results}
    table: dict[str, Confusion] = {label: Confusion() for label, _ in TABLE9_ROWS}
    for truth in truths:
        result = by_package.get(truth.package)
        if result is None:
            continue
        for label, kinds in TABLE9_ROWS:
            table[label] = table[label] + confusion_for_app(truth, result, kinds)
    return table


def overall_accuracy(table: dict[str, Confusion]) -> float:
    """Correct warnings / all warnings (the paper's 94 %+ metric)."""
    correct = sum(c.correct for c in table.values())
    reported = sum(c.reported for c in table.values())
    return correct / reported if reported else 1.0


# ---------------------------------------------------------------------------
# JSON ledger (``nchecker corpus`` writes groundtruth.json next to the
# .apkt files, so external tools can score their own scans)
# ---------------------------------------------------------------------------


def ledger_entry(truth: AppGroundTruth) -> dict:
    """JSON-safe view of one app's injected requests."""
    return {
        "package": truth.package,
        "requests": [
            {
                "host_class": req.host_class,
                "host_method": req.host_method,
                "library": req.spec.library,
                "expected": sorted(kind.value for kind in req.expected),
                "spec": {
                    "http_post": req.spec.http_post,
                    "connectivity": req.spec.connectivity.value,
                    "with_timeout": req.spec.with_timeout,
                    "timeout_ms": req.spec.timeout_ms,
                    "with_retry": req.spec.with_retry,
                    "retry_value": req.spec.retry_value,
                    "notification": req.spec.with_notification.value,
                    "with_response_check": req.spec.with_response_check,
                    "uses_error_types": req.spec.uses_error_types,
                    "retry_loop": req.spec.retry_loop.value,
                    "backoff": req.spec.backoff.value,
                    "use_async": req.spec.use_async,
                    "url": req.spec.url,
                },
            }
            for req in truth.requests
        ],
    }


def dumps_ledger(truths: list[AppGroundTruth]) -> str:
    """The ``groundtruth.json`` ledger for a generated corpus."""
    from .._jsonwriter import dumps

    return dumps([ledger_entry(truth) for truth in truths]) + "\n"
