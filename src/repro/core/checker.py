"""The NChecker orchestrator (paper §4).

``NChecker.scan(apk)`` runs the full pipeline — build the call graph,
extract network requests with their contexts, identify customized retry
loops, and run the four analyses of §4.4 — over a per-APK artifact store
(see :mod:`repro.pipeline`): the enabled checks run in one fixed order,
the artifacts they read are built once (summary facts only when a check
first queries them), and repeat scans of an unchanged app reuse the
whole store.  The result object
carries the findings plus the per-request facts the evaluation harness
aggregates into the paper's tables and CDFs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .._record import field, record
from ..app.apk import APK
from ..libmodels import default_registry
from ..libmodels.annotations import LibraryRegistry
from .checks.config_apis import RequestConfigInfo
from .checks.notification import NotificationInfo
from .defects import DefectKind
from .findings import Finding
from .report import WarningReport, build_report
from .requests import NetworkRequest, RequestLocation
from .retry_loops import RetryLoop

if TYPE_CHECKING:
    from ..pipeline.scan import ScanSession


#: The paper's five analyses — the default ``enabled_checks`` set.
DEFAULT_CHECKS: frozenset[str] = frozenset(
    {"connectivity", "config-apis", "retry-parameters",
     "failure-notification", "invalid-response"}
)

#: The extended taxonomy checks (thread-context & callback-lifecycle
#: analyses).  Opt-in: enable with
#: ``NCheckerOptions(enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS)``
#: or ``nchecker scan --extended-checks``; default output stays
#: byte-identical with them off.
EXTENDED_CHECKS: frozenset[str] = frozenset(
    {"ui-thread-network", "callback-leak", "offline-cache"}
)


@record(frozen=True)
class NCheckerOptions:
    """Analysis knobs; the defaults reproduce the paper's configuration.

    The non-default settings exist for the ablation benchmarks:
    ``guard_aware_connectivity`` trades the paper's path-insensitive
    connectivity check (cheap, 5 known FNs) for a control-dependence-aware
    one; ``interprocedural_connectivity=False`` restricts the check to the
    request's own method; ``detect_retry_loops=False`` disables §4.5.
    """

    guard_aware_connectivity: bool = False
    interprocedural_connectivity: bool = True
    detect_retry_loops: bool = True
    #: The notification-depth ablation (DESIGN.md): ``None`` — the
    #: default — uses the summary engine's transitive notification facts;
    #: an int caps the failure-notification callee walk at that depth.
    notification_callee_depth: Optional[int] = None
    #: Enable the experimental network-switch analysis (paper Cause 4,
    #: which the original tool could not check — §4.2).  Needs a registry
    #: including the aSmack model (`repro.libmodels.extended_registry`).
    check_network_switch: bool = False
    #: Enable the inter-component extension (the paper's §4.7 future work:
    #: IccTA-style flows).  Launcher-side connectivity checks and
    #: broadcast-routed error displays are then recognised, removing the
    #: paper's two FP classes.
    inter_component: bool = False
    #: Root directory of the opt-in persistent cross-run artifact cache
    #: (:mod:`repro.pipeline.cachestore`).  ``None`` — the default, also
    #: on the CLI unless ``--cache-dir`` is given — keeps every artifact
    #: in-memory only.  Cached artifacts are keyed by app content, so
    #: this can never change scan output — only where the artifacts come
    #: from.
    cache_dir: Optional[str] = None
    enabled_checks: frozenset[str] = DEFAULT_CHECKS


@record
class ScanResult:
    """Everything one app scan produced."""

    apk: APK
    requests: list[NetworkRequest]
    findings: list[Finding]
    retry_loops: list[RetryLoop]
    config_info: dict[RequestLocation, RequestConfigInfo] = field(default_factory=dict)
    notification_info: dict[RequestLocation, NotificationInfo] = field(
        default_factory=dict
    )

    @property
    def package(self) -> str:
        return self.apk.package

    @property
    def is_buggy(self) -> bool:
        return bool(self.findings)

    def findings_of(self, *kinds: DefectKind) -> list[Finding]:
        wanted = set(kinds)
        return [f for f in self.findings if f.kind in wanted]

    def count_of(self, *kinds: DefectKind) -> int:
        return len(self.findings_of(*kinds))

    def config_of(self, request: NetworkRequest) -> Optional[RequestConfigInfo]:
        return self.config_info.get(request.loc)

    def notification_of(self, request: NetworkRequest) -> Optional[NotificationInfo]:
        return self.notification_info.get(request.loc)

    def libraries_used(self) -> set[str]:
        return {r.library.key for r in self.requests}

    def reports(self) -> list[WarningReport]:
        return [build_report(f) for f in self.findings]

    def to_dict(self) -> dict:
        """JSON-safe view of the scan (for `nchecker scan --json`)."""
        return {
            "package": self.package,
            "requests": [
                {
                    "location": r.location(),
                    "library": r.library.key,
                    "target": r.target.qualified,
                    "http_method": r.http_method.value,
                    "user_initiated": r.user_initiated,
                    "background": r.background,
                }
                for r in self.requests
            ],
            "findings": [
                {
                    "kind": f.kind.value,
                    "location": f.location,
                    "message": f.message,
                    "context": f.context,
                    "default_caused": f.default_caused,
                    "impact": f.info.impact.value,
                    "root_cause": f.info.root_cause.value,
                }
                for f in self.findings
            ],
            "summary": self.summary(),
            "custom_retry_loops": len(self.retry_loops),
        }

    def summary(self) -> dict[str, int]:
        by_kind: dict[str, int] = {}
        for finding in self.findings:
            by_kind[finding.kind.value] = by_kind.get(finding.kind.value, 0) + 1
        return by_kind


class NChecker:
    """Static NPD detector for Android-style app binaries.

    A thin façade over :class:`repro.pipeline.scan.ScanSession`: each
    scanned app gets a session owning its artifact store, cached per
    package (keyed by content fingerprint) so repeat scans of the same
    app — corpus rescans, scan-after-patch comparisons — reuse every
    derived artifact instead of just the summary engine.
    """

    def __init__(
        self,
        registry: Optional[LibraryRegistry] = None,
        options: NCheckerOptions = NCheckerOptions(),
    ) -> None:
        from ..pipeline.scan import SessionCache

        self.registry = registry or default_registry()
        self.options = options
        #: Per-APK scan sessions (artifact stores), reused across repeat
        #: scans of the same (unchanged) app.
        self.sessions = SessionCache()

    def scan(self, apk: APK) -> ScanResult:
        """Run all enabled analyses over one app."""
        return self.session_for(apk).scan()

    def session_for(self, apk: APK) -> "ScanSession":
        """The (cached) scan session for ``apk``."""
        return self.sessions.session_for(apk, self.registry, self.options)

    def open_session(self, apk: APK) -> "ScanSession":
        """A fresh session over ``apk``, outside the session cache — for
        callers that scan an app once, such as batch workers."""
        from ..pipeline.scan import ScanSession

        return ScanSession(apk, self.registry, self.options)
