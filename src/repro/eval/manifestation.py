"""Defect-manifestation study: do detected NPDs actually hurt users?

The paper classifies NPD impact from bug reports (Fig 4).  This module
closes the loop empirically, beyond what the paper could do with static
binaries: every corpus app is *executed* against disrupted networks and
its user-visible symptoms recorded, then cross-tabulated against the
static findings.  The result validates the detector end-to-end: apps
flagged for a defect class exhibit its symptom far more often than apps
that scan clean for it.
"""

from __future__ import annotations

from typing import Optional

from .._record import field, record
from ..app.apk import APK
from ..app.components import UI_CALLBACK_METHODS
from ..core.checker import NChecker, ScanResult
from ..core.defects import DefectKind
from ..netsim.energy import energy_per_hour_mj
from ..netsim.link import LinkProfile, OFFLINE
from ..netsim.runtime import Runtime

#: The degraded-but-connected condition (read timeouts, invalid responses).
POOR_3G = LinkProfile("poor-3G", bandwidth_kbps=780, rtt_ms=100, loss_rate=0.6)


@record
class AppObservation:
    """Symptoms one app exhibited across its entry points and links."""

    package: str
    findings: set[DefectKind] = field(default_factory=set)
    crashed: bool = False
    silent_failure: bool = False
    battery_drain: bool = False
    long_hang: bool = False
    energy_mj_per_hour: float = 0.0

    def symptom_for(self, kind: DefectKind) -> bool:
        """The Fig 4 impact mapping: which symptom evidences which kind."""
        if kind is DefectKind.MISSED_RESPONSE_CHECK:
            return self.crashed
        if kind in (DefectKind.MISSED_NOTIFICATION, DefectKind.MISSED_ERROR_TYPE_CHECK):
            return self.silent_failure
        if kind is DefectKind.AGGRESSIVE_RETRY_LOOP:
            return self.battery_drain
        if kind is DefectKind.MISSED_TIMEOUT:
            return self.long_hang
        return False


@record
class ManifestationRow:
    kind: DefectKind
    symptom: str
    flagged_apps: int
    flagged_symptomatic: int
    clean_apps: int
    clean_symptomatic: int

    @property
    def flagged_rate(self) -> float:
        return self.flagged_symptomatic / self.flagged_apps if self.flagged_apps else 0.0

    @property
    def clean_rate(self) -> float:
        return self.clean_symptomatic / self.clean_apps if self.clean_apps else 0.0


_STUDIED = (
    (DefectKind.MISSED_RESPONSE_CHECK, "crash"),
    (DefectKind.MISSED_NOTIFICATION, "silent failure"),
    (DefectKind.AGGRESSIVE_RETRY_LOOP, "battery drain"),
    (DefectKind.MISSED_TIMEOUT, "long hang"),
)


def observe_app(
    apk: APK,
    result: ScanResult,
    links: tuple[LinkProfile, ...] = (POOR_3G, OFFLINE),
    seed: int = 0,
    hang_threshold_ms: float = 30_000.0,
) -> AppObservation:
    """Run every UI entry point of ``apk`` under each link and fold the
    symptoms together."""
    observation = AppObservation(apk.package, {f.kind for f in result.findings})
    entries = [
        (cls.name, method.name)
        for cls in apk.classes()
        for method in cls.methods()
        if method.name in UI_CALLBACK_METHODS or method.name == "onStartCommand"
    ]
    worst_energy = 0.0
    for link in links:
        for cls_name, method_name in entries:
            runtime = Runtime(
                apk,
                link,
                seed=seed,
                statement_budget=5_000,
                # Degraded-but-connected links deliver HTTP errors too.
                invalid_response_rate=0.5 if link.connected else 0.0,
            )
            report = runtime.run_entry(cls_name, method_name)
            observation.crashed |= report.crashed
            observation.silent_failure |= report.silent_failure
            observation.battery_drain |= report.battery_drain
            if report.network_failures or report.budget_exhausted:
                observation.long_hang |= report.sim_time_ms >= hang_threshold_ms
            if report.network_attempts:
                worst_energy = max(worst_energy, energy_per_hour_mj(report))
    observation.energy_mj_per_hour = worst_energy
    return observation


def manifestation_study(
    pairs: list[tuple[APK, object]],
    checker: Optional[NChecker] = None,
    seed: int = 0,
) -> list[ManifestationRow]:
    """Scan + execute a corpus sample and cross-tabulate kind × symptom."""
    checker = checker or NChecker()
    observations = []
    for apk, _truth in pairs:
        result = checker.scan(apk)
        observations.append(observe_app(apk, result, seed=seed))

    rows: list[ManifestationRow] = []
    for kind, symptom in _STUDIED:
        flagged = [o for o in observations if kind in o.findings]
        clean = [o for o in observations if kind not in o.findings]
        rows.append(
            ManifestationRow(
                kind,
                symptom,
                len(flagged),
                sum(o.symptom_for(kind) for o in flagged),
                len(clean),
                sum(o.symptom_for(kind) for o in clean),
            )
        )
    return rows


def render_manifestation(rows: list[ManifestationRow]) -> str:
    from .tables import render_table

    table = [["Defect kind", "Symptom", "Flagged apps", "Symptomatic", "Clean apps", "Symptomatic"]]
    for row in rows:
        table.append(
            [
                row.kind.value,
                row.symptom,
                row.flagged_apps,
                f"{row.flagged_symptomatic} ({row.flagged_rate:.0%})",
                row.clean_apps,
                f"{row.clean_symptomatic} ({row.clean_rate:.0%})",
            ]
        )
    return render_table(table, "Defect manifestation under disrupted networks:")
