"""Radio energy model: what an NPD costs in battery terms.

The paper's Fig 4 puts battery drain at 10 % of NPD impact and cites the
mobile-energy literature ([44], [47]) for the mechanism: the cellular
radio burns power not only while transmitting but through a multi-second
high-power *tail* after every transmission.  A reconnect loop that fires
every 500 ms therefore keeps the radio pinned in its high-power states
indefinitely.

The model is the standard three-state machine (active / tail / idle) with
parameters in the range those measurement studies report for 3G and WiFi.
``estimate_energy`` folds a :class:`~repro.netsim.runtime.RunReport` into
millijoules; the tests show a backoff-free retry loop costs orders of
magnitude more than the exponential-backoff fix over the same horizon.
"""

from __future__ import annotations

from .._record import record
from .runtime import RunReport


@record(frozen=True)
class RadioProfile:
    """Power draw (milliwatts) of the three radio states."""

    name: str
    active_mw: float
    tail_mw: float
    #: How long the radio lingers in the tail state after activity (ms).
    tail_ms: float
    idle_mw: float


#: 3G/UMTS: DCH ≈ 800 mW, FACH tail ≈ 460 mW for ~12.5 s (Balasubramanian
#: et al., IMC'09 — the paper's [44]).
CELLULAR_3G = RadioProfile("3G", active_mw=800.0, tail_mw=460.0, tail_ms=12_500.0, idle_mw=10.0)
#: WiFi: cheaper per-bit and a very short tail.
WIFI_RADIO = RadioProfile("WiFi", active_mw=400.0, tail_mw=120.0, tail_ms=240.0, idle_mw=8.0)


@record(frozen=True)
class EnergyEstimate:
    """Breakdown of the radio energy for one run (millijoules)."""

    active_mj: float
    tail_mj: float
    idle_mj: float

    @property
    def total_mj(self) -> float:
        return self.active_mj + self.tail_mj + self.idle_mj


def estimate_energy(
    report: RunReport, radio: RadioProfile = CELLULAR_3G
) -> EnergyEstimate:
    """Fold a run report into a radio-energy estimate.

    Active time comes straight from the report; each network attempt
    triggers one tail period (overlapping tails of a tight retry loop are
    clamped so tail time never exceeds the non-active wall-clock)."""
    active_ms = report.radio_active_ms
    idle_window_ms = max(0.0, report.sim_time_ms - active_ms)
    tail_ms = min(report.network_attempts * radio.tail_ms, idle_window_ms)
    idle_ms = idle_window_ms - tail_ms
    return EnergyEstimate(
        active_mj=active_ms * radio.active_mw / 1000.0,
        tail_mj=tail_ms * radio.tail_mw / 1000.0,
        idle_mj=idle_ms * radio.idle_mw / 1000.0,
    )


def energy_per_hour_mj(report: RunReport, radio: RadioProfile = CELLULAR_3G) -> float:
    """Energy normalised to a one-hour horizon (for comparing runs whose
    simulations ended at different virtual times)."""
    estimate = estimate_energy(report, radio)
    horizon = max(report.sim_time_ms, 1.0)
    return estimate.total_mj * (3_600_000.0 / horizon)
