"""Radio energy-model tests."""

import pytest

from repro.corpus.snippets import Backoff, Connectivity, RequestSpec, RetryLoopShape
from repro.netsim import OFFLINE, Runtime, THREE_G
from repro.netsim.energy import (
    CELLULAR_3G,
    WIFI_RADIO,
    energy_per_hour_mj,
    estimate_energy,
)

from tests.conftest import single_request_app


def _run(spec, link, seed=7):
    apk, _ = single_request_app(spec, package="com.energy.app")
    return Runtime(apk, link, seed=seed).run_entry(
        "com.energy.app.MainActivity", "onClick"
    )


class TestEstimate:
    def test_breakdown_sums(self):
        report = _run(RequestSpec(library="basichttp"), THREE_G)
        estimate = estimate_energy(report)
        assert estimate.total_mj == pytest.approx(
            estimate.active_mj + estimate.tail_mj + estimate.idle_mj
        )

    def test_successful_request_costs_something(self):
        report = _run(RequestSpec(library="basichttp"), THREE_G)
        assert estimate_energy(report).total_mj > 0

    def test_no_request_no_active_energy(self):
        report = _run(RequestSpec(connectivity=Connectivity.GUARDED), OFFLINE)
        estimate = estimate_energy(report)
        assert estimate.active_mj == 0.0
        assert report.network_attempts == 0

    def test_tail_clamped_to_wall_clock(self):
        """Overlapping tails in a tight loop cannot exceed the horizon."""
        report = _run(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.NONE,
            ),
            OFFLINE,
        )
        estimate = estimate_energy(report)
        max_tail_mj = report.sim_time_ms * CELLULAR_3G.tail_mw / 1000.0
        assert estimate.tail_mj <= max_tail_mj + 1e-6

    def test_wifi_cheaper_than_cellular(self):
        report = _run(RequestSpec(library="basichttp"), THREE_G)
        assert (
            estimate_energy(report, WIFI_RADIO).total_mj
            < estimate_energy(report, CELLULAR_3G).total_mj
        )


class TestTelegramBugEnergy:
    """The Fig 2 story in joules: the backoff-free reconnect loop burns
    dramatically more per hour than the fixed version."""

    def test_aggressive_loop_burns_more_per_hour(self):
        aggressive = _run(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.NONE,
            ),
            OFFLINE,
        )
        fixed = _run(
            RequestSpec(
                library="basichttp",
                retry_loop=RetryLoopShape.UNCONDITIONAL_EXIT,
                backoff=Backoff.EXPONENTIAL,
            ),
            OFFLINE,
        )
        ratio = energy_per_hour_mj(aggressive) / max(energy_per_hour_mj(fixed), 1e-9)
        assert ratio > 5.0
