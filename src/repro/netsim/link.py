"""Lossy mobile-link models and the Network-Link-Conditioner profiles.

The paper's Fig 3 experiment throttled a real connection with Apple's
Network Link Conditioner; these profiles encode the standard conditioner
presets the experiment swept (3G with/without added packet loss).
"""

from __future__ import annotations

from dataclasses import replace

from .._record import record


@record(frozen=True)
class LinkProfile:
    """Characteristics of one (simulated) network path."""

    name: str
    #: Downlink bandwidth in kilobits per second.
    bandwidth_kbps: float
    #: Round-trip time in milliseconds.
    rtt_ms: float
    #: Independent per-packet loss probability.
    loss_rate: float = 0.0
    #: Whether the link is up at all (airplane mode / dead zone).
    connected: bool = True

    def with_loss(self, loss_rate: float) -> "LinkProfile":
        return replace(
            self, name=f"{self.name}+loss{loss_rate:.0%}", loss_rate=loss_rate
        )

    def ms_per_bytes(self, n_bytes: int) -> float:
        """Serialisation delay for ``n_bytes`` at the link bandwidth."""
        bits = n_bytes * 8
        return bits / self.bandwidth_kbps  # kbps == bits per ms


#: Conditioner presets (downlink figures of the standard profiles).
THREE_G = LinkProfile("3G", bandwidth_kbps=780.0, rtt_ms=100.0)
EDGE = LinkProfile("EDGE", bandwidth_kbps=240.0, rtt_ms=400.0)
WIFI = LinkProfile("WiFi", bandwidth_kbps=40_000.0, rtt_ms=5.0)
LTE = LinkProfile("LTE", bandwidth_kbps=10_000.0, rtt_ms=50.0)
OFFLINE = LinkProfile("offline", bandwidth_kbps=1.0, rtt_ms=1.0, connected=False)

#: Fig 3's two conditions.
THREE_G_CLEAN = THREE_G
THREE_G_LOSSY = THREE_G.with_loss(0.10)

@record(frozen=True)
class LinkSchedule:
    """A mobility timeline: which link the device is on at each instant.

    Models the paper's Cause 4 environment — "switching from cellular to
    WiFi to tethering hotspots".  Each *segment* is a new network: a TCP
    connection established in one segment is stale in the next (the
    GTalkSMS bug: "the app still tries to receive data from the stale
    connections").
    """

    #: (start_ms, profile) pairs; the first must start at 0.
    segments: tuple[tuple[float, LinkProfile], ...]

    def __post_init__(self) -> None:
        if not self.segments or self.segments[0][0] != 0:
            raise ValueError("schedule must start at t=0")
        starts = [start for start, _ in self.segments]
        if starts != sorted(starts):
            raise ValueError("segments must be in time order")

    def segment_index(self, at_ms: float) -> int:
        """The epoch (network incarnation) active at ``at_ms``."""
        index = 0
        for i, (start, _profile) in enumerate(self.segments):
            if at_ms >= start:
                index = i
        return index

    def link_at(self, at_ms: float) -> LinkProfile:
        return self.segments[self.segment_index(at_ms)][1]

    @classmethod
    def constant(cls, link: LinkProfile) -> "LinkSchedule":
        return cls(((0.0, link),))

