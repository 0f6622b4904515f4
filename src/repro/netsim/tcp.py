"""Simplified TCP transfer model.

Packet-level Monte Carlo: a transfer is a stream of MSS-sized segments;
each segment is lost independently with the link's loss rate, and a lost
segment is retransmitted after an RTO that doubles on consecutive losses
(Karn's algorithm shape).  The model exposes exactly what the HTTP layer
above needs: the total transfer time and the longest *stall* (the gap a
socket read blocks for), since Android's ``setReadTimeout`` aborts the
request when a single read stalls past the timeout.

The constants favour behavioural fidelity over protocol completeness:
congestion control is abstracted into the link's steady-state bandwidth,
which is what a conditioner-throttled 3G path presents anyway.
"""

from __future__ import annotations

import random

from .._record import record
from .link import LinkProfile

#: Maximum segment size (bytes).
MSS = 1460
#: Initial retransmission timeout (ms); doubles per consecutive loss.
INITIAL_RTO_MS = 600.0
#: RTO ceiling (ms).
MAX_RTO_MS = 60_000.0
#: TCP connect (SYN) retransmission timer (ms).
SYN_RTO_MS = 1_000.0
#: Give up the connect after this many SYN attempts.
MAX_SYN_ATTEMPTS = 6
#: Wireless loss is bursty: a retransmission of a just-lost segment is
#: lost with ``min(0.9, loss_rate * BURST_FACTOR)`` (Gilbert–Elliott
#: flavour), which is what makes long stall chains — and hence read
#: timeouts — common on lossy 3G.
BURST_FACTOR = 3.0


@record(frozen=True)
class TransferOutcome:
    """Result of simulating one TCP transfer."""

    completed: bool
    total_ms: float
    #: Longest single stall a reader observed (ms).
    max_stall_ms: float
    #: Time of the first stall exceeding the caller's read timeout, if the
    #: caller supplied one (transfer is cut short there).
    segments_sent: int = 0
    segments_lost: int = 0


def connect(link: LinkProfile, rng: random.Random) -> TransferOutcome:
    """Simulate the TCP handshake; ``completed`` False means the connect
    never succeeded (dead link or SYN loss exhaustion)."""
    if not link.connected:
        # A dead link never answers: the caller's connect timeout (or the
        # OS's several-minute SYN give-up — paper Cause 3.1) decides.
        total = SYN_RTO_MS * (2 ** MAX_SYN_ATTEMPTS - 1)
        return TransferOutcome(False, total, total)
    elapsed = 0.0
    rto = SYN_RTO_MS
    for _attempt in range(MAX_SYN_ATTEMPTS):
        if rng.random() >= link.loss_rate:
            elapsed += link.rtt_ms
            return TransferOutcome(True, elapsed, 0.0)
        elapsed += rto
        rto = min(rto * 2, MAX_RTO_MS)
    return TransferOutcome(False, elapsed, elapsed)


def transfer(
    link: LinkProfile,
    size_bytes: int,
    rng: random.Random,
    read_timeout_ms: float | None = None,
) -> TransferOutcome:
    """Simulate transferring ``size_bytes`` over ``link``.

    When ``read_timeout_ms`` is given, the transfer aborts at the first
    stall exceeding it (``completed=False``) — the SocketTimeoutException
    path.
    """
    if not link.connected:
        stall = read_timeout_ms if read_timeout_ms is not None else MAX_RTO_MS
        return TransferOutcome(False, stall, stall)
    n_segments = max(1, (size_bytes + MSS - 1) // MSS)
    per_segment_ms = link.ms_per_bytes(min(MSS, size_bytes)) + link.rtt_ms / max(
        1, n_segments
    )
    elapsed = 0.0
    max_stall = 0.0
    sent = 0
    lost = 0
    burst_loss = min(0.9, link.loss_rate * BURST_FACTOR)
    for _ in range(n_segments):
        stall = 0.0
        rto = INITIAL_RTO_MS
        loss_p = link.loss_rate
        while rng.random() < loss_p:
            loss_p = burst_loss
            lost += 1
            stall += rto
            rto = min(rto * 2, MAX_RTO_MS)
            if read_timeout_ms is not None and stall >= read_timeout_ms:
                return TransferOutcome(
                    False,
                    elapsed + read_timeout_ms,
                    stall,
                    segments_sent=sent,
                    segments_lost=lost,
                )
        sent += 1
        max_stall = max(max_stall, stall)
        elapsed += per_segment_ms + stall
    return TransferOutcome(
        True, elapsed, max_stall, segments_sent=sent, segments_lost=lost
    )
