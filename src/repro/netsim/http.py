"""HTTP client simulation with library-accurate timeout/retry policies.

``HttpClientSim`` reproduces the request behaviour of the modelled
libraries from their :class:`~repro.libmodels.annotations.LibraryDefaults`
— most importantly Volley's ``DefaultRetryPolicy`` (2500 ms initial
timeout, 1 retry, ×1 backoff), whose interaction with file size and
packet loss Figure 3 of the paper measures.
"""

from __future__ import annotations

import random
from typing import Optional

from .._record import record
from ..libmodels.annotations import LibraryDefaults
from .link import LinkProfile
from . import tcp


@record(frozen=True)
class RequestPolicy:
    """Effective request policy (after app configuration or defaults)."""

    timeout_ms: Optional[float] = None  # None = no read timeout (block)
    max_retries: int = 0
    backoff_multiplier: float = 1.0

    @classmethod
    def volley_default(cls) -> "RequestPolicy":
        """Volley's DefaultRetryPolicy: 2500 ms, 1 retry, backoff ×1."""
        return cls(timeout_ms=2500, max_retries=1, backoff_multiplier=1.0)

    @classmethod
    def from_defaults(cls, defaults: LibraryDefaults) -> "RequestPolicy":
        return cls(
            timeout_ms=defaults.timeout_ms,
            max_retries=defaults.retries,
            backoff_multiplier=defaults.backoff_multiplier,
        )


@record(frozen=True)
class RequestResult:
    """Outcome of one simulated HTTP request (all attempts included)."""

    success: bool
    total_ms: float
    attempts: int
    failure: Optional[str] = None  # "connect-timeout" | "read-timeout" | "offline"


class HttpClientSim:
    """Simulates requests under a policy over a (lossy) link."""

    def __init__(self, policy: RequestPolicy, rng: Optional[random.Random] = None) -> None:
        self.policy = policy
        self.rng = rng or random.Random(0)

    def request(self, link: LinkProfile, size_bytes: int) -> RequestResult:
        """One request with up to ``max_retries`` automatic retries; the
        per-attempt timeout grows by the backoff multiplier (Volley
        semantics)."""
        timeout = self.policy.timeout_ms
        elapsed = 0.0
        attempts = 0
        failure: Optional[str] = None
        for attempt in range(self.policy.max_retries + 1):
            attempts += 1
            outcome = self._attempt(link, size_bytes, timeout)
            elapsed += outcome.total_ms
            if outcome.completed:
                return RequestResult(True, elapsed, attempts)
            failure = outcome_failure(link, timeout)
            if timeout is not None:
                timeout = timeout * self.policy.backoff_multiplier
        return RequestResult(False, elapsed, attempts, failure)

    def _attempt(
        self, link: LinkProfile, size_bytes: int, timeout: Optional[float]
    ) -> tcp.TransferOutcome:
        handshake = tcp.connect(link, self.rng)
        if not handshake.completed:
            # Connect failure: the app waits min(connect timeout, SYN give-up).
            wait = handshake.total_ms
            if timeout is not None:
                wait = min(wait, timeout)
            return tcp.TransferOutcome(False, wait, wait)
        body = tcp.transfer(link, size_bytes, self.rng, read_timeout_ms=timeout)
        return tcp.TransferOutcome(
            body.completed,
            handshake.total_ms + body.total_ms,
            body.max_stall_ms,
            body.segments_sent,
            body.segments_lost,
        )


def outcome_failure(link: LinkProfile, timeout: Optional[float]) -> str:
    if not link.connected:
        return "offline"
    return "read-timeout" if timeout is not None else "connect-timeout"


def download_success_rate(
    link: LinkProfile,
    size_bytes: int,
    policy: RequestPolicy,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Fig 3's measurement: fraction of successful downloads."""
    rng = random.Random(f"{seed}:{link.name}:{size_bytes}")
    client = HttpClientSim(policy, rng)
    successes = sum(client.request(link, size_bytes).success for _ in range(trials))
    return successes / trials
