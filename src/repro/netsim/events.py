"""A minimal discrete-event simulation engine.

Used by the runtime interpreter (:mod:`repro.netsim.runtime`) to order
network completions, reconnect timers, and sleeps on a virtual clock, so
symptom observations (hang duration, retry cadence) are deterministic and
independent of wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class EventLoop:
    """A priority-queue event loop over a millisecond virtual clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay_ms`` simulated milliseconds from now."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        heapq.heappush(
            self._queue, (self.now + delay_ms, next(self._counter), action)
        )

    def advance(self, delay_ms: float) -> None:
        """Move the clock forward without dispatching (synchronous waits)."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self.now += delay_ms

    def run(self, until_ms: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Dispatch events in time order; returns the number dispatched.

        Stops when the queue drains, the clock passes ``until_ms``, or
        ``max_events`` fires (a runaway-timer backstop — exactly the bug
        class the Telegram example exhibits)."""
        dispatched = 0
        while self._queue and dispatched < max_events:
            when, _seq, action = self._queue[0]
            if until_ms is not None and when > until_ms:
                break
            heapq.heappop(self._queue)
            self.now = max(self.now, when)
            action()
            dispatched += 1
        return dispatched
