"""The in-memory job table behind ``/v1/scans``.

One :class:`Job` per submission, moving ``queued → running`` and then
to ``done`` or ``failed``; the table is only ever touched from the
daemon's event loop, so there is no locking.  Finished jobs are kept
for polling and LRU-evicted beyond a retention bound — the daemon is a
scanner, not a database; durable results belong to the client that
fetched them.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Optional

from .._record import field, record
from ..pipeline.batch import ScanPayload

#: States a job moves through.  ``queued`` means admitted but not yet
#: handed to the pool; ``running`` covers pool-queue wait plus the scan
#: itself (the daemon cannot see inside the executor).
JOB_STATES = ("queued", "running", "done", "failed")

ACTIVE_STATES = frozenset({"queued", "running"})


@record
class Job:
    """One scan submission and, once finished, its rendered results."""

    id: str
    tenant: str
    filename: str
    status: str = "queued"
    error: str = ""
    #: The worker's rendered result, once it returns.
    payload: Optional[ScanPayload] = None
    created_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed")


class JobStore:
    """Insertion-ordered job table with bounded retention."""

    def __init__(self, retain_finished: int = 256) -> None:
        self.retain_finished = retain_finished
        self._jobs: dict[str, Job] = {}
        self._serial = itertools.count(1)
        self._nonce = os.urandom(4).hex()

    def create(self, tenant: str, filename: str) -> Job:
        job_id = f"scan-{next(self._serial):06d}-{self._nonce}"
        job = Job(id=job_id, tenant=tenant, filename=filename)
        self._jobs[job_id] = job
        self._evict_finished()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def active_count(self) -> int:
        """Jobs admitted but not finished — what the queue bound caps."""
        return sum(
            1 for job in self._jobs.values() if job.status in ACTIVE_STATES
        )

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(JOB_STATES, 0)
        for job in self._jobs.values():
            out[job.status] = out.get(job.status, 0) + 1
        return out

    def _evict_finished(self) -> None:
        finished = [j for j in self._jobs.values() if j.done]
        for job in finished[: max(0, len(finished) - self.retain_finished)]:
            del self._jobs[job.id]
