"""Pass scheduling: declared artifact reads → ordered pipeline + plan.

Each check in :mod:`repro.core.checks` is a *pass*: it has a ``name``,
an ``after`` tuple naming passes whose products it consumes (the
retry-parameter check reads the config check's per-request info), and a
``reads(options)`` method declaring the artifact names it will pull from
the :class:`~repro.pipeline.artifacts.ArtifactStore` under the given
options.  The scheduler

* orders the enabled passes topologically over ``after`` (stable: ties
  keep registration order, so findings come out in the same order the
  hand-sequenced orchestrator produced), and
* computes the dependency-closed set of app artifacts any enabled pass
  (or the session itself) needs — everything else is provably skipped,
  which the plan records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .._record import record
from .artifacts import (
    ARTIFACTS,
    CALLGRAPH,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    THREADCONTEXT,
    ArtifactKey,
)

if TYPE_CHECKING:
    from ..core.checks.base import Check

#: Canonical build order for app-scoped artifacts (dependencies first).
_APP_ARTIFACT_ORDER: tuple[ArtifactKey, ...] = (
    CALLGRAPH,
    REQUESTS,
    SUMMARIES,
    RETRY_LOOPS,
    ICC_MODEL,
    THREADCONTEXT,
)


@record(frozen=True)
class ScheduledPass:
    """One enabled check with its resolved artifact reads."""

    check: "Check"
    reads: tuple[ArtifactKey, ...]

    @property
    def name(self) -> str:
        return self.check.name


@record(frozen=True)
class ScanPlan:
    """What one scan will run and build — inspectable before execution."""

    #: Enabled pass names, in execution order.
    passes: tuple[str, ...]
    #: App-scoped artifacts the scan builds, dependencies first.
    artifacts: tuple[str, ...]
    #: App-scoped artifacts provably not needed by any enabled pass.
    skipped: tuple[str, ...]

    def builds(self, key: ArtifactKey) -> bool:
        return key.name in self.artifacts


def order_passes(passes: Sequence[ScheduledPass]) -> list[ScheduledPass]:
    """Stable topological order over the passes' ``after`` constraints.

    Constraints naming disabled (absent) passes are ignored — a pass that
    merely *orders after* another still runs alone (it degrades, as the
    retry-parameter check does without config info).
    """
    present = {p.name for p in passes}
    remaining = list(passes)
    ordered: list[ScheduledPass] = []
    done: set[str] = set()
    while remaining:
        progressed = False
        for candidate in remaining:
            after = tuple(getattr(candidate.check, "after", ()) or ())
            if all(dep in done or dep not in present for dep in after):
                ordered.append(candidate)
                done.add(candidate.name)
                remaining.remove(candidate)
                progressed = True
                break
        if not progressed:
            cycle = ", ".join(p.name for p in remaining)
            raise ValueError(f"pass ordering cycle among: {cycle}")
    return ordered


def resolve_reads(names: Sequence[str]) -> tuple[ArtifactKey, ...]:
    """Map declared artifact names to typed keys (unknown names are a
    programming error in the check, surfaced immediately)."""
    keys = []
    for name in names:
        key = ARTIFACTS.get(name)
        if key is None:
            raise KeyError(f"check declares unknown artifact {name!r}")
        keys.append(key)
    return tuple(keys)


def artifact_closure(reads: Sequence[ArtifactKey]) -> tuple[str, ...]:
    """Dependency-closed, build-ordered app artifact names for ``reads``."""
    needed: set[str] = set()

    def visit(key: ArtifactKey) -> None:
        if key.scope != "app" or key.name in needed:
            return
        needed.add(key.name)
        for dep in key.deps:
            visit(ARTIFACTS[dep])

    for key in reads:
        visit(key)
    return tuple(k.name for k in _APP_ARTIFACT_ORDER if k.name in needed)


def build_plan(
    passes: Sequence[ScheduledPass],
    session_reads: Sequence[ArtifactKey] = (REQUESTS,),
) -> ScanPlan:
    """The plan for one scan: ordered passes plus the artifact closure of
    their declared reads and the session's own reads (request extraction
    feeds every check and the result object)."""
    ordered = order_passes(passes)
    reads: list[ArtifactKey] = list(session_reads)
    for scheduled in ordered:
        reads.extend(scheduled.reads)
    needed = artifact_closure(reads)
    skipped = tuple(
        k.name for k in _APP_ARTIFACT_ORDER if k.name not in needed
    )
    return ScanPlan(
        passes=tuple(p.name for p in ordered),
        artifacts=needed,
        skipped=skipped,
    )
