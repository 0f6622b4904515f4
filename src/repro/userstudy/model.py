"""Controlled user-study model (paper §5.4, Table 10, Fig 10).

The paper recruited 20 volunteers (≈6 months of Android experience) and
measured how long they took to fix 7 real NPDs given NChecker's warning
reports; the headline result is a 1.7 ± 0.14 minute average.  We model
each task's difficulty as a per-kind base time and each participant as a
multiplicative skill factor (log-normal), then reproduce Fig 10's
per-task means with 95 % confidence intervals.

The "GPSLogger (no retried exception)" task is special-cased exactly as
the paper reports: only 1 of 20 volunteers could reason about exception
classes, so it is excluded from the timing figure.
"""

from __future__ import annotations

import math
import random

from .._record import record
from ..core.defects import DefectKind


@record(frozen=True)
class StudyTask:
    """One row of Table 10."""

    name: str
    app: str
    kind: DefectKind
    correct_fix: str
    #: Mean fix time (minutes) for a median participant (calibrated to
    #: Fig 10's bar heights).
    base_minutes: float
    #: Fraction of participants able to produce the correct fix.
    solve_rate: float = 1.0
    #: Included in the Fig 10 timing aggregate?
    in_timing_figure: bool = True
    #: Control-arm parameters: without NChecker's report the volunteer
    #: must first localise the defect and work out which API is missing —
    #: the §5.4 observation ("majority of the volunteers immediately
    #: realized the problem after reading the NChecker report") inverted.
    no_report_multiplier: float = 6.0
    no_report_solve_rate: float = 0.45


#: Table 10 — the 7 study NPDs (base times calibrated to Fig 10).
STUDY_TASKS: tuple[StudyTask, ...] = (
    StudyTask(
        "AnkiDroid (no conn. check)",
        "AnkiDroid",
        DefectKind.MISSED_CONNECTIVITY_CHECK,
        "Add connectivity check before the request. Show error message if "
        "not connected.",
        base_minutes=2.1,
    ),
    StudyTask(
        "GPSLogger (no timeout)",
        "GPSLogger",
        DefectKind.MISSED_TIMEOUT,
        "Add timeout API to set timeout value",
        base_minutes=1.4,
    ),
    StudyTask(
        "GPSLogger (no retry times)",
        "GPSLogger",
        DefectKind.MISSED_RETRY,
        "Add retry API to set retry times",
        base_minutes=1.5,
    ),
    StudyTask(
        "GPSLogger (no retried exception)",
        "GPSLogger",
        DefectKind.MISSED_RETRY,
        "Add another retry API to set exception class that should be retried",
        base_minutes=6.0,
        solve_rate=1 / 20,
        in_timing_figure=False,  # excluded in the paper: most volunteers
        # do not know the network exception types
    ),
    StudyTask(
        "DevFest (no error mesg)",
        "DevFest",
        DefectKind.MISSED_NOTIFICATION,
        "Add error message in callback according to the error status.",
        base_minutes=1.9,
    ),
    StudyTask(
        "DevFest (invalid resp.)",
        "DevFest",
        DefectKind.MISSED_RESPONSE_CHECK,
        "Add null check and status check on the response before reading its body",
        base_minutes=2.2,
    ),
    StudyTask(
        "Maoshishu (over retry)",
        "Maoshishu",
        DefectKind.OVER_RETRY_POST,
        "Add retry API and set retry time to be 0",
        base_minutes=1.1,
    ),
)

#: §5.4: 20 undergraduate volunteers, ~6 months Android experience.
N_PARTICIPANTS = 20


@record
class TaskResult:
    """Aggregated outcome for one task across participants."""

    task: StudyTask
    times_minutes: list[float]
    solved: int

    @property
    def mean(self) -> float:
        return sum(self.times_minutes) / len(self.times_minutes)

    @property
    def ci95(self) -> float:
        n = len(self.times_minutes)
        mean = self.mean
        variance = sum((t - mean) ** 2 for t in self.times_minutes) / max(n - 1, 1)
        return 1.96 * math.sqrt(variance / n)


@record
class StudyResult:
    tasks: list[TaskResult]

    def timing_tasks(self) -> list[TaskResult]:
        return [t for t in self.tasks if t.task.in_timing_figure]

    @property
    def overall_mean(self) -> float:
        times = [t for task in self.timing_tasks() for t in task.times_minutes]
        return sum(times) / len(times)

    @property
    def overall_ci95(self) -> float:
        times = [t for task in self.timing_tasks() for t in task.times_minutes]
        n = len(times)
        mean = self.overall_mean
        variance = sum((t - mean) ** 2 for t in times) / (n - 1)
        return 1.96 * math.sqrt(variance / n)


def run_study(
    seed: int = 2016,
    n_participants: int = N_PARTICIPANTS,
    with_reports: bool = True,
) -> StudyResult:
    """Simulate the §5.4 study.

    Each participant p has a skill factor ~ LogNormal(0, 0.25); each task
    sample is ``base_minutes × skill × LogNormal(0, 0.18)`` noise, which
    yields per-task CIs of the Fig 10 magnitude.

    ``with_reports=False`` is the control arm the paper did not run: the
    same tasks without NChecker's localisation and fix suggestions.  Fix
    times multiply by each task's ``no_report_multiplier`` (the volunteer
    has to find the defect first) and solve rates drop.
    """
    rng = random.Random(seed if with_reports else f"{seed}:control")
    skills = [rng.lognormvariate(0.0, 0.25) for _ in range(n_participants)]
    results: list[TaskResult] = []
    for task in STUDY_TASKS:
        multiplier = 1.0 if with_reports else task.no_report_multiplier
        solve_rate = task.solve_rate if with_reports else min(
            task.solve_rate, task.no_report_solve_rate
        )
        times: list[float] = []
        solved = 0
        for skill in skills:
            if rng.random() < solve_rate:
                solved += 1
            noise = rng.lognormvariate(0.0, 0.18)
            times.append(task.base_minutes * multiplier * skill * noise)
        results.append(TaskResult(task, times, solved))
    return StudyResult(results)
