"""Experiment registry: one runner per paper table/figure.

Each runner returns an :class:`ExperimentReport` with the rendered text
plus the raw data, so both the CLI (``nchecker experiments``) and the
benchmark suite share one implementation.  Corpus scans are cached per
(seed, size) within the process — scanning 285 synthetic apps is cheap
but not free.
"""

from __future__ import annotations

from typing import Callable, Optional

from .._record import field, record
from ..core.checker import NChecker, ScanResult
from ..corpus.groundtruth import overall_accuracy, table9_confusions
from ..corpus.opensource import build_opensource_corpus
from ..corpus.profiles import PAPER_PROFILE
from ..corpus.study import (
    REPRESENTATIVE_NPDS,
    ROOT_CAUSE_CASES,
    STUDIED_APPS,
    TOTAL_STUDIED_NPDS,
    impact_distribution_percent,
    root_cause_distribution_percent,
)
from ..libmodels import default_registry, render_table4
from ..netsim.http import RequestPolicy, download_success_rate
from ..netsim.link import THREE_G_CLEAN, THREE_G_LOSSY
from ..userstudy import run_study
from .guidelines import derive_guidelines
from .metrics import (
    cdf,
    fig8_conn_ratios,
    fig8_timeout_ratios,
    fig9_notification_ratios,
    fraction_above,
    notification_split,
    table6,
    table7,
    table8,
)
from .tables import percent, render_cdf, render_table


@record
class ExperimentReport:
    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"=== {self.exp_id}: {self.title} ===\n{self.text}"


#: (seed, n_apps) -> scan results, shared across experiments in-process.
_SCAN_CACHE: dict[tuple[int, int], list[ScanResult]] = {}
#: (seed, n_apps) -> merged metrics snapshot of the cached scan.
_TELEMETRY_CACHE: dict[tuple[int, int], dict] = {}


def corpus_scan(
    n_apps: int = 285,
    seed: Optional[int] = None,
) -> list[ScanResult]:
    """Scan the synthetic evaluation corpus (cached)."""
    profile = PAPER_PROFILE if seed is None else PAPER_PROFILE.__class__(
        mix=PAPER_PROFILE.mix, rates=PAPER_PROFILE.rates, seed=seed
    )
    key = (profile.seed, n_apps)
    if key not in _SCAN_CACHE:
        from ..pipeline.batch import scan_corpus

        telemetry: dict = {}
        _SCAN_CACHE[key] = scan_corpus(profile, n_apps, telemetry=telemetry)
        _TELEMETRY_CACHE[key] = telemetry
    return _SCAN_CACHE[key]


def corpus_telemetry(n_apps: int = 285, seed: Optional[int] = None) -> dict:
    """The merged metrics snapshot of the (cached) corpus scan — public
    per-pass/per-artifact accounting for benchmarks and reports."""
    profile_seed = PAPER_PROFILE.seed if seed is None else seed
    if (profile_seed, n_apps) not in _TELEMETRY_CACHE:
        corpus_scan(n_apps, seed=seed)
    return _TELEMETRY_CACHE[(profile_seed, n_apps)]


# -- individual experiments -----------------------------------------------------


def run_fig3(trials: int = 200) -> ExperimentReport:
    """Fig 3: success rate of Volley-default downloads vs size × loss."""
    sizes = [2 * 1024 * (2 ** i) for i in range(11)]  # 2K .. 2M
    policy = RequestPolicy.volley_default()
    series = {}
    for link in (THREE_G_CLEAN, THREE_G_LOSSY):
        series[link.name] = [
            download_success_rate(link, size, policy, trials=trials)
            for size in sizes
        ]
    labels = ["2K", "4K", "8K", "16K", "32K", "64K", "128K", "256K", "512K", "1M", "2M"]
    rows = [["file size", *labels]]
    for name, rates in series.items():
        rows.append([name, *[f"{r:.2f}" for r in rates]])
    return ExperimentReport(
        "fig3",
        "Sensitivity of default API parameters to network conditions",
        render_table(rows),
        {"sizes": sizes, "series": series},
    )


def run_study_tables() -> ExperimentReport:
    """Tables 1-3 and Fig 4: the empirical study."""
    parts = []
    rows = [["App/Sys", "Category", "#Installs"]]
    rows += [[a.name, a.category, a.installs] for a in STUDIED_APPS]
    parts.append(render_table(rows, "Table 1: studied apps"))

    rows = [["ID", "Category", "App", "NPD description", "Resolution"]]
    rows += [
        [n.case_id, n.category, n.app, n.description, n.resolution]
        for n in REPRESENTATIVE_NPDS
    ]
    parts.append(render_table(rows, "\nTable 2: representative NPDs"))

    impact = impact_distribution_percent()
    rows = [["Impact", "% of 90 NPDs"]]
    rows += [[i.value, f"{p}%"] for i, p in impact.items()]
    parts.append(render_table(rows, "\nFig 4: UX impact distribution"))

    causes = root_cause_distribution_percent()
    rows = [["Root cause", "# Cases (%)"]]
    rows += [
        [c.value, f"{ROOT_CAUSE_CASES[c]} ({p}%)"] for c, p in causes.items()
    ]
    parts.append(render_table(rows, "\nTable 3: root causes"))
    return ExperimentReport(
        "study",
        "Empirical study (Tables 1-3, Fig 4)",
        "\n".join(parts),
        {
            "impact_percent": impact,
            "cause_percent": causes,
            "total": TOTAL_STUDIED_NPDS,
        },
    )


def run_table4() -> ExperimentReport:
    rows = render_table4()
    counts = default_registry().counts()
    text = render_table(rows, "Table 4: library NPD tolerance (* auto, o manual)")
    text += (
        f"\nAnnotated APIs: {counts['target_apis']} target, "
        f"{counts['config_apis']} config, "
        f"{counts['response_check_apis']} response-checking"
    )
    return ExperimentReport(
        "table4", "Library capability matrix", text, {"counts": counts}
    )


def run_table6(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    rows = [["NPD cause", "Eval. condition", "# Eval. apps", "# Buggy apps (%)"]]
    data = {}
    for row in table6(results):
        rows.append(
            [row.cause, row.eval_condition, row.evaluated, f"{row.buggy} ({row.percent}%)"]
        )
        data[row.cause] = (row.evaluated, row.buggy, row.percent)
    total_npds = sum(len(r.findings) for r in results)
    buggy_apps = sum(1 for r in results if r.is_buggy)
    text = render_table(rows, "Table 6: buggy apps per NPD cause")
    text += f"\nTotal NPDs: {total_npds} in {buggy_apps}/{len(results)} apps"
    data["total_npds"] = total_npds
    data["buggy_apps"] = buggy_apps
    data["n_apps"] = len(results)
    # Public per-pass/per-artifact accounting of the scan that produced
    # this table (counters only — timings vary run to run and would break
    # deterministic exports).
    data["telemetry"] = dict(corpus_telemetry(n_apps).get("counters", {}))
    return ExperimentReport("table6", "Detection effectiveness", text, data)


def run_table6x() -> ExperimentReport:
    """Extended Table 6: per-kind precision/recall of the thread-context
    and callback-lifecycle checks on the lifecycle corpus."""
    from ..core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
    from ..corpus.groundtruth import Confusion, confusion_for_app
    from ..corpus.lifecycle import EXTENDED_KINDS, build_lifecycle_corpus

    corpus = build_lifecycle_corpus()
    checker = NChecker(
        options=NCheckerOptions(enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS)
    )
    results = [checker.scan(apk) for apk, _ in corpus]
    rows = [
        ["NPD cause", "# Injected", "# Correct", "# FP", "# FN",
         "Precision", "Recall"]
    ]
    data: dict = {}
    for kind in EXTENDED_KINDS:
        total = Confusion()
        for (_apk, truth), result in zip(corpus, results):
            total = total + confusion_for_app(truth, result, frozenset({kind}))
        injected = total.correct + total.false_negatives
        precision = total.correct / total.reported if total.reported else 1.0
        recall = total.correct / injected if injected else 1.0
        rows.append(
            [
                kind.value,
                injected,
                total.correct,
                total.false_positives,
                total.false_negatives,
                f"{precision:.2f}",
                f"{recall:.2f}",
            ]
        )
        data[kind.value] = {
            "injected": injected,
            "correct": total.correct,
            "false_positives": total.false_positives,
            "false_negatives": total.false_negatives,
            "precision": precision,
            "recall": recall,
        }
    text = render_table(
        rows, "Table 6x: extended-taxonomy checks on the lifecycle corpus"
    )
    text += f"\nApps: {len(corpus)} (buggy + clean variants per defect class)"
    data["n_apps"] = len(corpus)
    return ExperimentReport(
        "table6x", "Extended-check precision/recall", text, data
    )


def run_table7(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    counts = table7(results)
    rows = [["Lib used", "# Apps"], *[[k, v] for k, v in counts.items()]]
    return ExperimentReport(
        "table7", "Evaluated apps per library", render_table(rows), {"counts": counts}
    )


def run_table8(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    rows = [["NPD cause", "Apps (%)", "Default behavior"]]
    data = {}
    for row in table8(results):
        rows.append([row.cause, f"{row.apps_percent}%", f"{row.default_caused_percent}%"])
        data[row.cause] = (row.apps_percent, row.default_caused_percent)
    return ExperimentReport(
        "table8", "Inappropriate retry behaviours", render_table(rows), data
    )


def run_fig8(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    conn = fig8_conn_ratios(results)
    timeout = fig8_timeout_ratios(results)
    text = (
        "Fig 8: CDF of per-app ratio of requests missing the check\n"
        f"connectivity (n={len(conn)}, "
        f"{percent(sum(1 for v in conn if v > 0.5), len(conn))} miss >50%):\n"
        + render_cdf(conn)
        + f"\ntimeout (n={len(timeout)}, "
        f"{percent(sum(1 for v in timeout if v > 0.5), len(timeout))} miss >50%):\n"
        + render_cdf(timeout)
    )
    return ExperimentReport(
        "fig8",
        "CDF of requests missing connectivity check / timeout",
        text,
        {
            "conn_cdf": cdf(conn),
            "timeout_cdf": cdf(timeout),
            "conn_over_half": fraction_above(conn, 0.5),
            "timeout_over_half": fraction_above(timeout, 0.5),
        },
    )


def run_fig9(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    ratios = fig9_notification_ratios(results)
    split = notification_split(results)
    text = (
        f"Fig 9: CDF of user requests missing failure notification "
        f"(n={len(ratios)}):\n" + render_cdf(ratios)
    )
    text += (
        f"\nexplicit-callback requests notified: {split.explicit_rate:.0%}; "
        f"without explicit callback: {split.implicit_rate:.0%}"
    )
    return ExperimentReport(
        "fig9",
        "CDF of user requests missing failure notifications",
        text,
        {
            "cdf": cdf(ratios),
            "explicit_rate": split.explicit_rate,
            "implicit_rate": split.implicit_rate,
        },
    )


def run_table9() -> ExperimentReport:
    corpus = build_opensource_corpus()
    checker = NChecker()
    results = [checker.scan(apk) for apk, _ in corpus]
    truths = [t for _, t in corpus]
    table = table9_confusions(truths, results)
    rows = [["NPD cause", "# Correct warning", "# FP", "# Known FN"]]
    totals = [0, 0, 0]
    for label, confusion in table.items():
        rows.append(
            [label, confusion.correct, confusion.false_positives, confusion.false_negatives]
        )
        totals[0] += confusion.correct
        totals[1] += confusion.false_positives
        totals[2] += confusion.false_negatives
    rows.append(["Total", *totals])
    accuracy = overall_accuracy(table)
    text = render_table(rows, "Table 9: accuracy on 16 open-source apps")
    text += f"\nAccuracy: {accuracy:.1%}"
    return ExperimentReport(
        "table9",
        "Detection accuracy",
        text,
        {"table": table, "accuracy": accuracy, "totals": totals},
    )


def run_fig10(seed: int = 2016) -> ExperimentReport:
    study = run_study(seed=seed)
    rows = [["Task", "Mean fix time (min)", "95% CI (min)"]]
    for task in study.timing_tasks():
        rows.append([task.task.name, f"{task.mean:.2f}", f"±{task.ci95:.2f}"])
    rows.append(
        ["Overall", f"{study.overall_mean:.2f}", f"±{study.overall_ci95:.2f}"]
    )
    excluded = [t for t in study.tasks if not t.task.in_timing_figure]
    text = render_table(rows, "Fig 10 / Table 10: user-study fix times")
    for task in excluded:
        text += (
            f"\nExcluded: {task.task.name} — solved by {task.solved}/"
            f"{len(task.times_minutes)} participants"
        )
    # The control arm the paper did not run: the same tasks without
    # NChecker's reports.
    control = run_study(seed=seed, with_reports=False)
    text += (
        f"\nControl arm (no NChecker reports): "
        f"{control.overall_mean:.1f} ± {control.overall_ci95:.1f} min "
        f"({control.overall_mean / study.overall_mean:.1f}x slower)"
    )
    return ExperimentReport(
        "fig10",
        "User study",
        text,
        {
            "overall_mean": study.overall_mean,
            "overall_ci": study.overall_ci95,
            "per_task": {t.task.name: (t.mean, t.ci95) for t in study.tasks},
            "control_mean": control.overall_mean,
        },
    )


def run_table11(n_apps: int = 285) -> ExperimentReport:
    results = corpus_scan(n_apps)
    guidelines = derive_guidelines(results)
    rows = [["Observation", "Guideline"]]
    rows += [[g.observation, g.guideline] for g in guidelines]
    return ExperimentReport(
        "table11",
        "Library design guidelines",
        render_table(rows),
        {"guidelines": guidelines},
    )


def run_table2x() -> ExperimentReport:
    """Table 2, executed: for each representative NPD, scan the buggy and
    fixed variants and run both against the triggering network."""
    from ..corpus.casestudies import CASE_STUDIES
    from ..libmodels import extended_registry
    from .tables import render_table

    rows = [["ID", "App", "Symptom (buggy)", "Symptom (fixed)", "Flag cleared"]]
    data = {}
    for case in CASE_STUDIES:
        if case.uses_xmpp:
            from ..core.checker import NChecker as _NC, NCheckerOptions as _Opt

            checker = _NC(
                registry=extended_registry(),
                options=_Opt(check_network_switch=True),
            )
        else:
            checker = NChecker()
        buggy_symptom = case.symptom(case.run(case.build_buggy()))
        fixed_symptom = case.symptom(case.run(case.build_fixed()))
        fixed_kinds = {f.kind for f in checker.scan(case.build_fixed()).findings}
        cleared = case.detected_as not in fixed_kinds
        rows.append(
            [
                case.case_id,
                case.app_name,
                "yes" if buggy_symptom else "no",
                "yes" if fixed_symptom else "no",
                "yes" if cleared else "no",
            ]
        )
        data[case.case_id] = {
            "app": case.app_name,
            "buggy_symptom": buggy_symptom,
            "fixed_symptom": fixed_symptom,
            "flag_cleared": cleared,
        }
    return ExperimentReport(
        "table2x",
        "Table 2 executed: representative NPDs, buggy vs fixed",
        render_table(rows),
        data,
    )


def run_manifestation(n_apps: int = 40) -> ExperimentReport:
    """Beyond the paper: execute the corpus under disruption and
    cross-tabulate detected defect kinds against observed symptoms."""
    from ..corpus.generator import CorpusGenerator
    from ..corpus.profiles import PAPER_PROFILE
    from .manifestation import manifestation_study, render_manifestation

    pairs = CorpusGenerator(PAPER_PROFILE.scaled(n_apps)).generate()
    rows = manifestation_study(pairs, seed=3)
    data = {
        row.kind.value: {
            "symptom": row.symptom,
            "flagged": row.flagged_apps,
            "flagged_rate": row.flagged_rate,
            "clean": row.clean_apps,
            "clean_rate": row.clean_rate,
        }
        for row in rows
    }
    return ExperimentReport(
        "manifest",
        "Defect manifestation under simulated disruption",
        render_manifestation(rows),
        data,
    )


#: The per-experiment index (see DESIGN.md).
EXPERIMENTS: dict[str, Callable[[], ExperimentReport]] = {
    "fig3": run_fig3,
    "study": run_study_tables,
    "table4": run_table4,
    "table6": run_table6,
    "table6x": run_table6x,
    "table7": run_table7,
    "table8": run_table8,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "table9": run_table9,
    "fig10": run_fig10,
    "table11": run_table11,
    "manifest": run_manifestation,
    "table2x": run_table2x,
}

