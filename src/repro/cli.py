"""Command-line interface: ``nchecker``.

Subcommands:

* ``scan <app.apkt> [...]`` — detect NPDs in app files and print §4.6
  warning reports;
* ``experiments [ids...]`` — regenerate the paper's tables/figures;
* ``corpus <dir> [--apps N]`` — emit the synthetic evaluation corpus as
  ``.apkt`` files (inspectable, re-scannable);
* ``cache stats|gc|clear`` — manage the persistent artifact cache;
* ``bench record|compare|gate`` — record performance runs into the
  append-only run ledger and gate regressions against a baseline
  (``docs/BENCHMARKS.md``);
* ``serve`` — run the scan-as-a-service HTTP daemon
  (``docs/SERVICE.md``).

Every subcommand and flag is documented in ``docs/CLI.md``
(``tests/test_docs.py`` asserts the doc covers this parser, so it
cannot rot).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .app.loader import dumps_apk, load_apk
from .core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NChecker, NCheckerOptions
from .corpus.generator import CorpusGenerator
from .corpus.profiles import PAPER_PROFILE
from .eval.experiments import EXPERIMENTS
from .obs import get_logger

log = get_logger("cli")


def _enabled_checks(args: argparse.Namespace) -> frozenset[str]:
    if getattr(args, "extended_checks", False):
        return DEFAULT_CHECKS | EXTENDED_CHECKS
    return DEFAULT_CHECKS


def _cmd_scan(args: argparse.Namespace) -> int:
    options = NCheckerOptions(
        guard_aware_connectivity=args.guard_aware,
        interprocedural_connectivity=not args.intraprocedural,
        cache_dir=args.cache_dir,
        enabled_checks=_enabled_checks(args),
    )
    from .pipeline.batch import BatchScanner

    # --trace / --metrics / --stats / --profile / --ledger all ride on
    # the worker telemetry round-trip; none of them touch stdout, which
    # stays byte-identical to an uninstrumented run (the table and
    # notices go to stderr).  Whenever metrics are collected the span
    # stream is folded into the profile tree too, so every --metrics
    # snapshot carries a `profile` section.
    want_trace = bool(args.trace)
    want_metrics = (
        bool(args.metrics_out) or args.stats or args.profile or args.ledger
    )

    progress = None
    if args.progress:
        def progress(done: int, total: int, payload) -> None:
            label = payload.package if payload.ok else payload.path
            log.info(
                "[%d/%d] %s: %d finding(s), %d request(s)",
                done, total, label, payload.n_findings, payload.n_requests,
            )

    scanner = BatchScanner(options=options, jobs=args.jobs)
    payloads = scanner.scan_paths(
        args.apps,
        want_json=args.json,
        want_sarif=bool(args.sarif),
        want_stats=args.stats,
        want_summary=args.summary,
        want_trace=want_trace,
        want_metrics=want_metrics,
        want_profile=want_metrics,
        progress=progress,
    )
    exit_code = 0
    json_payload = []
    sarif_kinds, sarif_results = [], []
    for payload in payloads:
        if not payload.ok:
            print(payload.error, file=sys.stderr)
            raise SystemExit(2)
        if payload.n_findings:
            exit_code = 1
        if args.sarif:
            sarif_kinds.extend(payload.sarif_kind_values)
            sarif_results.extend(payload.sarif_results)
        if args.json:
            json_payload.append(payload.json_dict)
        if args.json or args.sarif:
            continue
        print(f"== {payload.package}: {payload.n_findings} NPD(s), "
              f"{payload.n_requests} request(s) ==")
        if args.stats:
            for label, value in payload.stats_rows:
                print(f"  {label}: {value}")
        if args.summary:
            for kind, count in payload.summary_counts:
                print(f"  {kind}: {count}")
        else:
            for text in payload.report_texts:
                print(text)
                print()
    if args.json:
        import json

        print(json.dumps(json_payload, indent=2))
    if args.sarif:
        import json

        from .eval.sarif import assemble_sarif_log

        sarif_log = assemble_sarif_log(sarif_kinds, sarif_results)
        try:
            Path(args.sarif).write_text(json.dumps(sarif_log, indent=2))
        except OSError as exc:
            print(f"error: cannot write SARIF log to {args.sarif}: {exc}",
                  file=sys.stderr)
            return 2
        # Diagnostics go through the logger (stderr), so machine-readable
        # stdout (--json / --sarif) is never polluted.
        log.info("wrote SARIF log for %d app(s) to %s", len(payloads), args.sarif)
    if want_trace or want_metrics:
        code = _write_scan_telemetry(args, payloads, options)
        if code:
            return code
    return exit_code


def _write_scan_telemetry(args: argparse.Namespace, payloads, options) -> int:
    """Merge worker telemetry and surface it (--trace/--metrics/--stats/
    --profile), then append the run to the ledger when asked
    (--ledger, or $NCHECKER_LEDGER_DIR in the environment)."""
    import json

    from .obs import chrome_trace, merge_snapshots, render_telemetry

    if args.trace:
        events = [event for p in payloads for event in p.trace_events]
        try:
            Path(args.trace).write_text(json.dumps(chrome_trace(events)))
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 2
        log.info("wrote Chrome trace (%d events) to %s", len(events), args.trace)
    merged = merge_snapshots(
        [p.metrics_snapshot for p in payloads if p.metrics_snapshot]
    )
    if args.metrics_out:
        try:
            Path(args.metrics_out).write_text(json.dumps(merged, indent=2))
        except OSError as exc:
            print(f"error: cannot write metrics to {args.metrics_out}: {exc}",
                  file=sys.stderr)
            return 2
        log.info("wrote metrics snapshot to %s", args.metrics_out)
    if args.stats:
        print(render_telemetry(merged), file=sys.stderr)
    if args.profile:
        from .obs import render_profile

        print(render_profile(merged.get("profile") or {}), file=sys.stderr)
    if merged.get("counters") and (
        args.ledger or os.environ.get("NCHECKER_LEDGER_DIR")
    ):
        from .obs import RunLedger, app_set_digest, resolve_ledger_dir, run_record

        record = run_record(
            "scan",
            options=options,
            app_set=app_set_digest(args.apps),
            snapshot=merged,
        )
        ledger = RunLedger(resolve_ledger_dir())
        try:
            ledger.append(record)
        except OSError as exc:
            # The ledger is telemetry: losing a record must not fail the
            # scan that produced perfectly good findings.
            log.warning("cannot append to run ledger %s: %s", ledger.path, exc)
        else:
            log.info("appended run %s to %s", record["run_id"], ledger.path)
    return 0


def _cmd_checks(args: argparse.Namespace) -> int:
    """List every registered check: pipeline name, whether the current
    flags enable it, and the store artifacts it reads."""
    from .core.checks import check_catalog

    options = NCheckerOptions(enabled_checks=_enabled_checks(args))
    for check in check_catalog(options):
        state = "enabled" if check.name in options.enabled_checks else "disabled"
        reads = ", ".join(check.reads(options))
        print(f"{check.name:22s} {state:9s} reads: {reads}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    export_dir = Path(args.export) if args.export else None
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
    for exp_id in ids:
        report = EXPERIMENTS[exp_id]()
        print(report)
        print()
        if export_dir is not None:
            from .eval.export import export_report

            for path in export_report(report, export_dir):
                print(f"  wrote {path}")
    return 0


def _cmd_patch(args: argparse.Namespace) -> int:
    from .core.patcher import Patcher

    if args.output and len(args.apps) > 1:
        args.parser.error("-o/--output requires exactly one input app")
    checker = NChecker(options=NCheckerOptions(cache_dir=args.cache_dir))
    patcher = Patcher()
    exit_code = 0
    for path in args.apps:
        apk = _load_or_die(path)
        fixed, applied = patcher.patch_until_clean(apk, checker)
        remaining = checker.scan(fixed).findings
        out_path = Path(args.output or Path(path).with_suffix(".fixed.apkt"))
        out_path.write_text(dumps_apk(fixed))
        print(
            f"{apk.package}: applied {len(applied)} patch(es), "
            f"{len(remaining)} finding(s) remain -> {out_path}"
        )
        for patch in applied:
            print(f"  {patch}")
        if remaining:
            exit_code = 1
    return exit_code


def _cmd_diff(args: argparse.Namespace) -> int:
    from .core.diff import diff_scans

    checker = NChecker()
    before = checker.scan(_load_or_die(args.before))
    after = checker.scan(_load_or_die(args.after))
    diff = diff_scans(before, after)
    print(diff.render())
    if diff.introduced:
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .netsim.energy import estimate_energy
    from .netsim.runtime import Runtime
    from .netsim.scenarios import SCENARIOS

    schedule = SCENARIOS.get(args.network)
    if schedule is None:
        print(f"unknown network scenario: {args.network}", file=sys.stderr)
        print(f"available: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    apk = _load_or_die(args.app)
    if args.entry:
        cls_name, _, method_name = args.entry.rpartition(".")
        entries = [(cls_name, method_name)]
    else:
        from .app.components import UI_CALLBACK_METHODS

        entries = [
            (cls.name, m.name)
            for cls in apk.classes()
            for m in cls.methods()
            if m.name in UI_CALLBACK_METHODS or m.name == "onStartCommand"
        ]
    if not entries:
        print("no entry points found", file=sys.stderr)
        return 2
    exit_code = 0
    for cls_name, method_name in entries:
        runtime = Runtime(
            apk, schedule, seed=args.seed,
            invalid_response_rate=args.invalid_response_rate,
        )
        report = runtime.run_entry(cls_name, method_name)
        symptoms = []
        if report.crashed:
            symptoms.append(f"CRASH({report.crash_type})")
            exit_code = 1
        if report.silent_failure:
            symptoms.append("SILENT-FAILURE")
        if report.battery_drain:
            symptoms.append(f"BATTERY-DRAIN({report.attempts_per_minute:.0f}/min)")
        energy = estimate_energy(report)
        print(
            f"{cls_name.rsplit('.', 1)[-1]}.{method_name} on {args.network}: "
            f"{', '.join(symptoms) or 'ok'} | "
            f"requests {report.requests_succeeded}/{report.network_attempts}, "
            f"{report.sim_time_ms:.0f} ms simulated, "
            f"{energy.total_mj:.0f} mJ radio"
        )
    return exit_code


def _cmd_corpus(args: argparse.Namespace) -> int:
    out_dir = Path(args.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = CorpusGenerator(PAPER_PROFILE.scaled(args.apps))
    truths = []
    for apk, truth in generator.iter_apps():
        path = out_dir / f"{apk.package}.apkt"
        path.write_text(dumps_apk(apk))
        truths.append(truth)
    print(f"wrote {args.apps} apps to {out_dir}")
    if not args.no_ledger:
        from .corpus.groundtruth import dumps_ledger

        ledger_path = out_dir / "groundtruth.json"
        ledger_path.write_text(dumps_ledger(truths))
        print(f"wrote ground-truth ledger to {ledger_path}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .pipeline.cachestore import LocalDirBackend, format_size, parse_size

    backend = LocalDirBackend(args.cache_dir)
    if args.action == "stats":
        print(backend.stats().render())
        return 0
    if args.action == "gc":
        try:
            max_bytes = parse_size(args.max_size)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        removed, freed = backend.gc(max_bytes, grace_seconds=args.min_age)
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}, "
              f"freed {format_size(freed)}")
        return 0
    if args.action == "clear":
        removed = backend.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    raise AssertionError(f"unknown cache action {args.action!r}")


#: Where `bench record --baseline` / `bench gate --baseline` point by
#: default — the file CI checks in and gates against (docs/BENCHMARKS.md).
DEFAULT_BASELINE = "benchmarks/bench_baseline.json"


def _bench_apps(args: argparse.Namespace) -> list[str]:
    """The app set a bench command measures: explicit paths, else the
    repository's example apps relative to the working directory."""
    apps = list(getattr(args, "apps", None) or [])
    if not apps:
        import glob

        apps = sorted(glob.glob(os.path.join("examples", "apps", "*.apkt")))
    return apps


def _bench_measure(apps, jobs: int, options, label):
    """One instrumented benchmark scan -> a ledger record.

    The persistent cache is left disabled (the options carry no cache
    dir) so every counter is a pure function of (apps, options)
    — the determinism `bench compare`'s exact-match rule relies on.
    """
    import time

    from .obs import app_set_digest, merge_snapshots, run_record
    from .pipeline.batch import BatchScanner

    scanner = BatchScanner(options=options, jobs=jobs)
    start = time.perf_counter()
    payloads = scanner.scan_paths(apps, want_metrics=True, want_profile=True)
    wall_s = time.perf_counter() - start
    for payload in payloads:
        if not payload.ok:
            print(payload.error, file=sys.stderr)
            raise SystemExit(2)
    merged = merge_snapshots(
        [p.metrics_snapshot for p in payloads if p.metrics_snapshot]
    )
    return run_record(
        "bench",
        options=options,
        app_set=app_set_digest(apps),
        snapshot=merged,
        label=label,
        wall_s=wall_s,
    )


def _bench_export(record: dict) -> dict:
    """The derived BENCH export: measurements under a schema version,
    identity under a provenance block."""
    from .obs import BENCH_SCHEMA_VERSION, provenance

    export = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "provenance": provenance(record),
    }
    for key in ("wall_s", "counters", "gauges", "timings", "profile"):
        export[key] = record.get(key)
    return export


def _cmd_bench_record(args: argparse.Namespace) -> int:
    import json

    from .obs import RunLedger, resolve_ledger_dir

    apps = _bench_apps(args)
    if not apps:
        print("error: no apps given and no examples/apps/*.apkt found "
              "under the working directory", file=sys.stderr)
        return 2
    options = NCheckerOptions(enabled_checks=_enabled_checks(args))
    record = _bench_measure(apps, args.jobs, options, args.label)
    ledger = RunLedger(resolve_ledger_dir(args.ledger_dir))
    ledger.append(record)
    print(f"recorded bench run {record['run_id']} "
          f"({record['app_set']['count']} app(s), "
          f"{record['wall_s'] * 1000:.0f} ms) -> {ledger.path}")
    export = _bench_export(record)
    for out in (args.out, args.baseline):
        if not out:
            continue
        path = Path(out)
        # `--baseline` takes an optional value, so a stray app path can
        # land here (`--baseline app.apkt ...`); never clobber a file
        # that is not already a JSON export.
        if path.exists() and path.read_text()[:1] not in ("{", ""):
            print(f"error: refusing to overwrite non-JSON file {out}",
                  file=sys.stderr)
            return 2
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.write_text(json.dumps(export, indent=2) + "\n")
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {out}")
    return 0


def _load_run_or_die(path: str) -> dict:
    from .obs import load_run

    try:
        return load_run(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(2)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .obs import compare_runs

    base = _load_run_or_die(args.baseline)
    current = _load_run_or_die(args.current)
    result = compare_runs(base, current, args.timing_threshold,
                          args.timing_min_ms)
    print(result.render())
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from .obs import RunLedger, compare_runs, resolve_ledger_dir

    base = _load_run_or_die(args.baseline)
    if args.current:
        current = _load_run_or_die(args.current)
    else:
        apps = _bench_apps(args)
        if not apps:
            print("error: no apps given, no --current file, and no "
                  "examples/apps/*.apkt found", file=sys.stderr)
            return 2
        options = NCheckerOptions(enabled_checks=_enabled_checks(args))
        current = _bench_measure(apps, args.jobs, options,
                                 args.label or "gate")
        RunLedger(resolve_ledger_dir(args.ledger_dir)).append(current)
    result = compare_runs(base, current, args.timing_threshold,
                          args.timing_min_ms)
    print(result.render())
    return 0 if result.ok else 1


def _load_or_die(path: str):
    from .ir.parser import ParseError

    try:
        return load_apk(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(2)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the scan-as-a-service daemon (``docs/SERVICE.md``) in the
    foreground until interrupted."""
    import asyncio

    from .pipeline.cachestore import parse_size
    from .service import ServiceConfig, serve

    try:
        max_body = parse_size(args.max_body)
    except ValueError as exc:
        print(f"error: --max-body: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        cache_dir=args.cache_dir,
        extended_checks=args.extended_checks,
        max_body_bytes=max_body,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for worker counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The complete ``nchecker`` argument parser.

    Exposed separately from :func:`main` so ``docs/CLI.md`` can be
    checked against it (every flag must appear in the doc) and so
    embedders can introspect the CLI surface.
    """
    parser = argparse.ArgumentParser(
        prog="nchecker",
        description="Detect network programming defects (NPDs) in "
        "Android-style app binaries (.apkt).",
    )
    # Logging verbosity rides on every subcommand (`nchecker scan -v ...`);
    # diagnostics always go to stderr, so machine output stays clean.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="suppress diagnostic messages (errors only)",
    )
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable debug diagnostics on stderr",
    )
    # The opt-in persistent artifact cache rides on every command that
    # scans; `cache`, which manages it, requires it.  See docs/CACHING.md.
    caching = argparse.ArgumentParser(add_help=False)
    caching.add_argument(
        "--cache-dir", metavar="DIR",
        help="read and write the persistent artifact cache in DIR "
        "(default: no cache; output is byte-identical either way)",
    )
    cache_root = argparse.ArgumentParser(add_help=False)
    cache_root.add_argument(
        "--cache-dir", metavar="DIR", required=True,
        help="the persistent artifact cache to manage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan app files for NPDs",
                          parents=[common, caching])
    scan.add_argument("apps", nargs="+", help=".apkt files to scan")
    scan.add_argument(
        "--summary", action="store_true", help="print per-kind counts only"
    )
    scan.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    scan.add_argument(
        "--sarif", metavar="FILE",
        help="write findings as a SARIF 2.1.0 log to FILE",
    )
    scan.add_argument(
        "--stats", action="store_true",
        help="also print app code metrics, plus the per-pass/per-artifact "
        "telemetry table (stderr) after the scan",
    )
    scan.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace-event JSON of the scan to FILE "
        "(open in Perfetto or chrome://tracing)",
    )
    scan.add_argument(
        "--metrics", dest="metrics_out", metavar="FILE",
        help="write the merged metrics snapshot (counters, timing "
        "histograms) as JSON to FILE",
    )
    scan.add_argument(
        "--profile", action="store_true",
        help="print the span-tree profile (per-layer self/cumulative "
        "wall time) on stderr after the scan; the tree is also embedded "
        "in the --metrics JSON under a 'profile' section",
    )
    scan.add_argument(
        "--ledger", action="store_true",
        help="append this run's telemetry to the append-only run ledger "
        "($NCHECKER_LEDGER_DIR, else ~/.local/state/nchecker; see "
        "docs/BENCHMARKS.md)",
    )
    scan.add_argument(
        "--progress", action="store_true",
        help="emit a per-app heartbeat line on stderr as results land",
    )
    scan.add_argument(
        "-j", "--jobs", type=_positive_int, default=1, metavar="N",
        help="scan apps across N worker processes (output is byte-identical "
        "to --jobs 1)",
    )
    scan.add_argument(
        "--guard-aware",
        action="store_true",
        help="require connectivity checks to control-guard the request",
    )
    scan.add_argument(
        "--intraprocedural",
        action="store_true",
        help="restrict the connectivity analysis to the request's method",
    )
    scan.add_argument(
        "--extended-checks", action="store_true",
        help="also run the extended-taxonomy checks (ui-thread-network, "
        "callback-leak, offline-cache); off by default so output matches "
        "the paper's five analyses",
    )
    scan.set_defaults(func=_cmd_scan)

    checks = sub.add_parser(
        "checks", help="list the registered checks and what each reads",
        parents=[common],
    )
    checks.add_argument(
        "--extended-checks", action="store_true",
        help="show the enabled state the scan's --extended-checks flag "
        "would produce",
    )
    checks.set_defaults(func=_cmd_checks)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures",
        parents=[common],
    )
    experiments.add_argument("ids", nargs="*", help=f"subset of: {', '.join(EXPERIMENTS)}")
    experiments.add_argument(
        "--export", metavar="DIR", help="also write CSV/JSON artifacts to DIR"
    )
    experiments.set_defaults(func=_cmd_experiments)

    patch = sub.add_parser(
        "patch", help="apply fix suggestions and write a patched .apkt",
        parents=[common, caching],
    )
    patch.add_argument("apps", nargs="+", help=".apkt files to patch")
    patch.add_argument(
        "-o", "--output", help="output path (single input only; default: "
        "<input>.fixed.apkt)"
    )
    patch.set_defaults(func=_cmd_patch, parser=patch)

    diff = sub.add_parser(
        "diff", help="compare the findings of two app versions",
        parents=[common],
    )
    diff.add_argument("before")
    diff.add_argument("after")
    diff.set_defaults(func=_cmd_diff)

    run = sub.add_parser(
        "run", help="execute an app's entry points against a simulated network",
        parents=[common],
    )
    run.add_argument("app", help=".apkt file to run")
    run.add_argument(
        "--network", default="poor-3g",
        help="scenario name (wifi, 3g, offline, poor-3g, commute, subway, ...)",
    )
    run.add_argument("--entry", help="fully qualified Class.method (default: all)")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--invalid-response-rate", type=float, default=0.5,
        help="probability a completed request carries an HTTP error",
    )
    run.set_defaults(func=_cmd_run)

    corpus = sub.add_parser(
        "corpus", help="emit the synthetic corpus as .apkt files",
        parents=[common],
    )
    corpus.add_argument("directory")
    corpus.add_argument("--apps", type=int, default=285)
    corpus.add_argument(
        "--no-ledger", action="store_true",
        help="skip writing the groundtruth.json ledger next to the .apkt files",
    )
    corpus.set_defaults(func=_cmd_corpus)

    cache = sub.add_parser(
        "cache", help="inspect and manage the persistent artifact cache",
    )
    # The shared flags go on each action (not on `cache` itself): argparse
    # subparsers re-apply their defaults over the parent namespace, so a
    # flag accepted in both places would be silently clobbered.
    action = cache.add_subparsers(dest="action", required=True)
    action.add_parser(
        "stats", help="print entry counts and sizes per artifact kind",
        parents=[common, cache_root],
    )
    gc = action.add_parser(
        "gc", help="drop least-recently-used entries to fit a size budget",
        parents=[common, cache_root],
    )
    gc.add_argument(
        "--max-size", required=True, metavar="SIZE",
        help="target cache size, e.g. 512M, 1.5G, or a byte count",
    )
    gc.add_argument(
        "--min-age", type=float, default=60.0, metavar="SECONDS",
        help="never evict entries written within the last SECONDS "
        "(grace window protecting concurrent scanners; default 60)",
    )
    action.add_parser(
        "clear", help="delete every cache entry", parents=[common, cache_root]
    )
    cache.set_defaults(func=_cmd_cache)

    bench = sub.add_parser(
        "bench",
        help="record performance runs in the run ledger and gate "
        "regressions against a baseline",
    )
    bench_action = bench.add_subparsers(dest="action", required=True)

    record = bench_action.add_parser(
        "record",
        help="run an instrumented, cache-disabled benchmark scan and "
        "append it to the run ledger",
        parents=[common],
    )
    record.add_argument(
        "apps", nargs="*",
        help=".apkt files to measure (default: examples/apps/*.apkt "
        "under the working directory)",
    )
    record.add_argument(
        "--label", metavar="TEXT",
        help="free-form label stored on the ledger record",
    )
    record.add_argument(
        "-j", "--jobs", type=_positive_int, default=1, metavar="N",
        help="scan across N worker processes (profiles merge node-for-node)",
    )
    record.add_argument(
        "--extended-checks", action="store_true",
        help="measure with the extended-taxonomy checks enabled",
    )
    record.add_argument(
        "--ledger-dir", metavar="DIR",
        help="run-ledger location (default: $NCHECKER_LEDGER_DIR, else "
        "~/.local/state/nchecker)",
    )
    record.add_argument(
        "--out", metavar="FILE",
        help="also write the derived BENCH export (schema_version + "
        "provenance + measurements) to FILE",
    )
    record.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE, metavar="FILE",
        help="also write the export as the regression baseline "
        f"(default path: {DEFAULT_BASELINE}) — the one-command baseline "
        "refresh",
    )
    record.set_defaults(func=_cmd_bench_record)

    compare = bench_action.add_parser(
        "compare",
        help="diff two recorded runs and render the delta table",
        parents=[common],
    )
    compare.add_argument(
        "baseline", help="baseline run: ledger .jsonl (last record), "
        "ledger-entry/baseline JSON, or a scan --metrics snapshot",
    )
    compare.add_argument("current", help="current run, same formats")
    compare.add_argument(
        "--timing-threshold", type=float, default=0.2, metavar="FRACTION",
        help="relative wall-time tolerance before a timing counts as a "
        "regression (default 0.2 = ±20%%)",
    )
    compare.add_argument(
        "--timing-min-ms", type=float, default=5.0, metavar="MS",
        help="absolute noise floor: timings whose totals stay under MS "
        "never gate (default 5.0)",
    )
    compare.set_defaults(func=_cmd_bench_compare)

    gate = bench_action.add_parser(
        "gate",
        help="compare against a baseline and exit nonzero on regressions",
        parents=[common],
    )
    gate.add_argument(
        "apps", nargs="*",
        help=".apkt files to measure when no --current is given "
        "(default: examples/apps/*.apkt)",
    )
    gate.add_argument(
        "--baseline", required=True, metavar="FILE",
        help="the recorded baseline to gate against",
    )
    gate.add_argument(
        "--current", metavar="FILE",
        help="gate this previously recorded run instead of measuring now",
    )
    gate.add_argument(
        "--timing-threshold", type=float, default=0.2, metavar="FRACTION",
        help="relative wall-time tolerance (default 0.2 = ±20%%)",
    )
    gate.add_argument(
        "--timing-min-ms", type=float, default=5.0, metavar="MS",
        help="absolute noise floor: timings whose totals stay under MS "
        "never gate (default 5.0)",
    )
    gate.add_argument(
        "--label", metavar="TEXT",
        help="label stored on the measured run's ledger record",
    )
    gate.add_argument(
        "-j", "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for the measurement run",
    )
    gate.add_argument(
        "--extended-checks", action="store_true",
        help="measure with the extended-taxonomy checks enabled",
    )
    gate.add_argument(
        "--ledger-dir", metavar="DIR",
        help="run-ledger location for the measured run",
    )
    gate.set_defaults(func=_cmd_bench_gate)

    serve = sub.add_parser(
        "serve",
        help="run the scan-as-a-service HTTP daemon (docs/SERVICE.md)",
        parents=[common, caching],
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1; use 0.0.0.0 to serve "
        "a fleet)",
    )
    serve.add_argument(
        "--port", type=int, default=8321, metavar="PORT",
        help="port to bind (default 8321; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="scan worker processes; each keeps its session cache warm "
        "across requests (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="max admitted-but-unfinished scan jobs before submissions "
        "get 503 (default 64)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="R",
        help="sustained scan submissions per second allowed per tenant "
        "(token-bucket refill rate; default 0 = unlimited)",
    )
    serve.add_argument(
        "--rate-burst", type=int, default=8, metavar="N",
        help="token-bucket capacity: burst size a tenant may submit "
        "before --rate-limit applies (default 8)",
    )
    serve.add_argument(
        "--max-body", default="16M", metavar="SIZE",
        help="largest accepted request body (413 beyond it); sizes like "
        "16M, 1.5G, or raw bytes (default 16M)",
    )
    serve.add_argument(
        "--extended-checks", action="store_true",
        help="run every scan with the extended-taxonomy checks enabled",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import configure_logging

    configure_logging(getattr(args, "verbose", 0) - getattr(args, "quiet", 0))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
