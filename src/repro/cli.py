"""Command-line interface: ``nchecker``.

Subcommands:

* ``scan <app.apkt> [...]`` — detect NPDs in app files and print §4.6
  warning reports;
* ``experiments [ids...]`` — regenerate the paper's tables/figures;
* ``corpus <dir> [--apps N]`` — emit the synthetic evaluation corpus as
  ``.apkt`` files (inspectable, re-scannable);
* ``cache stats|gc|clear`` — manage the persistent artifact cache;
* ``bench record|gate`` — record performance runs into the
  append-only run ledger and gate regressions against a baseline
  (``docs/BENCHMARKS.md``);
* ``serve`` — run the scan-as-a-service HTTP daemon
  (``docs/SERVICE.md``).

Every subcommand and flag is documented in ``docs/CLI.md``
(``tests/test_docs.py`` asserts the doc covers this parser, so it
cannot rot).

:func:`run` is the process entry point (``python -m repro.cli``, and the
installed ``nchecker`` script through :func:`repro._entry.run`);
:func:`main` parses and runs one command in the calling process.
"""

from __future__ import annotations

import gc
import time

#: ``time.perf_counter()`` and ``time.process_time()`` at this module's
#: first statement.  ``scan`` reports the time from here to the end of
#: the imports below as its ``cli.import`` span, and the CPU the process
#: had used before it got here (interpreter start-up and what ran before
#: this module, such as ``runpy`` and the ``repro`` package) as the
#: ``cli.interp_cpu_ms`` gauge.
_IMPORT_START = time.perf_counter()
_INTERP_CPU_S = time.process_time()

from ._entry import raise_young_threshold  # noqa: E402

if __name__ == "__main__":
    # Run as a program: raise the threshold before the imports below,
    # which would otherwise collect several times under the default.
    raise_young_threshold()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack, closing  # noqa: E402
from pathlib import Path  # noqa: E402

from .app.loader import dumps_apk, load_apk  # noqa: E402
from .core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NChecker, NCheckerOptions  # noqa: E402
from .obs import NULL_SPAN, Tracer, gc_spans, get_logger, span, use_tracer  # noqa: E402

_IMPORT_END = time.perf_counter()

log = get_logger("cli")

#: The ids ``nchecker experiments`` accepts, in run order.  Spelled out
#: so the parser's help needs no import of the evaluation stack; a test
#: pins it to ``tuple(repro.eval.EXPERIMENTS)``.
EXPERIMENT_IDS = (
    "fig3", "study", "table4", "table6", "table6x", "table7", "table8",
    "fig8", "fig9", "table9", "fig10", "table11", "manifest", "table2x",
)


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
    from .pipeline.batch import BatchScanner, WorkerDied

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

    with ExitStack() as stack:
        files = _open_scan_outputs(args, stack)
        if files is None:
            return 2
        spool = None
        if args.sarif:
            from .eval.sarif import SarifSpool

            try:
                spool = stack.enter_context(closing(SarifSpool()))
            except OSError as exc:
                _output_error(args, "sarif", exc)
                return 2
        scanner = BatchScanner(options=options, jobs=args.jobs)
        # Closed on the way out, so a load error or Ctrl-C reaps the
        # workers.
        payloads = stack.enter_context(closing(scanner.iter_paths(
            args.apps,
            want_json=args.json,
            want_sarif=bool(args.sarif),
            want_stats=args.stats,
            want_summary=args.summary,
            want_trace=want_trace,
            want_metrics=want_metrics,
            progress=progress,
        )))
        # The parent's own spans (rendering and writing the output) join
        # the workers' in the trace and the profile tree.
        render_tracer = Tracer(enabled=want_trace or want_metrics)
        render_tracer.add_span("cli.import", _IMPORT_START, _IMPORT_END)
        try:
            if args.json or want_trace or want_metrics:
                # The --json document goes out only once every app has
                # loaded (a load error leaves no partial stdout), and
                # telemetry merges every app's export: hold them all.
                # Otherwise each payload is written as it lands.
                payloads = list(payloads)
            with use_tracer(render_tracer), gc_spans(render_tracer):
                exit_code = _write_scan_output(args, payloads, files, spool)
        except WorkerDied as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if exit_code != 2 and (want_trace or want_metrics):
            code = _write_scan_telemetry(
                args, payloads, options, render_tracer.export(), files
            )
            if code:
                return code
    return exit_code


#: The files ``scan`` writes besides stdout: option dest → what its
#: error message calls it.
_SCAN_OUTPUT_FILES = {
    "sarif": "SARIF log", "trace": "trace", "metrics_out": "metrics",
}


def _output_error(args: argparse.Namespace, dest: str, exc: OSError) -> None:
    print(f"error: cannot write {_SCAN_OUTPUT_FILES[dest]} to "
          f"{getattr(args, dest)}: {exc}", file=sys.stderr)


def _open_scan_outputs(args: argparse.Namespace, stack: ExitStack):
    """Open (truncate) the ``--sarif``/``--trace``/``--metrics`` files
    before any app is scanned, so a path that cannot be written fails at
    once.  Returns option dest → open file, or ``None`` after printing
    the error."""
    files = {}
    for dest in _SCAN_OUTPUT_FILES:
        if not getattr(args, dest):
            continue
        try:
            files[dest] = stack.enter_context(open(getattr(args, dest), "w"))
        except OSError as exc:
            _output_error(args, dest, exc)
            return None
    return files


def _write_and_close(args: argparse.Namespace, files, dest: str, pieces) -> bool:
    """Write ``pieces`` into the open output file of ``dest`` and close
    it; ``False`` after printing the error."""
    try:
        with files[dest] as out:
            out.writelines(pieces)
    except OSError as exc:
        _output_error(args, dest, exc)
        return False
    return True


def _write_scan_output(args: argparse.Namespace, payloads, files, spool) -> int:
    """Print the reports (or the ``--json`` document) and write the
    ``--sarif`` log, through ``spool``, into its open file.  Returns 1
    when any app has findings, else 0, and 2 when the log cannot be
    written; exits 2 at the first app that failed to load, after the
    reports of the apps before it."""
    text_mode = not (args.json or args.sarif)
    exit_code = 0
    n_apps = 0
    with span("render.text") if text_mode else NULL_SPAN:
        for payload in payloads:
            if not payload.ok:
                print(payload.error, file=sys.stderr)
                raise SystemExit(2)
            n_apps += 1
            if payload.n_findings:
                exit_code = 1
            if spool is not None:
                spool.add(payload.sarif_kind_values, payload.sarif_text)
            if not text_mode:
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
    # Both documents go out piece by piece as they are encoded, so the
    # parent never holds one whole.
    if args.json:
        from .pipeline.batch import json_chunks

        with span("render.json"):
            sys.stdout.writelines(json_chunks(payloads))
    if spool is not None:
        with span("render.sarif"):
            if not _write_and_close(args, files, "sarif", spool.chunks()):
                return 2
        # Diagnostics go through the logger (stderr), so machine-readable
        # stdout (--json / --sarif) is never polluted.
        log.info("wrote SARIF log for %d app(s) to %s", n_apps, args.sarif)
    return exit_code


def _write_scan_telemetry(
    args: argparse.Namespace, payloads, options, render_events: list, files
) -> int:
    """Merge worker telemetry with the parent's ``render_events`` and
    surface it (--trace/--metrics into their open files, --stats,
    --profile), then append the run to the ledger when asked (--ledger,
    or $NCHECKER_LEDGER_DIR in the environment)."""
    import json

    from .obs import (
        chrome_trace,
        merge_snapshots,
        profile_from_events,
        render_telemetry,
    )

    if args.trace:
        events = [event for p in payloads for event in p.trace_events]
        events += render_events
        if not _write_and_close(
            args, files, "trace", [json.dumps(chrome_trace(events))]
        ):
            return 2
        log.info("wrote Chrome trace (%d events) to %s", len(events), args.trace)
    merged = merge_snapshots([
        *(p.metrics_snapshot for p in payloads if p.metrics_snapshot),
        {"gauges": {"cli.interp_cpu_ms": _INTERP_CPU_S * 1000},
         "profile": profile_from_events(render_events)},
    ])
    if args.metrics_out:
        from ._jsonwriter import dumps

        if not _write_and_close(args, files, "metrics_out", [dumps(merged)]):
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
    """List every registered check in run order, and whether the current
    flags enable it."""
    from .core.checks import check_catalog

    options = NCheckerOptions(enabled_checks=_enabled_checks(args))
    for check, enabled in check_catalog(options):
        print(f"{check.name:22s} {'enabled' if enabled else 'disabled'}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .eval.experiments import EXPERIMENTS

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    export_dir = Path(args.export) if args.export else None
    if export_dir is not None:
        try:
            export_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create export directory {export_dir}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
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
        try:
            out_path.write_text(dumps_apk(fixed))
        except OSError as exc:
            print(f"error: cannot write patched app to {out_path}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
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
        cls = apk.get_class(cls_name)
        if cls is None or all(m.name != method_name for m in cls.methods()):
            print(f"error: --entry {args.entry}: no such method in {args.app}",
                  file=sys.stderr)
            return 2
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
    from .corpus.generator import CorpusGenerator
    from .corpus.profiles import PAPER_PROFILE

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
    — the determinism `bench gate`'s exact-match rule relies on.
    """
    from .obs import app_set_digest, merge_snapshots, run_record
    from .pipeline.batch import BatchScanner

    scanner = BatchScanner(options=options, jobs=jobs)
    start = time.perf_counter()
    payloads = scanner.scan_paths(apps, want_metrics=True)
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
    for key in ("wall_s", "counters", "gauges", "profile"):
        export[key] = record.get(key)
    return export


def _cmd_bench_record(args: argparse.Namespace) -> int:
    from ._jsonwriter import dumps
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
            path.write_text(dumps(export) + "\n")
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
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)
    except (ParseError, ValueError) as exc:
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
    if not args.rate_limit >= 0:
        print(f"error: --rate-limit: must be at least 0, got {args.rate_limit}",
              file=sys.stderr)
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


def _number_in(convert, low, high=None):
    """An argparse type: ``convert(text)`` within ``[low, high]``
    (``high=None`` is unbounded).  NaN is never in range."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not (value >= low and (high is None or value <= high)):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


#: Counts of workers, jobs, queue slots and burst tokens.
_positive_int = _number_in(int, 1)
#: Gate tolerances: NaN would switch a gate off, a negative one invert it.
_non_negative_float = _number_in(float, 0)


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
        help="write the merged metrics snapshot (counters, gauges, and "
        "the span-tree profile) as JSON to FILE",
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
    experiments.add_argument("ids", nargs="*", help=f"subset of: {', '.join(EXPERIMENT_IDS)}")
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
        "--invalid-response-rate", type=_number_in(float, 0, 1), default=0.5,
        help="probability a completed request carries an HTTP error",
    )
    run.set_defaults(func=_cmd_run)

    corpus = sub.add_parser(
        "corpus", help="emit the synthetic corpus as .apkt files",
        parents=[common],
    )
    corpus.add_argument("directory")
    corpus.add_argument("--apps", type=_number_in(int, 0), default=285)
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
        "--min-age", type=_number_in(float, 0), default=60.0, metavar="SECONDS",
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
        help="the recorded baseline to gate against: ledger .jsonl (last "
        "record), ledger-entry/baseline JSON, or a scan --metrics snapshot",
    )
    gate.add_argument(
        "--current", metavar="FILE",
        help="gate this previously recorded run (same formats) instead of "
        "measuring now",
    )
    gate.add_argument(
        "--timing-threshold", type=_non_negative_float, default=0.2,
        metavar="FRACTION",
        help="relative wall-time tolerance per profile node (default 0.2 "
        "= ±20%%)",
    )
    gate.add_argument(
        "--timing-min-ms", type=_non_negative_float, default=5.0, metavar="MS",
        help="absolute noise floor: profile nodes whose times stay under "
        "MS never gate (default 5.0)",
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
        "--port", type=_number_in(int, 0, 65535), default=8321, metavar="PORT",
        help="port to bind (default 8321; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="scan worker processes; each keeps its session cache warm "
        "across requests (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=_positive_int, default=64, metavar="N",
        help="max admitted-but-unfinished scan jobs before submissions "
        "get 503 (default 64)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="R",
        help="sustained scan submissions per second allowed per tenant "
        "(token-bucket refill rate; default 0 = unlimited)",
    )
    serve.add_argument(
        "--rate-burst", type=_positive_int, default=8, metavar="N",
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


def run() -> None:
    """The ``nchecker`` process entry point: :func:`main` in a process
    that exits as soon as its output is out.

    It freezes the objects the CLI import created, so collections never
    rescan them (forked ``--jobs`` workers inherit the freeze), raises
    the young-generation threshold to
    :data:`~repro._entry.GEN0_THRESHOLD` (``python -m repro.cli`` and the
    installed script have done so before the CLI's imports already),
    runs :func:`main`, flushes stdout and stderr and leaves through
    ``os._exit``, skipping interpreter teardown.  That is safe because
    ``main`` returns only after every output file is closed and every
    worker pool is shut down, and ``repro`` registers no ``atexit``
    hook.  ``main`` itself leaves the collector alone, so library and
    test callers see no change.

    A reader that closes stdout early (``nchecker scan --json app | head``)
    gets exit code 2 and one ``error:`` line on stderr.
    """
    gc.freeze()
    raise_young_threshold()
    try:
        try:
            code = main()
        except SystemExit as exc:
            if exc.code is not None and not isinstance(exc.code, int):
                raise  # a message: let the interpreter print it
            code = exc.code or 0
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # Nothing more can reach the reader: whatever stdout still
        # buffers now goes to /dev/null instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        print("error: stdout was closed before all output was written "
              "(broken pipe)", file=sys.stderr, flush=True)
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
