"""The traced run: per-layer timings and counts, taken from outside.

The run calls each layer's public entry point itself, in process, over
the workload's own inputs, and wraps every call in a span.  Spans live in
memory (name, start, end, parent, operation id) and are written to
``.perfbench_work/traces/<workload>-seed<seed>.jsonl`` when the run ends;
a span's self time is its duration minus the time its child spans cover.
The program itself carries no benchmark instrumentation.

Layers and the calls that time them:

* ``cli``        -- a fresh interpreter running ``pass``, and one timing
  ``import repro.cli`` (byte code compiled as in the workload);
* ``app``        -- ``repro.app.loads_apk`` (parse + validate);
* ``cfg``        -- ``repro.cfg.graph.CFG`` over every method;
* ``dataflow``   -- ``DefUseChains`` and ``ConstantPropagation`` over every
  CFG, and the summary engine's counters after the scan;
* ``callgraph``  -- ``ArtifactStore.get(CALLGRAPH)``;
* ``core``       -- ``ArtifactStore.get(REQUESTS)`` and ``get(RETRY_LOOPS)``,
  then ``ScanSession.scan()`` with those prebuilt (summaries + passes);
* ``cachestore`` -- ``app_content_fingerprint``, ``CacheStore.store_from``
  into a fresh local backend and ``CacheStore.load_into`` a fresh store;
* ``eval``       -- ``ScanResult.to_dict`` + ``json.dumps(indent=2)``, and
  ``finding_result`` + ``assemble_sarif_log`` + ``json.dumps(indent=2)``;
* ``batch``      -- ``BatchScanner.scan_paths`` at ``jobs`` 1 and 2, with
  SARIF rendering and no disk cache;
* ``service``    -- ``/healthz`` and ``POST /v1/scans`` round trips to a
  fresh ``nchecker serve``, polls per scan, and how late a short open-loop
  generator ran (``daemon.probe``).

A per-app timing is the median over the workload's apps (and passes); a
count is the total over its apps.  Before each app the parser's
module-level interning caches are emptied, so every app is parsed as a
fresh ``nchecker scan`` process parses it.  The same per-app calls also
run with no-op spans, in pairs with the traced calls (untraced first on
even apps, traced first on odd ones), so the report can give the tracing
overhead against the untraced wall time on the same inputs.

Counts that describe the input or the correct output rather than the
work done (statements, methods, call-graph size, requests, findings) are
printed on the ``counts`` line of the report, not returned as metrics:
they have no better direction.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.app import loads_apk
from repro.ir import parser as ir_parser
from repro.cfg.graph import CFG
from repro.core.checker import NCheckerOptions
from repro.dataflow.constants import ConstantPropagation
from repro.dataflow.reaching import DefUseChains
from repro.eval.sarif import assemble_sarif_log, finding_result
from repro.libmodels import default_registry
from repro.pipeline import (
    CALLGRAPH, REQUESTS, RETRY_LOOPS, SUMMARIES, ArtifactStore, CacheStore,
    LocalDirBackend, ScanSession,
)
from repro.pipeline.batch import BatchScanner
from repro.pipeline.cachestore import app_content_fingerprint

import daemon
import inputs
from workloads import SETUP_REPS
from common import WORK, BenchError, describe

class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: [name, op, parent index, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = [name, op, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [(end - start) * 1000 for _n, _o, _p, start, end in self.spans]
        for _n, _o, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= (end - start) * 1000
        return own

    def durations(self, name: str) -> list[float]:
        return [(end - start) * 1000
                for n, _o, _p, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as out:
            for (name, op, parent, start, end), own in zip(self.spans, self.self_ms()):
                out.write(json.dumps({
                    "name": name, "op": op, "parent": parent,
                    "start_ms": round((start - base) * 1000, 4),
                    "end_ms": round((end - base) * 1000, 4),
                    "self_ms": round(own, 4),
                }) + "\n")


def clear_parser_caches() -> None:
    """Empty the parser's module-level ``*_CACHE`` dicts, as in a fresh
    process."""
    for name, value in vars(ir_parser).items():
        if name.endswith("_CACHE") and isinstance(value, dict):
            value.clear()


class _Untraced:
    @staticmethod
    def span(name: str, op: str):
        return nullcontext()


def app_pipeline(app, tracer, op: str, scratch: Path) -> tuple[dict, str]:
    """Every per-app layer over one app; returns its counts and '' or the
    difference between its findings and the ledger."""
    span = tracer.span
    options = NCheckerOptions()
    clear_parser_caches()
    with span("op", op):
        with span("app.load", op):
            apk = loads_apk(app.text)
        methods = list(apk.methods())
        with span("cfg.build", op):
            cfgs = [CFG(method) for method in methods]
        with span("dataflow.defuse", op):
            for cfg in cfgs:
                DefUseChains(cfg)
        with span("dataflow.constants", op):
            for cfg in cfgs:
                ConstantPropagation(cfg)
        registry = default_registry()
        session = ScanSession(apk, registry, options)
        store = session.store
        with span("callgraph.build", op):
            graph = store.get(CALLGRAPH)
        with span("core.requests", op):
            requests = store.get(REQUESTS)
        with span("core.retry_loops", op):
            store.get(RETRY_LOOPS)
        with span("core.checks", op):
            result = session.scan()
        with span("cachestore.fingerprint", op):
            fingerprint = app_content_fingerprint(apk)
        backend = LocalDirBackend(scratch / op)
        cache = CacheStore(backend)
        with span("cachestore.store", op):
            written = cache.store_from(store, fingerprint, options)
        with span("cachestore.load", op):
            loaded = cache.load_into(ArtifactStore(apk, registry), fingerprint, options)
        with span("eval.json", op):
            document = json.dumps([result.to_dict()], indent=2)
        with span("eval.sarif", op):
            uri = f"apps/{apk.package}.apkt"
            json.dumps(assemble_sarif_log(
                [f.kind.value for f in result.findings],
                [finding_result(f, uri) for f in result.findings],
            ), indent=2)
    summary_stats = store.peek(SUMMARIES).stats
    counts = {
        "app.stmts": app.statements,
        "app.methods": len(methods),
        "callgraph.methods": len(graph.methods),
        "callgraph.edges": sum(len(edges) for edges in graph.out_edges.values()),
        "core.requests": len(requests),
        "core.findings": len(result.findings),
        "dataflow.bool_fact_sccs": summary_stats.bool_fact_sccs,
        "dataflow.widenings": summary_stats.widenings,
        "cachestore.bytes_written": backend.stats().total_bytes,
        "cachestore.kinds_written": len(written),
        "cachestore.kinds_loaded": len(loaded & written),
        "eval.json_bytes": len(document.encode("utf-8")) + 1,
    }
    return counts, app.mismatch(inputs.json_keys(json.loads(document)))


def cli_layer(workload, repeats: int = 5) -> dict:
    """Interpreter start and ``import repro.cli`` in fresh processes."""
    probe = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import repro.cli\n"
        "ms = (time.perf_counter() - t) * 1000\n"
        "print(ms, sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))\n"
    )
    run = workload.launcher.run
    interp, imports, modules = [], [], set()
    for _ in range(repeats):
        interp.append(run([sys.executable, "-c", "pass"], workload.env,
                          workload.home).wall_s * 1000)
        result = run([sys.executable, "-c", probe], workload.env, workload.home)
        if result.code != 0:
            raise BenchError(f"import probe failed: {result.stderr.decode()[-300:]}")
        ms, count = result.stdout.split()
        imports.append(float(ms))
        modules.add(int(count))
    if len(modules) != 1:
        raise BenchError(f"repro module count varies between processes: {modules}")
    return {"interp": interp, "import": imports, "modules": modules.pop()}


def batch_layer(workload) -> tuple[dict, int, list]:
    """``BatchScanner.scan_paths`` with SARIF rendering at jobs 1 and 2.

    ``BatchScanner`` runs a single path serially whatever ``jobs`` says, so
    a one-app workload submits its app twice: two tasks, one per worker."""
    paths, apps = list(workload.paths), list(workload.apps)
    if len(paths) < 2:
        paths, apps = paths * 2, apps * 2
    seconds, failures = {}, []
    for jobs in (1, 2):
        start = time.perf_counter()
        payloads = BatchScanner(NCheckerOptions(), jobs=jobs).scan_paths(
            [str(p) for p in paths], want_sarif=True
        )
        seconds[jobs] = time.perf_counter() - start
        for payload, app in zip(payloads, apps):
            keys = [
                (*r["locations"][0]["logicalLocations"][0]["fullyQualifiedName"]
                 .rsplit(".", 1), r["ruleId"])
                for r in payload.sarif_results
            ]
            problem = payload.error if not payload.ok else app.mismatch(keys)
            if problem:
                failures.append(f"batch jobs={jobs}: {problem}")
                break
    return seconds, 2, failures


# -- the run --------------------------------------------------------------------

#: Per-layer metric -> unit, in report order.
PER_LAYER = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.repro_modules": "count",
    "app.load_ms": "ms", "app.us_per_stmt": "us",
    "cfg.build_ms": "ms",
    "dataflow.defuse_ms": "ms", "dataflow.constants_ms": "ms",
    "dataflow.bool_fact_sccs": "count", "dataflow.widenings": "count",
    "callgraph.build_ms": "ms",
    "core.requests_ms": "ms", "core.requests_us_per_stmt": "us",
    "core.retry_loops_ms": "ms", "core.checks_ms": "ms",
    "cachestore.fingerprint_ms": "ms", "cachestore.store_ms": "ms",
    "cachestore.bytes_written": "bytes", "cachestore.load_ms": "ms",
    "cachestore.hit_ratio": "ratio",
    "eval.json_ms": "ms", "eval.json_bytes": "bytes", "eval.sarif_ms": "ms",
    "batch.jobs1_s": "s", "batch.jobs2_s": "s", "batch.parallel_efficiency": "ratio",
    "service.boot_s": "s", "service.healthz_ms": "ms", "service.submit_ms": "ms",
    "service.polls_per_scan": "count", "service.generator_late_ms": "ms",
    "setup.generate_s": "s", "setup.compile_s": "s", "setup.warmup_s": "s",
    "trace.untraced_ms": "ms", "trace.traced_ms": "ms", "trace.overhead_pct": "%",
}

#: Span name -> the per-layer metric of its median duration.
SPAN_METRICS = {
    "app.load": "app.load_ms", "cfg.build": "cfg.build_ms",
    "dataflow.defuse": "dataflow.defuse_ms",
    "dataflow.constants": "dataflow.constants_ms",
    "callgraph.build": "callgraph.build_ms", "core.requests": "core.requests_ms",
    "core.retry_loops": "core.retry_loops_ms", "core.checks": "core.checks_ms",
    "cachestore.fingerprint": "cachestore.fingerprint_ms",
    "cachestore.store": "cachestore.store_ms", "cachestore.load": "cachestore.load_ms",
    "eval.json": "eval.json_ms", "eval.sarif": "eval.sarif_ms",
}


def run_layers(workload) -> tuple[int, int, dict]:
    """Set the workload up, then time every layer over its inputs."""
    workload.setup()
    for _ in range(SETUP_REPS - 1):
        workload.setup_again()
    apps = workload.apps
    scratch = workload.home / "layer-cache"
    failures: list[str] = []
    attempted = 0

    # Untimed first pass over one app: lazy imports and first-call costs.
    app_pipeline(apps[0], _Untraced, "warmup", scratch)

    # Each app runs once untraced and once traced, the order alternating
    # from pair to pair; the sums give the overhead.
    tracer = Tracer()
    totals: dict = {}
    passes = workload.LAYER_PASSES
    untraced_ms = traced_ms = 0.0
    pair = 0
    for rep in range(passes):
        for i, app in enumerate(apps):
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                start = time.perf_counter()
                if traced:
                    counts, problem = app_pipeline(app, tracer, f"app{i}.pass{rep}", scratch)
                    traced_ms += (time.perf_counter() - start) * 1000
                else:
                    app_pipeline(app, _Untraced, f"untraced{i}.pass{rep}", scratch)
                    untraced_ms += (time.perf_counter() - start) * 1000
            pair += 1
            attempted += 1
            if problem:
                failures.append(problem)
            if rep == 0:
                for name, value in counts.items():
                    totals[name] = totals.get(name, 0) + value

    cli = cli_layer(workload)
    batch_s, batch_ops, batch_failures = batch_layer(workload)
    attempted += batch_ops
    failures += batch_failures
    service = daemon.probe(workload, workload.PROBE_APPS)
    attempted += service["attempted"]
    failures += service["failures"]

    trace_path = WORK / "traces" / f"{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(trace_path)

    def med(values):
        return statistics.median(values) if values else 0.0

    values = {name: med(tracer.durations(span)) for span, name in SPAN_METRICS.items()}
    load_total = sum(tracer.durations("app.load")[: len(apps)])
    requests_total = sum(tracer.durations("core.requests")[: len(apps)])
    steps = workload.setup_steps
    values.update({
        "cli.interp_ms": med(cli["interp"]),
        "cli.import_ms": med(cli["import"]),
        "cli.repro_modules": cli["modules"],
        "app.us_per_stmt": load_total * 1000 / totals["app.stmts"],
        "core.requests_us_per_stmt": requests_total * 1000 / totals["app.stmts"],
        "cachestore.hit_ratio": totals["cachestore.kinds_loaded"]
        / max(1, totals["cachestore.kinds_written"]),
        "batch.jobs1_s": batch_s[1],
        "batch.jobs2_s": batch_s[2],
        "batch.parallel_efficiency": batch_s[1] / (2 * batch_s[2]),
        "service.boot_s": service["boot_s"],
        "service.healthz_ms": med(service["healthz"]),
        "service.submit_ms": med(service["submit"]),
        "service.polls_per_scan": statistics.mean(service["polls"]) if service["polls"] else 0.0,
        "service.generator_late_ms": med(service["late"]),
        "setup.generate_s": med([s["generate_s"] for s in steps]),
        "setup.compile_s": med([s["compile_s"] for s in steps]),
        "setup.warmup_s": med([s["warmup_s"] for s in steps]),
        "trace.untraced_ms": untraced_ms,
        "trace.traced_ms": traced_ms,
        "trace.overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100,
    })
    for name in PER_LAYER:
        if name in totals:
            values[name] = totals[name]
    shape = {name: value for name, value in totals.items() if name not in PER_LAYER}

    own = tracer.self_ms()
    print(f"== {workload.name} seed {workload.seed}: traced layers over "
          f"{len(apps)} app(s) x {passes} pass(es) ==")
    for span_name, metric in SPAN_METRICS.items():
        durations = tracer.durations(span_name)
        print(f"  {metric:26s} {describe(durations, 'ms')}")
    harness = [o for o, record in zip(own, tracer.spans) if record[0] == "op"]
    print(f"  {'op self time':26s} {describe(harness, 'ms')}")
    print(f"  {'cli.interp_ms':26s} {describe(cli['interp'], 'ms')}")
    print(f"  {'cli.import_ms':26s} {describe(cli['import'], 'ms')}")
    print(f"  {'service.healthz_ms':26s} {describe(service['healthz'], 'ms')}")
    print(f"  {'service.submit_ms':26s} {describe(service['submit'], 'ms')}")
    print(f"  service.rejected           {service['rejected']} of {service['attempted']}")
    print(f"  app.us_per_stmt            {load_total * 1000:.0f} us / {totals['app.stmts']} stmts")
    print(f"  core.requests_us_per_stmt  {requests_total * 1000:.0f} us / {totals['app.stmts']} stmts")
    print(f"  cachestore.hit_ratio       {totals['cachestore.kinds_loaded']} adopted / "
          f"{totals['cachestore.kinds_written']} tried")
    print(f"  batch.parallel_efficiency  jobs1 {batch_s[1]:.3f} s / (2 x jobs2 {batch_s[2]:.3f} s)")
    print(f"  trace overhead             {values['trace.overhead_pct']:+.2f}% "
          f"(traced {traced_ms:.1f} ms vs untraced {untraced_ms:.1f} ms)")
    print(f"  counts {json.dumps(shape, sort_keys=True)}")
    print(f"  spans written to {trace_path.relative_to(WORK.parent)}")
    for problem in failures[:5]:
        print(f"  FAILED: {problem}")
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return attempted, len(failures), metrics
