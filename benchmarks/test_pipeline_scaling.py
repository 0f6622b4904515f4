"""Pipeline benchmarks: batch-scan scaling, disk-cache warm starts,
service throughput, and incremental patcher convergence.

Four claims from the pipeline work, measured:

* ``scan --jobs N`` fans whole apps across worker processes with
  *identical* results — the speedup is bounded by the core count, so the
  ≥2x assertion only applies on multi-core hosts (CI smoke runs may be
  single-core);
* the opt-in persistent artifact cache (``--cache-dir``) makes a warm
  re-scan perform **zero** app-scoped artifact builds with identical
  findings, timed against both a cold and a cache-disabled sweep —
  including the ``threadcontext`` artifact the extended checks add
  (timed and asserted separately, since default scans never build it);
* the ``nchecker serve`` daemon sustains the corpus over HTTP — warm
  resubmissions complete with zero app-scoped artifact builds;
* the incremental patch loop rebuilds only the dirty region after each
  patch round — asserted via the public metrics snapshot
  (``artifact.cfg.builds`` / ``artifact.invalidated_methods``), not by
  reaching into store internals — while producing byte-identical fixed
  apps.

The tests read the telemetry through :mod:`repro.obs` — the
snapshot/merge protocol the ``--metrics`` flag exposes — and append
their measurements (including the merged per-pass timing fields) to
``BENCH_pipeline.json`` in the working directory.
"""

import json
import multiprocessing
import time
from pathlib import Path

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.checker import NCheckerOptions
from repro.core.patcher import Patcher
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.obs import use_metrics
from repro.pipeline.batch import scan_corpus

BENCH_FILE = Path("BENCH_pipeline.json")


def _provenance() -> dict:
    """Identity block for the derived BENCH export: which schema wrote
    it, under which options fingerprint, at which commit."""
    from repro.obs import BENCH_SCHEMA_VERSION, git_head_sha
    from repro.pipeline.cachestore.fingerprints import scan_options_fingerprint

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "options_fingerprint": scan_options_fingerprint(NCheckerOptions()),
        "git_sha": git_head_sha(),
        "source": "benchmarks/test_pipeline_scaling.py",
    }


def _record(section: str, data: dict) -> None:
    payload = {}
    if BENCH_FILE.exists():
        payload = json.loads(BENCH_FILE.read_text())
    prov = _provenance()
    payload["schema_version"] = prov.pop("schema_version")
    payload["provenance"] = prov
    payload[section] = data
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")


def _scan_signature(results) -> list:
    return [
        (r.package, [(f.kind.value, f.method_key, f.stmt_index) for f in r.findings])
        for r in results
    ]


def _timing_fields(snapshot: dict) -> dict:
    """The per-pass/per-artifact timing summary of a merged snapshot
    (histogram reservoirs stripped — BENCH files stay small)."""
    return {
        name: {k: hist[k] for k in ("count", "total", "p50", "p95", "p99", "max")}
        for name, hist in snapshot.get("histograms", {}).items()
    }


def test_batch_scan_scaling(benchmark):
    n_apps = 16
    cores = multiprocessing.cpu_count()
    jobs = min(4, cores)
    serial_telemetry: dict = {}
    parallel_telemetry: dict = {}

    def serial():
        serial_telemetry.clear()
        return scan_corpus(PAPER_PROFILE, n_apps, jobs=1,
                           telemetry=serial_telemetry)

    start = time.perf_counter()
    parallel_results = scan_corpus(PAPER_PROFILE, n_apps, jobs=jobs,
                                   telemetry=parallel_telemetry)
    parallel_s = time.perf_counter() - start

    serial_results = benchmark.pedantic(serial, rounds=1, iterations=1)
    serial_s = benchmark.stats.stats.mean

    assert _scan_signature(serial_results) == _scan_signature(parallel_results)
    # The merged worker snapshots equal a serial run wherever the
    # underlying quantity is deterministic: every counter, summed across
    # the pool, must match.
    assert serial_telemetry["counters"] == parallel_telemetry["counters"]
    assert parallel_telemetry["counters"]["scan.apps"] == n_apps
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\nbatch scan of {n_apps} apps: serial {serial_s*1000:.0f} ms, "
        f"--jobs {jobs} {parallel_s*1000:.0f} ms ({speedup:.2f}x, {cores} cores)"
    )
    # Parallel fan-out only pays off with real cores behind it.
    if cores >= 4 and jobs >= 4:
        assert speedup >= 2.0, f"expected >=2x on {cores} cores, got {speedup:.2f}x"
    _record("batch_scan", {
        "n_apps": n_apps,
        "jobs": jobs,
        "cores": cores,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "identical_results": True,
        "counters": parallel_telemetry["counters"],
        "timings": _timing_fields(parallel_telemetry),
    })


def test_disk_cache_cold_warm(benchmark, tmp_path):
    """The persistent artifact cache: a warm re-scan performs zero
    app-scoped builds and must not be slower than a cache-disabled scan;
    findings are identical disabled/cold/warm."""
    n_apps = 12
    apps = [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n_apps)).generate()]
    blobs = [dumps_apk(apk) for apk in apps]
    cache_dir = tmp_path / "artifact-cache"
    app_kinds = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")

    def sweep(cache: bool):
        """One fresh-process-equivalent scan of every app."""
        options = NCheckerOptions(cache_dir=str(cache_dir) if cache else None)
        with use_metrics() as registry:
            checker = NChecker(options=options)
            results = [
                checker.open_session(loads_apk(blob)).scan() for blob in blobs
            ]
            return results, registry.snapshot()

    start = time.perf_counter()
    disabled_results, disabled_snap = sweep(cache=False)
    disabled_s = time.perf_counter() - start

    start = time.perf_counter()
    cold_results, cold_snap = sweep(cache=True)
    cold_s = time.perf_counter() - start

    (warm_results, warm_snap) = benchmark.pedantic(
        sweep, args=(True,), rounds=1, iterations=1
    )
    warm_s = benchmark.stats.stats.mean

    assert _scan_signature(disabled_results) == _scan_signature(cold_results)
    assert _scan_signature(disabled_results) == _scan_signature(warm_results)
    counters = warm_snap["counters"]
    for kind in app_kinds:
        assert counters.get(f"artifact.{kind}.builds", 0) == 0, (
            f"warm run built {kind}"
        )
    assert counters.get("cache.local.callgraph.hits", 0) == n_apps
    assert cold_snap["counters"]["artifact.callgraph.builds"] == n_apps
    print(
        f"\ndisk cache over {n_apps} apps: disabled {disabled_s*1000:.0f} ms, "
        f"cold {cold_s*1000:.0f} ms, warm {warm_s*1000:.0f} ms "
        f"({disabled_s/warm_s if warm_s else float('inf'):.2f}x vs disabled)"
    )
    _record("disk_cache", {
        "n_apps": n_apps,
        "disabled_s": disabled_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup_vs_disabled": disabled_s / warm_s if warm_s else None,
        "cold_overhead_vs_disabled": cold_s / disabled_s if disabled_s else None,
        "warm_app_scoped_builds": 0,
        "identical_results": True,
        "counters": counters,
        "timings": _timing_fields(warm_snap),
    })


def test_threadcontext_cache_warm(benchmark, tmp_path):
    """Extended-checks sweep: the thread-context analysis builds once
    per app cold and **zero** times on a warm re-scan, and its build time
    is a small fraction of the scan (recorded to BENCH_pipeline.json)."""
    from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS

    n_apps = 12
    apps = [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n_apps)).generate()]
    blobs = [dumps_apk(apk) for apk in apps]
    cache_dir = tmp_path / "artifact-cache"
    options = NCheckerOptions(
        cache_dir=str(cache_dir),
        enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS,
    )

    def sweep():
        with use_metrics() as registry:
            checker = NChecker(options=options)
            results = [
                checker.open_session(loads_apk(blob)).scan() for blob in blobs
            ]
            return results, registry.snapshot()

    start = time.perf_counter()
    cold_results, cold_snap = sweep()
    cold_s = time.perf_counter() - start

    (warm_results, warm_snap) = benchmark.pedantic(sweep, rounds=1, iterations=1)
    warm_s = benchmark.stats.stats.mean

    assert _scan_signature(cold_results) == _scan_signature(warm_results)
    assert cold_snap["counters"]["artifact.threadcontext.builds"] == n_apps
    counters = warm_snap["counters"]
    assert counters.get("artifact.threadcontext.builds", 0) == 0, (
        "warm re-scan rebuilt the threadcontext artifact"
    )
    assert counters.get("cache.local.threadcontext.hits", 0) == n_apps
    build_hist = cold_snap["histograms"].get("artifact.threadcontext.build_ms", {})
    build_total_ms = build_hist.get("total", 0.0)
    print(
        f"\nthreadcontext over {n_apps} apps: cold {cold_s*1000:.0f} ms "
        f"(analysis builds {build_total_ms:.1f} ms), warm {warm_s*1000:.0f} ms, "
        f"zero warm builds"
    )
    _record("threadcontext_cache", {
        "n_apps": n_apps,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_build_total_ms": build_total_ms,
        "warm_threadcontext_builds": 0,
        "identical_results": True,
        "counters": counters,
        "timings": _timing_fields(cold_snap),
    })


def test_summary_laziness(benchmark):
    """Demand-driven summaries evaluate only the SCC cones the planned
    passes actually query.  Whole-app evaluation would run every fact
    pass over the whole condensation, so its work is derived from the
    same run: the sum over apps of ``bool_fact_passes`` times the app's
    SCC count.  The saving is pure work volume, measured here as
    evaluated-SCC counts, for the default check set and for
    ``--extended-checks``."""
    from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS
    from repro.pipeline.artifacts import SUMMARIES

    n_apps = 12
    apps = [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n_apps)).generate()]
    blobs = [dumps_apk(apk) for apk in apps]

    def sweep(checks):
        options = NCheckerOptions(enabled_checks=checks)
        with use_metrics() as registry:
            checker = NChecker(options=options)
            sessions = [checker.open_session(loads_apk(blob)) for blob in blobs]
            for session in sessions:
                session.scan()
            engines = [session.store.peek(SUMMARIES) for session in sessions]
            whole_app = sum(
                engine.stats.bool_fact_passes * len(engine.sccs)
                for engine in engines
            )
            return whole_app, registry.snapshot()

    section = {}
    for label, checks in (
        ("default", DEFAULT_CHECKS),
        ("extended", DEFAULT_CHECKS | EXTENDED_CHECKS),
    ):
        if label == "default":
            whole_app_sccs, lazy_snap = benchmark.pedantic(
                sweep, args=(checks,), rounds=1, iterations=1
            )
            lazy_s = benchmark.stats.stats.mean
        else:
            start = time.perf_counter()
            whole_app_sccs, lazy_snap = sweep(checks)
            lazy_s = time.perf_counter() - start

        lazy_sccs = lazy_snap["counters"].get("dataflow.bool_fact_sccs", 0)
        # The demanded cones are subsets of the whole condensation; with
        # per-site error callbacks they are strict subsets.
        assert 0 < lazy_sccs < whole_app_sccs, (
            f"{label}: lazy evaluated {lazy_sccs} SCCs vs whole-app "
            f"{whole_app_sccs}"
        )
        section[label] = {
            "lazy_s": lazy_s,
            "whole_app_bool_fact_sccs": whole_app_sccs,
            "lazy_bool_fact_sccs": lazy_sccs,
            "scc_work_ratio": lazy_sccs / whole_app_sccs,
            "lazy_counters": lazy_snap["counters"],
            "lazy_timings": _timing_fields(lazy_snap),
        }
        print(
            f"\nsummary laziness ({label} checks, {n_apps} apps): "
            f"lazy {lazy_s*1000:.0f} ms / {lazy_sccs} SCCs of "
            f"{whole_app_sccs} whole-app "
            f"({lazy_sccs/whole_app_sccs:.0%} of the work)"
        )
    _record("summary_laziness", {"n_apps": n_apps, "modes": section})


def test_service_throughput(benchmark, tmp_path):
    """The ``nchecker serve`` daemon under load: submissions/second over
    a small corpus (cold, then warm on the same daemon), the warm sweep
    with zero app-scoped builds — recorded to the ``service`` section of
    ``BENCH_pipeline.json``."""
    import urllib.request

    from repro.service import ServiceConfig, start_in_thread

    n_apps = 8
    workers = 2
    apps = [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n_apps)).generate()]
    blobs = [dumps_apk(apk) for apk in apps]
    app_kinds = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")

    handle = start_in_thread(ServiceConfig(
        port=0, workers=workers, cache_dir=str(tmp_path / "served"),
    ))

    def get_json(path):
        with urllib.request.urlopen(handle.base_url + path, timeout=30) as r:
            return json.loads(r.read())

    def sweep():
        """Submit every app, poll every job to completion."""
        ids = []
        for blob in blobs:
            request = urllib.request.Request(
                handle.base_url + "/v1/scans", data=blob.encode(),
                method="POST", headers={"Content-Type": "text/plain"},
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                assert reply.status == 202
                ids.append(json.loads(reply.read())["id"])
        views = []
        deadline = time.monotonic() + 120
        for job_id in ids:
            while True:
                view = get_json(f"/v1/scans/{job_id}")
                if view["status"] in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, "service sweep stalled"
                time.sleep(0.02)
            assert view["status"] == "done", view.get("error")
            views.append(view)
        return views

    try:
        start = time.perf_counter()
        cold_views = sweep()
        cold_s = time.perf_counter() - start

        warm_views = benchmark.pedantic(sweep, rounds=1, iterations=1)
        warm_s = benchmark.stats.stats.mean

        assert [v["package"] for v in cold_views] == [
            v["package"] for v in warm_views
        ]
        assert [v["findings"] for v in cold_views] == [
            v["findings"] for v in warm_views
        ]
        # Warm jobs rebuild nothing app-scoped: either the worker's
        # session is warm or the workers' shared cache directory serves
        # every artifact.
        for view in warm_views:
            for kind in app_kinds:
                assert view["counters"].get(f"artifact.{kind}.builds", 0) == 0

        service_counters = get_json("/metrics")["counters"]
        assert service_counters["service.scans.completed"] == 2 * n_apps
    finally:
        handle.stop()

    cold_rps = n_apps / cold_s if cold_s else float("inf")
    warm_rps = n_apps / warm_s if warm_s else float("inf")
    print(
        f"\nservice over {n_apps} apps ({workers} workers): "
        f"cold {cold_s*1000:.0f} ms ({cold_rps:.1f} scans/s), "
        f"warm {warm_s*1000:.0f} ms ({warm_rps:.1f} scans/s), "
        f"zero warm builds"
    )
    _record("service", {
        "n_apps": n_apps,
        "workers": workers,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_scans_per_s": cold_rps,
        "warm_scans_per_s": warm_rps,
        "warm_app_scoped_builds": 0,
        "counters": {
            name: value for name, value in sorted(service_counters.items())
            if name.startswith("service.")
        },
    })


def test_incremental_patcher_convergence(benchmark):
    pairs = CorpusGenerator(PAPER_PROFILE.scaled(12)).generate()
    buggy = [apk for apk, _ in pairs]
    patcher = Patcher()

    def patch_incremental():
        fixed_blobs = []
        cfg_first_scan = 0
        cfg_incremental_rounds = 0
        full_equivalent_rounds = 0
        invalidated = 0
        snapshots = []
        for apk in buggy:
            # One registry per app: the store binds the registry active
            # at session creation, so every artifact counter of this
            # app's patch loop lands here — the public telemetry the
            # assertions below read instead of store internals.
            with use_metrics() as registry:
                checker = NChecker()
                working = loads_apk(dumps_apk(apk))
                session = checker.open_session(working)
                result = session.scan()
                first = registry.counter_value("artifact.cfg.builds")
                cfg_first_scan += first
                rounds = 0
                while result.findings and rounds < 3:
                    outcome = patcher.patch_in_place(working, result)
                    if not outcome.applied:
                        break
                    session.invalidate_methods(outcome.touched)
                    rounds += 1
                    result = session.scan()
                cfg_incremental_rounds += (
                    registry.counter_value("artifact.cfg.builds") - first
                )
                full_equivalent_rounds += first * rounds
                invalidated += registry.counter_value(
                    "artifact.invalidated_methods"
                )
                snapshots.append(registry.snapshot())
            fixed_blobs.append(dumps_apk(working))
        return (fixed_blobs, cfg_first_scan, cfg_incremental_rounds,
                full_equivalent_rounds, invalidated, snapshots)

    (blobs, first, incremental_cfgs, full_equiv, invalidated,
     snapshots) = benchmark.pedantic(patch_incremental, rounds=1, iterations=1)
    incremental_s = benchmark.stats.stats.mean

    start = time.perf_counter()
    full_blobs = [
        dumps_apk(Patcher().patch_until_clean(apk, NChecker(), incremental=False)[0])
        for apk in buggy
    ]
    full_s = time.perf_counter() - start

    assert blobs == full_blobs, "incremental patching changed the fixed apps"
    # The dirty region is a strict subset: rescans after each patch round
    # rebuild fewer CFGs than scanning every method from scratch would.
    assert invalidated > 0
    assert incremental_cfgs < full_equiv, (
        f"incremental rounds rebuilt {incremental_cfgs} CFGs, "
        f"full rescans would have rebuilt {full_equiv}"
    )
    from repro.obs import merge_snapshots

    merged = merge_snapshots(snapshots)
    print(
        f"\nincremental patching of {len(buggy)} apps: "
        f"{incremental_s*1000:.0f} ms vs full-rescan {full_s*1000:.0f} ms; "
        f"round rebuilds {incremental_cfgs}/{full_equiv} CFGs "
        f"({invalidated} methods invalidated)"
    )
    _record("incremental_patcher", {
        "n_apps": len(buggy),
        "incremental_s": incremental_s,
        "full_rescan_s": full_s,
        "first_scan_cfg_builds": first,
        "incremental_round_cfg_builds": incremental_cfgs,
        "full_equivalent_cfg_builds": full_equiv,
        "methods_invalidated": invalidated,
        "identical_output": True,
        "counters": merged["counters"],
        "timings": _timing_fields(merged),
    })
