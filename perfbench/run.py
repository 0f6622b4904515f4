"""NChecker benchmark: what its users wait for, and where the time goes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_dev --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``cli_dev``      -- edit-and-scan loop: cold ``nchecker scan --json``
  into a fresh cache directory, then a warm rescan, on ~100-statement apps;
* ``large_app``    -- ``nchecker scan --json`` of one ~10k-statement app;
* ``corpus_batch`` -- ``nchecker scan --jobs 2 --sarif`` over the 285-app
  paper-profile corpus.

End-to-end metrics, each over the run's operations (an operation of
``cli_dev`` is one cold scan plus its warm rescan):

* ``op_norm_ms_p50``   -- median CPU time (user + system of the
  ``nchecker`` process and every worker it reaped) of an operation,
  scaled to a fixed machine speed: multiplied by ``REFERENCE_QUIET_MS``
  over the run's median CPU time of ``workloads.REFERENCE``, a fixed
  program run in a fresh interpreter before each operation;
* ``cold_norm_ms_p50`` -- the same for the scans whose cache directory was
  fresh (every scan of ``large_app`` and ``corpus_batch``);
* ``peak_rss_mb``      -- the largest max-RSS of any program process;
* ``setup_s``          -- median CPU seconds (the benchmark's own plus its
  children's) of ``SETUP_REPS`` from-scratch set-ups, spread over the run,
  scaled the same way.

The timings are CPU time because, on the shared two-vCPU VM the benchmark
was built on, wall time also carries the hypervisor's steal time, which is
not the program's (in one stretch it was 40% of the wall time of a
CPU-bound loop): over five seeds of ``cli_dev`` the median cold scan
moved 11.6% (IQR/median) in wall time and 1.6% in CPU time.  They are
scaled by the reference because the CPU time still follows the speed the
machine's other tenants leave it: the same 10k-statement app took a median
3.3 s of CPU time per scan in one run and 1.4 s forty minutes later.  The
report above the result gives the raw CPU and wall times (median, tail
and sample count), the reference and the scale, and ``corpus_batch``'s
apps per second, the figure its ``--jobs 2`` fan-out is for.

An open-loop ``nchecker serve`` workload is not among them: its latency
(about 25 ms a request) moved 35-39% between runs on a two-core machine,
where a few ms of scheduling delay dominate it.  The daemon is measured
per layer instead, by every traced run (``perfbench/daemon.py``).

With ``--trace 0`` the program runs as its users run it (subprocesses,
no tracing) and the result carries the end-to-end metrics.
With ``--trace 1`` a separate in-process run over the same inputs times
the calls into each layer and the result carries the per-layer metrics
(``perfbench/layers.py``).  Every operation's findings are checked against
the generator's ground-truth ledger.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  ``--workload all`` runs every workload in turn
and ends with one JSON object mapping each workload to its result.
``python3 perfbench/selfcheck.py`` checks that the inputs and the
per-layer counts are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

from common import SRC, BenchError, Launcher, describe, kill_tree, require_source, run_dir

#: End-to-end metric -> unit.
END_TO_END = {
    "op_norm_ms_p50": "ms",
    "cold_norm_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, _on_term)
    try:
        require_source()
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in WORKLOADS:
                raise BenchError(f"unknown workload {name!r}; "
                                 f"choose from {', '.join(WORKLOADS)} or all")
        results = {name: run_one(WORKLOADS[name], args) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


def _on_term(*_) -> None:
    kill_tree(os.getpid(), include_root=False)
    sys.exit(143)


def run_one(cls, args) -> dict:
    work = run_dir(f"{cls.name}-seed{args.seed}")
    try:
        with Launcher() as launcher:
            workload = cls(args.seed, work, launcher)
            if args.trace:
                from layers import run_layers

                return _result(*run_layers(workload))
            return untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced(workload, seconds: float) -> dict:
    from workloads import REFERENCE_QUIET_MS

    workload.setup()
    samples = workload.measure(seconds)
    ref = _median(samples.ref_cpu_ms)
    scale = REFERENCE_QUIET_MS / ref
    values = {
        "op_norm_ms_p50": _median(samples.op_cpu_ms) * scale,
        "cold_norm_ms_p50": _median(samples.cold_cpu_ms) * scale,
        "peak_rss_mb": samples.maxrss_kb / 1024.0,
        "setup_s": statistics.median(workload.setup_cpu) * scale,
    }
    print(f"== {workload.name} seed {workload.seed}: {samples.attempted} "
          f"scans, {samples.failed} failed ==")
    for kind in ("op", "cold", "warm"):
        wall, cpu = getattr(samples, f"{kind}_ms"), getattr(samples, f"{kind}_cpu_ms")
        if wall:
            print(f"  {kind + ' wall':16s} {describe(wall, 'ms')}")
            print(f"  {kind + ' cpu':16s} {describe(cpu, 'ms')}")
    print(f"  reference cpu    {describe(samples.ref_cpu_ms, 'ms')}")
    print(f"  scale            {scale:.4f} = {REFERENCE_QUIET_MS:g} ms / p50 reference cpu {ref:.1f} ms")
    for name in ("op_norm_ms_p50", "cold_norm_ms_p50"):
        kind = name.split("_")[0]
        print(f"  {name:16s} {values[name]:.1f} ms = p50 {kind} cpu "
              f"{_median(getattr(samples, kind + '_cpu_ms')):.1f} ms x scale")
    print(f"  peak RSS         {values['peak_rss_mb']:.1f} MB")
    print(f"  set-up cpu       {describe(workload.setup_cpu, 's')}; setup_s = p50 x scale")
    print(f"  set-up wall      {describe([s['wall_s'] for s in workload.setup_steps], 's')}")
    for rep, steps in enumerate(workload.setup_steps):
        print(f"  set-up {rep}         " + ", ".join(f"{k} {v:.3f}" for k, v in steps.items()))
    for name, value in samples.extra.items():
        print(f"  {name:16s} {value:.4g}")
    for reason in samples.failures:
        print(f"  FAILED: {reason}")
    return _result(samples.attempted, samples.failed,
                   {name: (values[name], unit) for name, unit in END_TO_END.items()})


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _result(attempted: int, failed: int, values: dict) -> dict:
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
