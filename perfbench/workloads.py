"""The workloads: set-up, the measured loop, and the correctness check.

Each workload drives the program only through its user surface, one
``nchecker scan`` process per operation.  Set-up (input generation,
byte-compiling the program, warm-up operations) runs ``SETUP_REPS``
times from scratch and its CPU time (the benchmark's own plus its
children's) is reported as the median: once at the start of
the run, whose products are the ones measured, and then as throwaway
repetitions at evenly spaced points of the measured loop (outside its
measured time), so the set-up figure samples the machine over the same
stretch of time as the operations do.

Timings are taken two ways for every scan: wall time from spawn to exit,
and CPU time (user + system of the scan and every worker it reaped).
Before each operation the loop also runs ``REFERENCE``, a fixed program
that does not touch the program under test, in a fresh interpreter
spawned the same way, and takes its CPU time too.  The gated figures are
CPU times multiplied by ``REFERENCE_QUIET_MS / median reference CPU ms``
of the run: on a shared VM the wall time also carries the hypervisor's
steal, and the CPU time still follows the speed the machine's other
tenants leave it (the same 10k-statement scan took 3.3 s of CPU time in
one run and 1.4 s forty minutes later).
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from common import BenchError, Launcher, child_env, compile_tree, nchecker

SETUP_REPS = 5

#: The reference program: a fresh interpreter builds 150k small dicts and
#: walks them, the allocation-heavy, cache-missing kind of work the
#: analysis does.  A tight loop or a bare start was tried first: their CPU
#: time moved more than the scans' own did, so dividing by them added noise.
REFERENCE = (
    "objs = [{'a': i, 'b': str(i), 'c': (i, i)} for i in range(150000)]\n"
    "s = 0\n"
    "for r in range(4):\n"
    "    for o in objs[r::4] + objs[::7]:\n"
    "        s += o['a'] + len(o['b'])\n"
)
#: A fixed round number near the reference's CPU ms on the two-vCPU VM the
#: benchmark was built on.  It only sets the scale: the gated figures read
#: as CPU ms on a machine where the reference takes 450 ms.
REFERENCE_QUIET_MS = 450.0


@dataclass
class Samples:
    """What one measured run observed (times in ms)."""

    #: Wall time of each operation (cli_dev: a cold scan plus its warm
    #: rescan), of the scans on input the program had not seen (fresh
    #: cache directory), and of the scans on repeated input (warm rescans).
    op_ms: list = field(default_factory=list)
    cold_ms: list = field(default_factory=list)
    warm_ms: list = field(default_factory=list)
    #: CPU time (user + system, with reaped children) of the same.
    op_cpu_ms: list = field(default_factory=list)
    cold_cpu_ms: list = field(default_factory=list)
    warm_cpu_ms: list = field(default_factory=list)
    #: CPU time of the reference program, once before each operation.
    ref_cpu_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    maxrss_kb: int = 0
    #: Free-form figures for the report (name -> value).
    extra: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


def check_scan(result, app, samples: Samples) -> bool:
    """A ``scan --json`` process exited 0/1 and its findings equal the
    ledger."""
    if result.code not in (0, 1):
        samples.fail(f"exit {result.code}: {result.stderr.decode()[-300:]}")
        return False
    try:
        document = json.loads(result.stdout)
    except ValueError as exc:
        samples.fail(f"unparsable --json output: {exc}")
        return False
    problem = app.mismatch(inputs.json_keys(document))
    if problem:
        samples.fail(problem)
        return False
    return True


class Workload:
    """One workload: its seeded inputs, its set-up and its measured loop."""

    name = ""
    #: Passes of the traced run over the inputs, and apps the traced run's
    #: service probe submits.
    LAYER_PASSES = 1
    PROBE_APPS = 16

    def __init__(self, seed: int, work: Path, launcher: Launcher | None) -> None:
        self.seed = seed
        self.launcher = launcher
        self.work = work
        self.apps: list = []
        self.paths: list[Path] = []
        self.env: dict = {}
        self.home = work
        #: Each set-up repetition's CPU seconds, and its per-step seconds.
        self.setup_cpu: list[float] = []
        self.setup_steps: list[dict] = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """The run's own set-up; its products are the ones measured."""
        self._setup_once(self.work / "setup0")

    def setup_again(self) -> None:
        """A throwaway set-up repetition, timed and then removed; the
        measured products stay."""
        kept = (self.home, self.apps, self.paths, self.env)
        home = self.work / f"setup{len(self.setup_cpu)}"
        try:
            self._setup_once(home)
        finally:
            self.home, self.apps, self.paths, self.env = kept
            shutil.rmtree(home, ignore_errors=True)

    def _setup_once(self, home: Path) -> None:
        begin = time.perf_counter()
        cpu_begin = time.process_time() + self.launcher.cpu_s
        steps: dict = {}
        self.home = home
        (home / "apps").mkdir(parents=True)
        t = time.perf_counter()
        self.apps = self.generate()
        self.paths = []
        for app in self.apps:
            path = home / "apps" / f"{app.package}.apkt"
            path.write_text(app.text)
            self.paths.append(path)
        steps["generate_s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.env = child_env(home / "pycache", home / "cache")
        compile_tree(self.launcher, home / "pycache", self.env)
        steps["compile_s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.warm_up()
        steps["warmup_s"] = time.perf_counter() - t
        steps["wall_s"] = time.perf_counter() - begin
        self.setup_cpu.append(time.process_time() + self.launcher.cpu_s - cpu_begin)
        self.setup_steps.append(steps)

    def generate(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def fresh_cache(self, tag: str) -> Path:
        path = self.home / "cache" / tag
        shutil.rmtree(path, ignore_errors=True)
        return path

    # -- measurement ----------------------------------------------------------

    def measure(self, seconds: float) -> Samples:
        """Run operations for ``seconds`` seconds of measured time; the
        other ``SETUP_REPS - 1`` set-up repetitions run at evenly spaced
        points, outside that time."""
        samples = Samples()
        due = [seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
        start = time.perf_counter()
        paused = 0.0
        op = 0
        while True:
            elapsed = time.perf_counter() - start - paused
            if due and elapsed >= due[0]:
                due.pop(0)
                t = time.perf_counter()
                self.setup_again()
                paused += time.perf_counter() - t
            elif elapsed < seconds:
                self.reference(samples)
                self.operation(op, samples)
                op += 1
            else:
                return samples

    def reference(self, samples: Samples) -> None:
        result = self.launcher.run([sys.executable, "-c", REFERENCE], self.env, self.home)
        if result.code != 0:
            raise BenchError(f"reference program failed: {result.stderr.decode()[-300:]}")
        samples.ref_cpu_ms.append(result.cpu_s * 1000)

    def operation(self, op: int, samples: Samples) -> None:
        raise NotImplementedError


class CliDev(Workload):
    """One developer's edit-and-scan loop: a cold scan into a fresh cache
    directory, then a warm rescan of the same app against that cache."""

    name = "cli_dev"
    POOL = 32
    LOW, HIGH = 80, 130

    def generate(self) -> list:
        return inputs.sized_apps(self.seed, self.POOL, self.LOW, self.HIGH)

    def _scan(self, index: int, cache: Path):
        return self.launcher.run(
            nchecker("scan", "--json", "--cache-dir", str(cache),
                     str(self.paths[index])),
            self.env, self.home,
        )

    def warm_up(self) -> None:
        result = self._scan(0, self.fresh_cache("warmup"))
        if result.code not in (0, 1):
            raise BenchError(f"warm-up scan failed: {result.stderr.decode()[-300:]}")

    def operation(self, op: int, samples: Samples) -> None:
        index = op % len(self.apps)
        cache = self.fresh_cache(f"op{op % 4}")
        cold = self._scan(index, cache)
        warm = self._scan(index, cache)
        samples.attempted += 2
        ok_cold = check_scan(cold, self.apps[index], samples)
        ok_warm = check_scan(warm, self.apps[index], samples)
        samples.maxrss_kb = max(samples.maxrss_kb, cold.maxrss_kb, warm.maxrss_kb)
        if ok_cold and ok_warm:
            samples.cold_ms.append(cold.wall_s * 1000)
            samples.warm_ms.append(warm.wall_s * 1000)
            samples.op_ms.append((cold.wall_s + warm.wall_s) * 1000)
            samples.cold_cpu_ms.append(cold.cpu_s * 1000)
            samples.warm_cpu_ms.append(warm.cpu_s * 1000)
            samples.op_cpu_ms.append((cold.cpu_s + warm.cpu_s) * 1000)


class LargeApp(Workload):
    """One ~10k-statement app, scanned cold (fresh cache directory)."""

    name = "large_app"
    STATEMENTS = 10_000
    LAYER_PASSES = 3
    PROBE_APPS = 1

    def generate(self) -> list:
        return [inputs.merged_app(self.seed, self.STATEMENTS)]

    def warm_up(self) -> None:
        small = self.home / "apps" / "warmup.apkt"
        small.write_text(inputs.sized_apps(self.seed, 1, 0, 10**9)[0].text)
        result = self.launcher.run(
            nchecker("scan", "--json", "--cache-dir",
                     str(self.fresh_cache("warmup")), str(small)),
            self.env, self.home,
        )
        small.unlink()
        if result.code not in (0, 1):
            raise BenchError(f"warm-up scan failed: {result.stderr.decode()[-300:]}")

    def operation(self, op: int, samples: Samples) -> None:
        result = self.launcher.run(
            nchecker("scan", "--json", "--cache-dir",
                     str(self.fresh_cache(f"op{op % 2}")), str(self.paths[0])),
            self.env, self.home,
        )
        samples.attempted += 1
        samples.maxrss_kb = max(samples.maxrss_kb, result.maxrss_kb)
        if check_scan(result, self.apps[0], samples):
            samples.op_ms.append(result.wall_s * 1000)
            samples.cold_ms.append(result.wall_s * 1000)
            samples.op_cpu_ms.append(result.cpu_s * 1000)
            samples.cold_cpu_ms.append(result.cpu_s * 1000)


class CorpusBatch(Workload):
    """The store operator's case: the 285-app paper-profile corpus in one
    ``scan --jobs 2 --sarif`` run with a fresh cache directory."""

    name = "corpus_batch"
    JOBS = 2

    def generate(self) -> list:
        return inputs.corpus(self.seed)

    def _batch(self, paths: list, cache: Path, sarif: Path):
        return self.launcher.run(
            nchecker("scan", "--jobs", str(self.JOBS), "--sarif", str(sarif),
                     "--cache-dir", str(cache),
                     *[str(p.relative_to(self.home)) for p in paths]),
            self.env, self.home,
        )

    def warm_up(self) -> None:
        result = self._batch(
            self.paths[:4], self.fresh_cache("warmup"), self.home / "warmup.sarif"
        )
        if result.code not in (0, 1):
            raise BenchError(f"warm-up batch failed: {result.stderr.decode()[-300:]}")

    def _check(self, result, sarif: Path, samples: Samples) -> bool:
        if result.code not in (0, 1):
            samples.fail(f"exit {result.code}: {result.stderr.decode()[-300:]}")
            return False
        try:
            by_uri = inputs.sarif_keys(json.loads(sarif.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            samples.fail(f"unreadable SARIF log: {exc}")
            return False
        uris = {p.relative_to(self.home).as_posix(): app
                for p, app in zip(self.paths, self.apps)}
        unknown = set(by_uri) - set(uris)
        if unknown:
            samples.fail(f"SARIF results for unknown artifacts {sorted(unknown)[:3]}")
            return False
        for uri, app in uris.items():
            problem = app.mismatch(by_uri.get(uri, []))
            if problem:
                samples.fail(problem)
                return False
        return True

    def operation(self, op: int, samples: Samples) -> None:
        sarif = self.home / f"op{op % 2}.sarif"
        result = self._batch(self.paths, self.fresh_cache(f"op{op % 2}"), sarif)
        samples.attempted += 1
        samples.maxrss_kb = max(samples.maxrss_kb, result.maxrss_kb)
        if self._check(result, sarif, samples):
            samples.op_ms.append(result.wall_s * 1000)
            samples.cold_ms.append(result.wall_s * 1000)
            samples.op_cpu_ms.append(result.cpu_s * 1000)
            samples.cold_cpu_ms.append(result.cpu_s * 1000)
            samples.extra["apps_per_s"] = (
                len(self.apps) * 1000 / statistics.median(samples.op_ms))


WORKLOADS = {cls.name: cls for cls in (CliDev, LargeApp, CorpusBatch)}
