"""Reproducibility self-check for the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

1. Inputs: every workload's inputs, generated twice from seed ``SEED``,
   are byte-identical, and seed ``SEED + 1`` draws different inputs.
2. Counts: two traced runs (``run.py --trace 1``) of every workload with
   seed ``SEED`` report exactly the same per-layer counts (taken from the
   result's metrics and the report's ``counts`` line).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from common import SRC, BenchError, require_source

#: Per-layer counts that must repeat exactly for a fixed seed.
REPEATABLE = (
    "cli.repro_modules",
    "callgraph.edges",
    "core.requests",
    "core.findings",
    "cachestore.bytes_written",
)
SEED = 1


def check_inputs(seed: int) -> list[str]:
    import inputs
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        def draw(s):
            return inputs.digest(cls(s, Path("."), None).generate())

        first, again, other = draw(seed), draw(seed), draw(seed + 1)
        print(f"  {name:13s} seed {seed}: {first}  again: {again}  seed {seed + 1}: {other}")
        if first != again:
            problems.append(f"{name}: seed {seed} gave different inputs twice")
        if first == other:
            problems.append(f"{name}: seeds {seed} and {seed + 1} gave the same inputs")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise BenchError(f"traced {workload} run failed: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    found = {name: value["value"] for name, value in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.startswith("  counts "):
            found.update(json.loads(line[len("  counts "):]))
    return {name: found.get(name) for name in REPEATABLE}


def main() -> int:
    try:
        require_source()
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        print("inputs:")
        problems = check_inputs(SEED)
        print("per-layer counts:")
        for workload in WORKLOADS:
            first = traced_counts(workload, SEED)
            second = traced_counts(workload, SEED)
            print(f"  {workload:13s} {first}")
            if None in first.values():
                problems.append(f"{workload}: counts missing from the report: {first}")
            if first != second:
                problems.append(f"{workload}: counts differ between runs: {first} vs {second}")
    except BenchError as exc:
        print(f"selfcheck: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"FAILED: {problem}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
