"""Shared plumbing: the checkout layout, child processes, statistics.

Every file the benchmark writes lives under ``.perfbench_work/`` in the
checkout it runs from; each run works in its own subdirectory and removes
it when it ends.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class BenchError(Exception):
    """The benchmark cannot run here (exit without a result)."""


def require_source() -> None:
    """The benchmark builds the program from the checkout's ``src/``."""
    for rel in ("src/repro/__init__.py", "src/repro/cli.py"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} not found under {ROOT}: run from a checkout")


def run_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(pycache: Path, cache_root: Path) -> dict:
    """Environment for ``nchecker`` child processes.

    Children read (and, during set-up, write) byte code under ``pycache``,
    as an installed user's interpreter would find ``.pyc`` files; every
    cache or ledger location the program could default to points inside
    the run directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("NCHECKER_LEDGER_DIR", None)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONPATH"] = str(SRC)
    env["NCHECKER_CACHE_DIR"] = str(cache_root / "default")
    env["XDG_CACHE_HOME"] = str(cache_root / "xdg")
    return env


def nchecker(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


# -- process lifetime -----------------------------------------------------------
#
# Every process the benchmark starts stays in the benchmark's process group,
# so a signal to the group reaches all of them, and each is armed to get a
# signal of its own when the process that started it dies, so none outlives
# a benchmark that was killed on its own.

_PR_SET_PDEATHSIG = 1


def die_with_parent(sig: int):
    """A ``preexec_fn`` that delivers ``sig`` to the child when the process
    that spawned it exits.  The child gets the signal's default disposition
    back first: a shell's background job starts with SIGINT ignored, and a
    Python child would keep ignoring it."""
    parent = os.getpid()
    libc = ctypes.CDLL(None, use_errno=True)

    def arm() -> None:
        if sig != signal.SIGKILL:
            signal.signal(sig, signal.SIG_DFL)
        libc.prctl(_PR_SET_PDEATHSIG, int(sig))
        if os.getppid() != parent:  # the parent died before the arming
            os.kill(os.getpid(), sig)

    return arm


def kill_tree(root: int, include_root: bool = True) -> None:
    """SIGKILL every process descended from ``root`` (and ``root``)."""
    for _ in range(2):  # a second sweep catches children forked meanwhile
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        victims, queue = [], [root]
        while queue:
            pid = queue.pop()
            victims.append(pid)
            queue.extend(children.get(pid, ()))
        for pid in victims:
            if pid != root or include_root:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


@dataclass
class ChildResult:
    wall_s: float
    code: int
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


class Launcher:
    """Spawns the benchmark's children through ``launcher.py``, a separate
    small process (see there for why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=die_with_parent(signal.SIGTERM),
        )
        #: CPU seconds of every child run so far.
        self.cpu_s = 0.0

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            kill_tree(self.proc.pid)
            self.proc.wait()

    def run(self, argv: list[str], env: dict, cwd: Path, timeout: float = 150.0) -> ChildResult:
        """Run one child to completion: wall time from spawn to exit, exit
        code, and the largest max-RSS of it and the children it reaped."""
        out_path = cwd / "child.out"
        err_path = cwd / "child.err"
        request = {
            "argv": argv, "env": env, "cwd": str(cwd), "stdout": str(out_path),
            "stderr": str(err_path), "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the child launcher died")
        reply = json.loads(reply)
        self.cpu_s += reply["cpu_s"]
        if reply["code"] == -signal.SIGKILL:
            raise BenchError(f"{argv[:4]} did not exit within {timeout:.0f} s")
        return ChildResult(reply["wall_s"], reply["code"], reply["cpu_s"], reply["maxrss_kb"],
                           out_path.read_bytes(), err_path.read_bytes())


def compile_tree(launcher: Launcher, pycache: Path, env: dict) -> None:
    """Byte-compile the program into ``pycache``."""
    result = launcher.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env, pycache.parent,
    )
    if result.code != 0:
        raise BenchError(f"byte-compile failed: {result.stderr.decode()[-500:]}")


# -- statistics ---------------------------------------------------------------

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 98, 95, 90, 75)


def tail_percentile(n: int) -> int | None:
    """The highest reportable percentile with at least ten of ``n``
    samples beyond it, or ``None``."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            return p
    return None


def describe(values: list[float], unit: str) -> str:
    """'p50 X unit, pNN Y unit, n=N' — the median plus the highest
    percentile the sample count supports."""
    if not values:
        return "n=0"
    text = f"p50 {statistics.median(values):.4g} {unit}"
    p = tail_percentile(len(values))
    if p is not None:
        tail = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        text += f", p{p} {tail:.4g} {unit}"
    return f"{text}, n={len(values)}"
