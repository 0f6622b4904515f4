"""The ``nchecker`` process as a user runs it: ``python -m repro.cli``
in a subprocess, which goes through :func:`repro.cli.run` (frozen
start-up heap, raised collection threshold, ``os._exit`` after the
output is flushed).  These tests pin what that exit must not lose:
output bytes, exit codes, and no process left behind."""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.app import save_apk
from repro._entry import GEN0_THRESHOLD
from repro.cli import main
from repro.corpus.snippets import Connectivity, Notification, RequestSpec
from repro.obs import flatten_profile
from repro.obs.trace import GC_SPAN

from tests.conftest import single_request_app

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
APPS = sorted(str(p) for p in (ROOT / "examples" / "apps").glob("*.apkt"))

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads the /proc process table"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    # Buffered stdout, as a user's shell gives it: what run() must flush.
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _nchecker(*args: str, cwd=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, env=_env(), cwd=cwd, timeout=120, **kwargs,
    )


def _live_in_group(pgid: int) -> list[int]:
    """Pids of the processes in group ``pgid`` that have not exited
    (zombies waiting to be reaped do not count)."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry.name))
    return live


def _assert_group_ends(pgid: int, grace_s: float = 10.0) -> None:
    deadline = time.monotonic() + grace_s
    while _live_in_group(pgid):
        assert time.monotonic() < deadline, (
            f"processes outlived nchecker: {_live_in_group(pgid)}")
        time.sleep(0.05)


@pytest.fixture()
def clean_app(tmp_path):
    spec = RequestSpec(
        connectivity=Connectivity.GUARDED,
        with_timeout=True,
        with_retry=True,
        retry_value=2,
        with_notification=Notification.TOAST,
        with_response_check=True,
    )
    apk, _ = single_request_app(spec, package="com.test.clean")
    path = tmp_path / "clean.apkt"
    save_apk(apk, path)
    return str(path)


def _shape(profile: dict) -> dict:
    """Profile paths and counts, without the allocator-driven `gc` nodes."""
    return {
        path: node["count"] for path, node in flatten_profile(profile).items()
        if GC_SPAN not in path.split("/")
    }


def _span_events(trace_path: Path) -> list:
    events = json.loads(trace_path.read_text())["traceEvents"]
    return sorted(
        (e["name"], e["ph"]) for e in events if e["name"] != GC_SPAN
    )


class TestOutput:
    def test_text_stdout_matches_in_process_main(self, capsys):
        proc = _nchecker("scan", *APPS)
        assert main(["scan", *APPS]) == 1
        assert proc.returncode == 1
        assert proc.stdout.decode() == capsys.readouterr().out

    def test_every_output_file_is_complete(self, tmp_path, capsys):
        sub, inproc = tmp_path / "sub", tmp_path / "inproc"
        sub.mkdir()
        inproc.mkdir()
        argv = ["scan", "--json", "--sarif", "out.sarif", "--trace",
                "trace.json", "--metrics", "metrics.json", *APPS]
        proc = _nchecker(*argv, cwd=sub)
        cwd = os.getcwd()
        os.chdir(inproc)
        try:
            assert main(argv) == 1
        finally:
            os.chdir(cwd)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.decode() == capsys.readouterr().out
        assert (sub / "out.sarif").read_bytes() == (
            inproc / "out.sarif").read_bytes()
        # Trace and metrics carry clock times: compare what is
        # deterministic, after a parse that fails on a truncated file.
        assert _span_events(sub / "trace.json") == _span_events(
            inproc / "trace.json")
        got, want = (json.loads((d / "metrics.json").read_text())
                     for d in (sub, inproc))
        assert got["counters"] == want["counters"]
        assert _shape(got["profile"]) == _shape(want["profile"])

    def test_jobs_output_matches_serial(self, tmp_path):
        serial = _nchecker("scan", "--json", "--sarif",
                           str(tmp_path / "s.sarif"), *APPS)
        parallel = _nchecker("scan", "--json", "--jobs", "2", "--sarif",
                             str(tmp_path / "p.sarif"), *APPS)
        assert serial.returncode == parallel.returncode == 1
        assert serial.stdout == parallel.stdout
        assert (tmp_path / "s.sarif").read_bytes() == (
            tmp_path / "p.sarif").read_bytes()


class TestExitCodes:
    def test_clean_app_exits_0(self, clean_app):
        proc = _nchecker("scan", clean_app)
        assert proc.returncode == 0, proc.stderr
        assert b"0 NPD(s)" in proc.stdout

    def test_findings_exit_1(self):
        assert _nchecker("scan", "--summary", *APPS).returncode == 1

    def test_missing_file_exits_2(self, tmp_path):
        proc = _nchecker("scan", str(tmp_path / "nope.apkt"))
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: no such file")

    def test_usage_error_exits_2(self):
        proc = _nchecker("scan", "--no-such-flag", APPS[0])
        assert proc.returncode == 2
        assert b"unrecognized arguments" in proc.stderr

    def test_help_exits_0(self):
        proc = _nchecker("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: nchecker")


class TestClosedStdout:
    """A reader that goes away (``nchecker scan --json app | head -c
    10``) gets exit 2 and one ``error:`` line, not a traceback."""

    @staticmethod
    def _closed_reader(*args: str) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
        )
        proc.stdout.close()  # every write the process makes now fails
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        return proc.wait(timeout=120), stderr

    def test_write_inside_main(self):
        # Twenty app documents (about 43 KB) overflow stdout's 8 KiB
        # buffer, so the error surfaces from a write inside main().
        code, stderr = self._closed_reader("scan", "--json", *APPS * 5)
        assert code == 2
        assert stderr.splitlines() == [
            "error: stdout was closed before all output was written "
            "(broken pipe)"
        ]

    def test_final_flush(self):
        # `checks` prints a few hundred bytes: they sit in the buffer
        # until run() flushes it.
        code, stderr = self._closed_reader("checks")
        assert code == 2
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
class TestFullStdout:
    """A stdout whose writes fail with ENOSPC (``> /dev/full``) exits 2
    with one ``error:`` line: exit 1 would read as "findings were
    reported" for a scan whose output was lost."""

    @staticmethod
    def _full_disk(*args: str) -> tuple[int, str]:
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=full, stderr=subprocess.PIPE, env=_env(), timeout=120,
            )
        return proc.returncode, proc.stderr.decode()

    def test_write_inside_main(self):
        code, stderr = self._full_disk("scan", "--json", *APPS * 5)
        assert code == 2
        assert stderr.splitlines() == ["error: No space left on device"]

    def test_final_flush(self):
        code, stderr = self._full_disk("checks")
        assert code == 2
        assert stderr.splitlines() == ["error: No space left on device"]


@needs_proc
class TestNoProcessLeftBehind:
    def test_scan_jobs_2(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "scan", "--jobs", "2",
             "--json", *APPS],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_env(),
            start_new_session=True,
        )
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 1, stderr
        _assert_group_ends(proc.pid)

    def test_serve_stopped_by_sigint(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_env(),
            start_new_session=True, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving on " in line, line
            url = line.split("serving on ")[1].split()[0]
            # One scan, so the worker pool exists when the signal lands.
            request = urllib.request.Request(
                f"{url}/v1/scans", data=Path(APPS[0]).read_bytes(),
                method="POST", headers={"Content-Type": "text/plain"},
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                job = json.loads(reply.read())
            deadline = time.monotonic() + 60
            while True:
                with urllib.request.urlopen(
                    f"{url}/v1/scans/{job['id']}", timeout=30
                ) as reply:
                    status = json.loads(reply.read())["status"]
                if status in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, status
                time.sleep(0.05)
            assert status == "done"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
            assert "Traceback" not in proc.stderr.read()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stderr.close()
        _assert_group_ends(proc.pid)


class TestCollectorState:
    def test_run_freezes_and_raises_the_young_threshold(self):
        probe = (
            "import gc, repro.cli as cli\n"
            "cli.main = lambda: print(gc.get_threshold()[0], "
            "gc.get_freeze_count() > 0) or 0\n"
            "cli.run()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(GEN0_THRESHOLD).encode(), b"True"]

    def test_main_leaves_the_collector_alone(self, tmp_path, capsys):
        before = (gc.get_threshold(), gc.get_freeze_count(), list(gc.callbacks))
        main(["scan", "--jobs", "2", "--profile", "--json", "--trace",
              str(tmp_path / "t.json"), *APPS])
        main(["scan", "--stats", *APPS])
        capsys.readouterr()
        assert (gc.get_threshold(), gc.get_freeze_count(),
                list(gc.callbacks)) == before


class TestImportCollections:
    """``python -m repro.cli`` raises the young threshold before its own
    imports, so loading the CLI starts no collection; a plain ``import
    repro.cli`` changes nothing."""

    PROBE = (
        "import gc, runpy, sys\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'repro.app.loader':\n"
        "        print('threshold', gc.get_threshold()[0], file=sys.stderr)\n"
        "sys.addaudithook(hook)\n"
    )

    def test_module_run_raises_the_threshold_before_importing(self):
        probe = (
            self.PROBE
            + "sys.argv = ['nchecker', 'checks']\n"
            "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == [b"threshold", str(GEN0_THRESHOLD).encode()]

    def test_plain_import_leaves_the_collector_alone(self):
        probe = (
            self.PROBE
            + "before = gc.get_threshold(), gc.get_freeze_count()\n"
            "import repro.cli\n"
            "assert (gc.get_threshold(), gc.get_freeze_count()) == before\n"
            "print(before[0][0], file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        threshold, default = proc.stderr.split()[1:]
        assert threshold == default != str(GEN0_THRESHOLD).encode()


class TestConsoleScript:
    """The installed ``nchecker`` script imports the entry point that
    ``pyproject.toml`` names and calls it, as pip's generated script
    does; the CLI then loads under the raised young threshold too."""

    def test_no_collection_before_run(self):
        entry = re.search(
            r'^nchecker = "([\w.]+):(\w+)"$',
            (ROOT / "pyproject.toml").read_text(), re.MULTILINE,
        )
        module, function = entry.groups()
        probe = (
            "import gc, sys\n"
            "starts = []\n"
            "gc.callbacks.append(\n"
            "    lambda phase, info: phase == 'start' and starts.append(1))\n"
            "def profiler(frame, event, arg):\n"
            "    if (event == 'call' and frame.f_code.co_name == 'run'\n"
            "            and frame.f_globals['__name__'] == 'repro.cli'):\n"
            "        sys.setprofile(None)\n"
            "        print('collections', len(starts), file=sys.stderr)\n"
            "sys.setprofile(profiler)\n"
            "sys.argv = ['nchecker', 'checks']\n"
            f"from {module} import {function}\n"
            f"sys.exit({function}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=_env(),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == [b"collections", b"0"]
