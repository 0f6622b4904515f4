"""`nchecker serve` stopped with SIGTERM (what `kill PID` and process
supervisors send) shuts its worker pool down and leaves no process
behind."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from .conftest import app_text, submit_and_wait

SRC = Path(repro.__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(),
    reason="reads a process's children from /proc",
)


def _children(pid: int) -> set[int]:
    kids = set()
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/children") as fh:
            kids.update(int(child) for child in fh.read().split())
    return kids


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def test_sigterm_stops_the_pool_and_leaves_no_child(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, env=env,
    )
    children: set[int] = set()
    try:
        banner = daemon.stderr.readline()
        port = re.search(r"serving on http://[^:]+:(\d+)", banner)
        assert port, banner
        view = submit_and_wait(
            f"http://127.0.0.1:{port.group(1)}", app_text("com.sig.term")
        )
        assert view["status"] == "done"
        children = _children(daemon.pid)
        assert children, "the scan ran on no worker process"
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        daemon.stderr.close()
