"""Runs child processes for the benchmark and reports their peak memory.

Linux charges a new process the peak RSS of the process it was cloned
from, so a child spawned straight from the benchmark (which holds every
input app in memory) would report the benchmark's footprint as its own.
This launcher is a separate small interpreter: the benchmark sends it one
JSON request per line on stdin and reads one JSON reply per line.

Request: ``{"argv", "env", "cwd", "stdout", "stderr", "timeout"}``.
Reply: ``{"wall_s", "code", "cpu_s", "maxrss_kb"}`` -- wall time from
spawn to exit, the exit code (negative for a signal; the child and its descendants
are killed with SIGKILL after ``timeout`` seconds), and the CPU time
(user + system) and the largest max-RSS of the child and the children it
reaped.

The launcher dies with the benchmark: it is armed to get SIGTERM when its
parent exits, and on SIGTERM it kills every process it started.  Each
child is in turn armed to get SIGKILL when the launcher exits.
"""

import json
import os
import signal
import subprocess
import sys
import time

from common import die_with_parent, kill_tree

_child = 0


def _on_timeout(*_) -> None:
    if _child:
        kill_tree(_child)


def _on_term(*_) -> None:
    kill_tree(os.getpid(), include_root=False)
    os._exit(143)


def main() -> None:
    global _child
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.signal(signal.SIGTERM, _on_term)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], env=request["env"], cwd=request["cwd"],
                stdout=out, stderr=err, preexec_fn=die_with_parent(signal.SIGKILL),
            )
            _child = proc.pid
            signal.setitimer(signal.ITIMER_REAL, request["timeout"])
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            _child = 0
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
