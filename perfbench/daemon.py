"""Driving an ``nchecker serve`` daemon over HTTP, and the service probe
of the traced run.

The probe boots a daemon with two workers on the workload's byte code,
times ``/healthz`` round trips, and then runs a short open loop: the
workload's first apps, each submitted twice (the second submission takes
a worker's warm-session path), arriving at a fixed rate whether or not
earlier scans have finished.  Each submission's round trip, the polls
until its job is done, and how late the generator dispatched it are
recorded; every job's ``/findings`` is checked against the ledger.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import inputs
from common import BenchError, die_with_parent, kill_tree, nchecker

#: Worker processes of the probed daemon.
WORKERS = 2
#: Seconds between status polls of a submitted scan.
POLL_S = 0.005
#: Submissions per second of the probe's open loop.
RATE = 20.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class HttpError(Exception):
    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class Client:
    """Minimal HTTP client for the daemon (it closes every connection)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: bytes | None = None) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            raise HttpError(f"{method} {path}: HTTP {response.status} {data[:200]!r}",
                            response.status)
        return data

    def scan(self, text: str) -> tuple[list, int, float]:
        """Submit, poll until the job ends, fetch ``/findings``; returns
        the findings document, the number of polls and the submission's
        round trip in ms."""
        start = time.perf_counter()
        job = json.loads(self.call("POST", "/v1/scans", text.encode("utf-8")))
        submit_ms = (time.perf_counter() - start) * 1000
        polls = 0
        while True:
            view = json.loads(self.call("GET", f"/v1/scans/{job['id']}"))
            polls += 1
            if view["status"] == "failed":
                raise HttpError(f"scan {job['id']} failed: {view.get('error')}")
            if view["status"] == "done":
                break
            time.sleep(POLL_S)
        document = json.loads(self.call("GET", f"/v1/scans/{job['id']}/findings"))
        return document, polls, submit_ms


def stop_daemon(daemon: subprocess.Popen) -> None:
    """Stop the daemon the way an operator would (SIGINT) and reap it;
    kill it and its workers if it does not exit."""
    daemon.send_signal(signal.SIGINT)
    try:
        daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        kill_tree(daemon.pid)
        daemon.wait(timeout=10)


def probe(workload, count: int) -> dict:
    """Boot a daemon, time ``/healthz`` round trips, and run a short open
    loop over the first ``count`` apps, each sent twice (the second time
    takes the warm-session path), timing each submission."""
    out = {"healthz": [], "submit": [], "polls": [], "late": [], "rejected": 0,
           "attempted": 0, "failures": []}
    start = time.perf_counter()
    port = free_port()
    with open(workload.home / "serve.err", "wb") as err:
        daemon = subprocess.Popen(
            nchecker("serve", "--port", str(port), "--workers", str(WORKERS),
                     "--cache-dir", str(workload.home / "cache" / "serve")),
            env=workload.env, cwd=workload.home, stdout=subprocess.DEVNULL,
            stderr=err,
            # If the benchmark dies, the daemon stops as on an operator's
            # SIGINT, which also stops its worker pool.
            preexec_fn=die_with_parent(signal.SIGINT),
        )
    try:
        client = Client(port)
        while True:
            try:
                client.call("GET", "/healthz")
                break
            except OSError:
                if daemon.poll() is not None or time.perf_counter() - start > 60:
                    raise BenchError("nchecker serve did not come up")
                time.sleep(0.01)
        # The first scan forks the worker pool.
        client.scan(inputs.sized_apps(workload.seed, 1, 0, 10**9)[0].text)
        out["boot_s"] = time.perf_counter() - start
        for _ in range(20):
            t = time.perf_counter()
            client.call("GET", "/healthz")
            out["healthz"].append((time.perf_counter() - t) * 1000)
        lock = threading.Lock()

        def request(app) -> None:
            rejected = False
            try:
                document, polls, submit_ms = client.scan(app.text)
                problem = app.mismatch(inputs.json_keys(document))
            except (OSError, HttpError, ValueError, KeyError) as exc:
                problem = str(exc)
                # 429 (rate limit) and 503 (queue full) are refusals.
                rejected = getattr(exc, "status", 0) in (429, 503)
            with lock:
                out["attempted"] += 1
                if not problem:
                    out["polls"].append(polls)
                    out["submit"].append(submit_ms)
                    return
                out["failures"].append(problem)
                out["rejected"] += rejected

        # The open loop: submission k is due k / RATE seconds after the
        # start, whether or not earlier scans have finished.
        futures = []
        with ThreadPoolExecutor(16) as pool:
            begin = time.perf_counter() + 0.05
            for k, app in enumerate(workload.apps[:count] * 2):
                due = begin + k / RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                out["late"].append((time.perf_counter() - due) * 1000)
                futures.append(pool.submit(request, app))
        for future in futures:
            future.result()
    finally:
        stop_daemon(daemon)
    return out
