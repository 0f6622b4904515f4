"""End-to-end daemon tests over real sockets.

Covers the full surface promised by ``docs/SERVICE.md``: submit → poll
→ fetch, byte-identical JSON/SARIF parity with the CLI on the same app,
queue-full rejection, the job view's keys, the ``/metrics`` merge across a
multi-process pool, and the cache being each worker's private,
opt-in directory (no HTTP route reaches it).
"""

from __future__ import annotations

import concurrent.futures
import json

import pytest

from repro.cli import main
from repro.service import ScanService, ServiceConfig, start_in_thread

from .conftest import (
    app_builds,
    app_text,
    get_json,
    http,
    submit,
    submit_and_wait,
    wait_done,
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One warm daemon for the lifecycle tests: a single worker process
    (so resubmissions land on the same warm session) plus a cache root."""
    root = tmp_path_factory.mktemp("service-cache")
    handle = start_in_thread(
        ServiceConfig(port=0, workers=1, cache_dir=str(root))
    )
    yield handle
    handle.stop()


class TestScanLifecycle:
    def test_submit_poll_fetch(self, daemon):
        status, _, body = submit(daemon.base_url, app_text("com.life.cycle"))
        assert status == 202
        accepted = json.loads(body)
        assert accepted["status"] == "queued"
        assert accepted["url"] == f"/v1/scans/{accepted['id']}"

        view = wait_done(daemon.base_url, accepted["id"])
        assert view["status"] == "done"
        assert view["package"] == "com.life.cycle"
        assert view["findings"] >= 1
        assert view["requests"] == 1
        assert set(view["links"]) == {"findings", "sarif", "trace"}

    def test_json_envelope_submission_carries_the_filename(self, daemon):
        view = submit_and_wait(
            daemon.base_url, app_text("com.envelope.app"),
            filename="apps/envelope.apkt",
        )
        assert view["status"] == "done"
        assert view["filename"] == "apps/envelope.apkt"

    def test_trace_view_is_a_chrome_trace(self, daemon):
        view = submit_and_wait(daemon.base_url, app_text("com.trace.app"))
        trace = get_json(daemon.base_url + view["links"]["trace"])
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        assert any(event.get("name") == "load" for event in events)

    def test_warm_resubmission_builds_nothing(self, daemon):
        text = app_text("com.warm.resubmit")
        cold = submit_and_wait(daemon.base_url, text)
        assert cold["counters"].get("artifact.callgraph.builds") == 1

        warm = submit_and_wait(daemon.base_url, text)
        assert warm["status"] == "done"
        assert app_builds(warm["counters"]) == 0
        assert warm["findings"] == cold["findings"]

    def test_failed_scan_reports_the_error(self, daemon):
        view = submit_and_wait(daemon.base_url, "this is not an app\n")
        assert view["status"] == "failed"
        assert view["error"] == "submitted.apkt: line 1: missing apk header"
        status, _, body = http(
            "GET", daemon.base_url + f"/v1/scans/{view['id']}/findings"
        )
        assert status == 404
        assert b"failed" in body

    def test_healthz(self, daemon):
        health = get_json(daemon.base_url + "/healthz")
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert health["cache"] is True
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}


class TestBadRequests:
    def test_empty_submission_is_400(self, daemon):
        status, _, body = http("POST", daemon.base_url + "/v1/scans", b"")
        assert status == 400
        assert b"empty submission" in body

    def test_json_submission_without_apkt_is_400(self, daemon):
        status, _, body = http(
            "POST", daemon.base_url + "/v1/scans",
            json.dumps({"filename": "x.apkt"}).encode(),
            {"Content-Type": "application/json"},
        )
        assert status == 400
        assert b"apkt" in body

    def test_non_utf8_submission_is_400(self, daemon):
        status, _, _ = http(
            "POST", daemon.base_url + "/v1/scans", b"\xff\xfe\x00\x01",
            {"Content-Type": "application/octet-stream"},
        )
        assert status == 400

    def test_unknown_job_is_404(self, daemon):
        status, _, _ = http(
            "GET", daemon.base_url + "/v1/scans/scan-999999-deadbeef"
        )
        assert status == 404

    def test_unknown_route_is_404(self, daemon):
        assert http("GET", daemon.base_url + "/v2/nope")[0] == 404

    def test_submitting_with_get_is_405(self, daemon):
        assert http("GET", daemon.base_url + "/v1/scans")[0] == 405

    def test_scan_resources_are_read_only(self, daemon):
        view = submit_and_wait(daemon.base_url, app_text("com.readonly.app"))
        status, _, _ = http(
            "DELETE", daemon.base_url + f"/v1/scans/{view['id']}"
        )
        assert status == 405

    @pytest.mark.parametrize(
        "method,path",
        [
            ("PUT", f"/v1/cache/{'a' * 40}/summaries/{'0' * 32}"),
            ("GET", f"/v1/cache/{'a' * 40}/summaries/{'0' * 32}"),
            ("DELETE", f"/v1/cache/{'a' * 40}/summaries/{'0' * 32}"),
            ("GET", "/v1/cache/entries"),
            ("POST", "/v1/cache/gc"),
            ("POST", "/v1/cache/clear"),
        ],
    )
    def test_no_route_reaches_the_cache(self, daemon, method, path):
        """The daemon has a cache directory, but no client can read,
        write or manage it: cache entries are pickles, so a writable
        route would let any client run code in every scanner."""
        body = b"{}" if method in ("PUT", "POST") else None
        assert http(method, daemon.base_url + path, body)[0] == 404


class TestCliParity:
    """The acceptance bar: service bytes == CLI bytes, same app."""

    @pytest.fixture()
    def app_file(self, tmp_path):
        path = tmp_path / "parity.apkt"
        path.write_text(app_text("com.parity.app"))
        return path

    def test_findings_json_is_byte_identical(self, daemon, app_file, capsys):
        main(["scan", "--json", str(app_file)])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        view = submit_and_wait(
            daemon.base_url, app_file.read_text(), filename=str(app_file)
        )
        status, headers, body = http(
            "GET", daemon.base_url + view["links"]["findings"]
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == cli_bytes

    def test_sarif_is_byte_identical(self, daemon, app_file, tmp_path):
        sarif_file = tmp_path / "cli.sarif"
        main(["scan", "--sarif", str(sarif_file), str(app_file)])

        view = submit_and_wait(
            daemon.base_url, app_file.read_text(), filename=str(app_file)
        )
        status, _, body = http(
            "GET", daemon.base_url + view["links"]["sarif"]
        )
        assert status == 200
        assert body == sarif_file.read_bytes()


class ManualExecutor:
    """A pool whose jobs only finish when the test says so — makes the
    admission-control paths deterministic."""

    def __init__(self):
        self.pending = []

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.pending.append((future, fn, args))
        return future

    def release_all(self):
        for future, fn, args in self.pending:
            future.set_result(fn(*args))
        self.pending.clear()

    def shutdown(self, wait=True, cancel_futures=False):
        self.pending.clear()


@pytest.fixture()
def stalled():
    """A daemon whose pool never finishes until released."""
    executor = ManualExecutor()
    handle = start_in_thread(ServiceConfig(
        port=0, queue_depth=2, executor_factory=lambda workers: executor,
    ))
    yield handle, executor
    executor.release_all()
    handle.stop()


class TestAdmissionControl:
    def test_queue_full_is_503_until_the_backlog_drains(self, stalled):
        handle, executor = stalled
        text = app_text("com.queue.app")
        first = json.loads(submit(handle.base_url, text)[2])
        second = json.loads(submit(handle.base_url, text)[2])

        status, headers, body = submit(handle.base_url, text)
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert b"queue is full" in body
        counters = get_json(handle.base_url + "/metrics")["counters"]
        assert counters["service.scans.rejected.queue_full"] == 1

        executor.release_all()
        wait_done(handle.base_url, first["id"])
        wait_done(handle.base_url, second["id"])
        assert submit(handle.base_url, text)[0] == 202


class TestJobView:
    """A view carries each fact once: the findings document lives at
    ``/findings`` only."""

    RUNNING = {"id", "status", "filename", "url"}
    DONE = RUNNING | {"package", "findings", "requests", "counters", "links"}
    FAILED = RUNNING | {"error"}

    def test_keys_by_state(self, stalled):
        handle, executor = stalled
        good = json.loads(submit(handle.base_url, app_text("com.view.app"))[2])
        bad = json.loads(submit(handle.base_url, "not an app\n")[2])
        for job in (good, bad):
            view = get_json(handle.base_url + job["url"])
            assert view["status"] == "running"
            assert set(view) == self.RUNNING

        executor.release_all()
        done = wait_done(handle.base_url, good["id"])
        assert done["status"] == "done"
        assert set(done) == self.DONE
        failed = wait_done(handle.base_url, bad["id"])
        assert failed["status"] == "failed"
        assert set(failed) == self.FAILED


class TestMetricsMerge:
    def test_metrics_merge_scan_snapshots_across_the_pool(self, tmp_path):
        handle = start_in_thread(
            ServiceConfig(port=0, workers=2, cache_dir=str(tmp_path / "c"))
        )
        try:
            ids = []
            for package in ("com.pool.one", "com.pool.two"):
                _, _, body = submit(handle.base_url, app_text(package))
                ids.append(json.loads(body)["id"])
            for job_id in ids:
                assert wait_done(handle.base_url, job_id)["status"] == "done"

            snapshot = get_json(handle.base_url + "/metrics")
            counters = snapshot["counters"]
            assert counters["service.scans.submitted"] == 2
            assert counters["service.scans.completed"] == 2
            # Worker-side counters merged into the daemon view: both cold
            # scans built their callgraphs, whichever process ran them.
            assert counters["artifact.callgraph.builds"] == 2
            assert counters["service.http.requests"] >= 4
            # So are their profile trees: one `load` and one `scan` root
            # per finished scan.
            profile = snapshot["profile"]
            assert profile["load"]["count"] == len(ids)
            assert profile["scan"]["count"] == len(ids)
        finally:
            handle.stop()


class TestWorkerPool:
    def test_pool_workers_are_not_forked_from_the_threaded_daemon(self):
        # Forking a process that runs threads can deadlock the child
        # (Python 3.12+ warns about it); the pool spawns its workers.
        service = ScanService(ServiceConfig(port=0, workers=1))
        pool = service._pool()
        try:
            assert pool._mp_context.get_start_method() == "spawn"
        finally:
            pool.shutdown()


class TestCacheDefaults:
    def test_workers_run_without_a_cache_unless_one_is_named(
        self, monkeypatch
    ):
        assert ScanService(ServiceConfig()).worker_options().cache_dir is None

        import repro.service

        configs = []

        async def fake_serve(config):
            configs.append(config)

        monkeypatch.setattr(repro.service, "serve", fake_serve)
        assert main(["serve", "--port", "0"]) == 0
        (config,) = configs
        assert config.cache_dir is None
        assert ScanService(config).worker_options().cache_dir is None
