"""Batch scanner determinism: --jobs N output is byte-identical to
--jobs 1, findings stay input-order stable, errors match serial scans."""

import dataclasses
import gc
import json
import os
import pickle
import pickletools
import shutil
import signal
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import NCheckerOptions
from repro.app import load_apk
from repro.core import NChecker
from repro.eval.sarif import dumps_sarif
from repro.pipeline import batch
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.batch import (
    BatchScanner,
    ScanPayload,
    json_document,
    sarif_document,
    scan_corpus,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
CLEAN = EXAMPLES / "chatsecure_fig1.apkt"
BUGGY = [EXAMPLES / f"{name}.apkt"
         for name in ("musicplayer", "newsreader", "uploader")]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("apps")
    assert main(["corpus", str(out), "--apps", "4", "--no-ledger"]) == 0
    paths = sorted(out.glob("*.apkt"))
    assert len(paths) == 4
    return paths


class TestPayloadParity:
    def test_parallel_payloads_equal_serial(self, corpus_dir):
        paths = [str(p) for p in corpus_dir]
        serial = BatchScanner(jobs=1).scan_paths(paths, want_json=True)
        parallel = BatchScanner(jobs=4).scan_paths(paths, want_json=True)
        assert serial == parallel

    def test_payload_order_follows_input_order(self, corpus_dir):
        paths = [str(p) for p in reversed(corpus_dir)]
        payloads = BatchScanner(jobs=4).scan_paths(paths)
        assert [p.path for p in payloads] == paths

    def test_chunked_dispatch_keeps_order_and_progress(self, corpus_dir):
        # 16 apps over 2 workers go out in chunks of 2.
        paths = [str(p) for p in corpus_dir] * 4
        heartbeats = {1: [], 2: []}
        payloads = {
            jobs: BatchScanner(jobs=jobs).scan_paths(
                paths, want_json=True,
                progress=lambda done, total, payload, jobs=jobs:
                    heartbeats[jobs].append((done, total, payload.path)),
            )
            for jobs in (1, 2)
        }
        assert payloads[1] == payloads[2]
        expected = [(i + 1, len(paths), path) for i, path in enumerate(paths)]
        assert heartbeats[1] == heartbeats[2] == expected

    def test_error_payload_matches_serial_message(self, tmp_path):
        missing = str(tmp_path / "gone.apkt")
        (payload,) = BatchScanner(jobs=1).scan_paths([missing])
        assert not payload.ok
        assert payload.error == f"error: no such file: {missing}"

    def test_options_reach_the_workers(self, corpus_dir):
        conn_only = NCheckerOptions(enabled_checks=frozenset({"connectivity"}))
        payloads = BatchScanner(options=conn_only, jobs=2).scan_paths(
            [str(p) for p in corpus_dir], want_json=True
        )
        kinds = {
            f["kind"] for p in payloads for f in p.json_dict["findings"]
        }
        assert kinds <= {"missed-connectivity-check"}


class TestDocuments:
    """The shared renderers against a direct, one-pass rendering of the
    same scans: pre-rendering per app must not change a byte."""

    def test_renderers_match_direct_rendering(self, corpus_dir):
        paths = [str(p) for p in corpus_dir]
        payloads = BatchScanner(jobs=2).scan_paths(
            paths, want_json=True, want_sarif=True
        )
        results = [NChecker().scan(load_apk(path)) for path in paths]
        assert json_document(payloads) == (
            json.dumps([r.to_dict() for r in results], indent=2) + "\n"
        )
        assert sarif_document(payloads) == dumps_sarif(results, paths)


class TestCliByteIdentity:
    def run_cli(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out

    def test_json_output_identical_across_jobs(self, corpus_dir, capsys):
        paths = [str(p) for p in corpus_dir]
        code1, out1 = self.run_cli(["scan", "--json", *paths], capsys)
        code4, out4 = self.run_cli(["scan", "--json", "--jobs", "4", *paths], capsys)
        assert code1 == code4
        assert out1 == out4
        json.loads(out1)  # stdout stays pure JSON

    def test_report_output_identical_across_jobs(self, corpus_dir, capsys):
        paths = [str(p) for p in corpus_dir]
        _, out1 = self.run_cli(["scan", *paths], capsys)
        _, out3 = self.run_cli(["scan", "--jobs", "3", *paths], capsys)
        assert out1 == out3

    def test_sarif_file_identical_across_jobs(self, corpus_dir, tmp_path, capsys):
        paths = [str(p) for p in corpus_dir]
        s1, s4 = tmp_path / "a.sarif", tmp_path / "b.sarif"
        self.run_cli(["scan", "--sarif", str(s1), *paths], capsys)
        self.run_cli(["scan", "--sarif", str(s4), "--jobs", "4", *paths], capsys)
        assert s1.read_bytes() == s4.read_bytes()
        log = json.loads(s1.read_text())
        assert log["runs"][0]["results"]

    def test_missing_file_exits_2_in_parallel_mode(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--jobs", "2", str(corpus_dir[0]), "/no/such.apkt"])
        assert exc.value.code == 2
        assert "error: no such file" in capsys.readouterr().err


class TestSarifSplice:
    """The workers' SARIF text spliced into the log: ``--jobs 1`` and
    ``--jobs 2`` write the same bytes wherever the apps without findings
    sit in the batch."""

    @staticmethod
    def sarif_bytes(tmp_path, jobs, paths):
        log = tmp_path / f"jobs{jobs}.sarif"
        try:
            code = main(["scan", "--jobs", str(jobs), "--sarif", str(log),
                         *map(str, paths)])
        except SystemExit as exc:
            code = exc.code
        return code, log.read_bytes()

    def assert_jobs_agree(self, tmp_path, paths):
        serial = self.sarif_bytes(tmp_path, 1, paths)
        assert self.sarif_bytes(tmp_path, 2, paths) == serial
        log = serial[1]
        if log:  # the splice is what the stdlib encoder writes
            assert log.decode() == json.dumps(json.loads(log), indent=2)
        return serial

    @pytest.mark.parametrize("clean_at", [0, 1, 3], ids=["first", "middle", "last"])
    def test_an_app_without_findings_anywhere(self, tmp_path, capsys, clean_at):
        paths = list(BUGGY)
        paths.insert(clean_at, CLEAN)
        code, log = self.assert_jobs_agree(tmp_path, paths)
        capsys.readouterr()
        assert code == 1
        results = json.loads(log)["runs"][0]["results"]
        assert {r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
                for r in results} == {path.as_posix() for path in BUGGY}

    def test_an_all_clean_batch(self, tmp_path, capsys):
        paths = [tmp_path / "a.apkt", tmp_path / "b.apkt"]
        for path in paths:
            shutil.copy(CLEAN, path)
        code, log = self.assert_jobs_agree(tmp_path, paths)
        capsys.readouterr()
        assert code == 0
        assert b'"results": []' in log
        assert json.loads(log)["runs"][0]["results"] == []

    def test_an_unloadable_app_leaves_the_log_empty(self, tmp_path, capsys):
        bad = tmp_path / "bad.apkt"
        bad.write_text("garbage\n")
        code, log = self.assert_jobs_agree(tmp_path, [BUGGY[0], bad, BUGGY[1]])
        assert "missing apk header" in capsys.readouterr().err
        assert (code, log) == (2, b"")

    def test_the_sarif_part_of_a_payload_pickles_with_no_dict(self):
        (payload,) = BatchScanner().scan_paths([str(BUGGY[2])], want_sarif=True)
        sarif_fields = [f.name for f in dataclasses.fields(ScanPayload)
                        if f.name.startswith("sarif")]
        assert sarif_fields == ["sarif_kind_values", "sarif_text"]
        for name in sarif_fields:
            opcodes = {op.name for op, _arg, _pos in
                       pickletools.genops(pickle.dumps(getattr(payload, name)))}
            assert not opcodes & {"EMPTY_DICT", "DICT"}, name
        assert payload.sarif_text and len(payload.sarif_results) == payload.n_findings


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestOneAppAtATime:
    """A process that scans several apps frees each before the next one
    starts, by reference counting alone."""

    @pytest.mark.parametrize("release", [True, False], ids=["released", "kept"])
    def test_no_app_is_left_for_the_collector(self, monkeypatch, release):
        if not release:  # the check itself sees what a missing release leaves
            monkeypatch.setattr(ArtifactStore, "release", lambda store: None)
        paths = [str(p) for p in [CLEAN, *BUGGY]] * 2
        BatchScanner().scan_paths(paths[:4], want_sarif=True)  # lazy imports
        garbage = []
        gc.collect()
        gc.disable()
        try:
            BatchScanner(jobs=1).scan_paths(
                paths, want_sarif=True,
                # Each heartbeat comes after the app before was released.
                progress=lambda done, total, payload: garbage.append(gc.collect()),
            )
        finally:
            gc.enable()
        if release:
            assert garbage == [0] * len(paths)
        else:
            assert all(garbage[1:])

    def test_the_last_app_is_not_released(self, monkeypatch):
        released = []
        real = ArtifactStore.release

        def counting(store):
            released.append(store.apk.package)
            real(store)

        monkeypatch.setattr(ArtifactStore, "release", counting)
        paths = [str(p) for p in BUGGY]
        BatchScanner(jobs=1).scan_paths(paths)
        assert released == [load_apk(p).package for p in paths[:-1]]
        released.clear()
        BatchScanner(jobs=1).scan_paths(paths[:1])
        assert released == []


def _patch_load(monkeypatch, before):
    """Run ``before(path)`` in whichever process scans ``path``, just
    before the app loads."""
    real = batch._load_and_render

    def patched(task, apps):
        before(task.path)
        return real(task, apps)

    monkeypatch.setattr(batch, "_load_and_render", patched)


class TestForkPool:
    def test_order_holds_when_the_first_chunk_is_the_slowest(
        self, corpus_dir, monkeypatch, tmp_path
    ):
        # 8 apps over 2 workers go out in 8 chunks of 1; the worker with
        # chunk 0 sleeps while the other one answers the chunks after it.
        paths = [str(p) for p in [*corpus_dir, CLEAN, *BUGGY]]
        scanned = tmp_path / "scanned"

        def before(path):
            if path == paths[0]:
                time.sleep(0.5)
            with open(scanned, "a") as log:
                log.write(f"{path}\n")

        serial = BatchScanner(jobs=1).scan_paths(paths, want_json=True)
        _patch_load(monkeypatch, before)
        heartbeats = []
        payloads = BatchScanner(jobs=2).scan_paths(
            paths, want_json=True,
            progress=lambda done, total, payload:
                heartbeats.append((done, total, payload.path)),
        )
        assert payloads == serial
        assert heartbeats == [(i + 1, len(paths), p) for i, p in enumerate(paths)]
        # The other worker had answered chunk 1 and taken chunk 2 before
        # chunk 0's app even started.
        assert scanned.read_text().splitlines().index(paths[0]) >= 2
        assert_no_child_left()

    def test_a_killed_worker_exits_2_with_one_error_line(
        self, corpus_dir, monkeypatch, tmp_path, capsys
    ):
        paths = [str(p) for p in corpus_dir] * 4
        victim = paths[1]

        def before(path):
            if path == victim:
                os.kill(os.getpid(), signal.SIGKILL)

        _patch_load(monkeypatch, before)
        log = tmp_path / "out.sarif"
        log.write_text("stale")
        code = main(["scan", "--jobs", "2", "--sarif", str(log), *paths])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: scan worker ")
        assert "killed by signal 9 (SIGKILL)" in captured.err
        assert "Traceback" not in captured.err
        assert log.read_bytes() == b""
        assert_no_child_left()

    def test_a_worker_exception_reraises_in_the_parent(
        self, corpus_dir, monkeypatch
    ):
        paths = [str(p) for p in corpus_dir] * 2

        def before(path):
            if path == paths[3]:
                raise KeyError("boom")

        _patch_load(monkeypatch, before)
        seen = []
        with pytest.raises(KeyError, match="boom") as raised:
            BatchScanner(jobs=2).scan_paths(
                paths, progress=lambda done, total, payload: seen.append(done),
            )
        assert "raise KeyError" in str(raised.value.__cause__)
        assert seen == [1, 2, 3]  # where a serial scan raises too
        assert_no_child_left()

    def test_closing_the_iterator_early_kills_and_reaps_the_workers(
        self, corpus_dir, monkeypatch
    ):
        # 16 apps over 2 workers, chunks of 2: the worker with chunk 1
        # hangs, and is killed rather than waited for.
        paths = [str(p) for p in corpus_dir] * 4

        def before(path):
            if path == paths[2]:
                time.sleep(60)

        _patch_load(monkeypatch, before)
        payloads = BatchScanner(jobs=2).iter_paths(paths)
        assert next(payloads).path == paths[0]
        start = time.monotonic()
        payloads.close()
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_a_load_error_reaps_the_workers(self, corpus_dir, capsys):
        paths = [str(p) for p in corpus_dir] * 4
        paths[2] = "/no/such.apkt"
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--jobs", "2", *paths])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: no such file: /no/such.apkt\n"
        assert_no_child_left()


class TestCorpusFanout:
    def test_parallel_corpus_scan_matches_serial(self):
        from repro.corpus.profiles import PAPER_PROFILE

        runs = {}
        for jobs in (1, 2):
            telemetry = {}
            results = scan_corpus(PAPER_PROFILE, 6, jobs=jobs, telemetry=telemetry)
            runs[jobs] = ([r.to_dict() for r in results],
                          telemetry["counters"]["scan.apps"])
        assert runs[1] == runs[2]
        assert len(runs[1][0]) == runs[1][1] == 6
        assert_no_child_left()
