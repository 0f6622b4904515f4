"""Batch scanner determinism: --jobs N output is byte-identical to
--jobs 1, findings stay input-order stable, errors match serial scans."""

import json

import pytest

from repro.cli import main
from repro.core import NCheckerOptions
from repro.app import load_apk
from repro.core import NChecker
from repro.eval.sarif import dumps_sarif
from repro.pipeline.batch import (
    BatchScanner,
    json_document,
    sarif_document,
    scan_corpus,
)


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


class TestCorpusFanout:
    def test_parallel_corpus_scan_matches_serial(self):
        from repro.corpus.profiles import PAPER_PROFILE

        serial = scan_corpus(PAPER_PROFILE, 6, jobs=1)
        parallel = scan_corpus(PAPER_PROFILE, 6, jobs=2)
        assert [r.package for r in serial] == [r.package for r in parallel]
        assert [
            [(f.kind, f.method_key, f.stmt_index) for f in r.findings]
            for r in serial
        ] == [
            [(f.kind, f.method_key, f.stmt_index) for f in r.findings]
            for r in parallel
        ]
