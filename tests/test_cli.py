"""CLI tests (`nchecker scan|experiments|corpus`)."""

import pytest

from repro.app import save_apk
from repro.cli import main
from repro.corpus.snippets import Connectivity, Notification, RequestSpec

from tests.conftest import single_request_app


@pytest.fixture()
def buggy_app_file(tmp_path):
    apk, _ = single_request_app(RequestSpec())
    path = tmp_path / "buggy.apkt"
    save_apk(apk, path)
    return path


@pytest.fixture()
def clean_app_file(tmp_path):
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
    return path


class TestScan:
    def test_buggy_app_exits_nonzero(self, buggy_app_file, capsys):
        code = main(["scan", str(buggy_app_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "NPD Information" in out
        assert "Fix Suggestion" in out

    def test_clean_app_exits_zero(self, clean_app_file, capsys):
        code = main(["scan", str(clean_app_file)])
        assert code == 0
        assert "0 NPD(s)" in capsys.readouterr().out

    def test_summary_mode(self, buggy_app_file, capsys):
        main(["scan", "--summary", str(buggy_app_file)])
        out = capsys.readouterr().out
        assert "missed-timeout" in out

    def test_guard_aware_flag(self, tmp_path, capsys):
        apk, _ = single_request_app(
            RequestSpec(connectivity=Connectivity.UNGUARDED)
        )
        path = tmp_path / "fn.apkt"
        save_apk(apk, path)
        # Default misses the unguarded-check defect...
        main(["scan", "--summary", str(path)])
        default_out = capsys.readouterr().out
        assert "missed-connectivity-check" not in default_out
        # ...guard-aware mode reports it.
        main(["scan", "--summary", "--guard-aware", str(path)])
        aware_out = capsys.readouterr().out
        assert "missed-connectivity-check" in aware_out


class TestErrorHandling:
    def test_missing_file_is_friendly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "/no/such/file.apkt"])
        assert excinfo.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_file_is_friendly(self, tmp_path, capsys):
        bad = tmp_path / "bad.apkt"
        bad.write_text("definitely not an app\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", str(bad)])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_patch_on_missing_file_is_friendly(self, capsys):
        with pytest.raises(SystemExit):
            main(["patch", "/no/such/file.apkt"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--jobs", "0", "app.apkt"],
            ["scan", "--jobs", "-5", "app.apkt"],
            ["scan", "-j", "many", "app.apkt"],
            ["bench", "record", "--jobs", "-1"],
            ["bench", "gate", "--baseline", "b.json", "--jobs", "0"],
            ["bench", "record", "-j", "0"],
        ],
    )
    def test_non_positive_worker_counts_rejected_at_parse_time(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "jobs" in err and ("at least 1" in err or "invalid" in err)


    @pytest.mark.parametrize("size", ["inf", "nan", "5MB"])
    def test_serve_rejects_an_unparsable_max_body(self, capsys, size):
        assert main(["serve", "--max-body", size]) == 2
        assert f"--max-body: unparsable size: {size!r}" in capsys.readouterr().err


class TestExperiments:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "table99"]) == 2

    def test_single_experiment(self, capsys):
        assert main(["experiments", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out


class TestPatch:
    def test_patch_writes_clean_app(self, buggy_app_file, tmp_path, capsys):
        out = tmp_path / "fixed.apkt"
        code = main(["patch", str(buggy_app_file), "-o", str(out)])
        assert code == 0
        assert "0 finding(s) remain" in capsys.readouterr().out
        assert main(["scan", "--summary", str(out)]) == 0

    def test_patch_default_output_name(self, buggy_app_file, capsys):
        code = main(["patch", str(buggy_app_file)])
        assert code == 0
        fixed = buggy_app_file.with_suffix(".fixed.apkt")
        assert fixed.exists()

    def test_clean_app_patches_trivially(self, clean_app_file, tmp_path, capsys):
        out = tmp_path / "noop.apkt"
        assert main(["patch", str(clean_app_file), "-o", str(out)]) == 0
        assert "applied 0 patch(es)" in capsys.readouterr().out


class TestRun:
    def test_run_reports_symptoms(self, buggy_app_file, capsys):
        code = main(["run", str(buggy_app_file), "--network", "poor-3g"])
        out = capsys.readouterr().out
        assert "onClick on poor-3g" in out
        assert code in (0, 1)

    def test_unknown_scenario_rejected(self, buggy_app_file, capsys):
        assert main(["run", str(buggy_app_file), "--network", "marsnet"]) == 2

    def test_explicit_entry(self, buggy_app_file, capsys):
        code = main(
            [
                "run",
                str(buggy_app_file),
                "--network",
                "wifi",
                "--entry",
                "com.test.app.MainActivity.onClick",
                "--invalid-response-rate",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "on wifi" in out and "ok" in out
        assert code == 0

    def test_crash_sets_exit_code(self, buggy_app_file, capsys):
        code = main(
            ["run", str(buggy_app_file), "--network", "poor-3g", "--seed", "7"]
        )
        out = capsys.readouterr().out
        if "CRASH" in out:
            assert code == 1


class TestExperimentExport:
    def test_export_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["experiments", "table4", "--export", str(out_dir)]) == 0
        assert (out_dir / "table4.txt").exists()
        assert (out_dir / "table4.json").exists()


class TestCorpus:
    def test_emits_apkt_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", str(out_dir), "--apps", "3"]) == 0
        files = list(out_dir.glob("*.apkt"))
        assert len(files) == 3

    def test_emitted_files_scannable(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        main(["corpus", str(out_dir), "--apps", "2"])
        files = sorted(out_dir.glob("*.apkt"))
        code = main(["scan", "--summary", *map(str, files)])
        assert code in (0, 1)
