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
            ["scan", "{dir}"],
            ["scan", "--jobs", "2", "{dir}", "{dir}"],
            ["scan", "--json", "{dir}"],
            ["diff", "{dir}", "{dir}"],
            ["patch", "{dir}"],
            ["run", "{dir}"],
        ],
        ids=["scan", "scan-jobs", "scan-json", "diff", "patch", "run"],
    )
    def test_unreadable_path_is_an_input_error(self, tmp_path, capsys, argv):
        # Exit 1 means "findings reported", so a crash there would pass
        # for a normal run; an unreadable input must exit 2 instead.
        argv = [arg.format(dir=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path}: Is a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, what",
        [("--sarif", "SARIF log"), ("--trace", "trace"), ("--metrics", "metrics")],
        ids=["sarif", "trace", "metrics"],
    )
    def test_unwritable_output_file_fails_before_scanning(
        self, buggy_app_file, tmp_path, capsys, monkeypatch, flag, what
    ):
        from repro.pipeline.batch import BatchScanner

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned although an output cannot be written")

        monkeypatch.setattr(BatchScanner, "iter_paths", no_scan)
        target = tmp_path / "no-such-dir" / "out.json"
        code = main(["scan", flag, str(target), str(buggy_app_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {what} to {target}: ")
        assert captured.err.count("\n") == 1

    def test_missing_file_message_is_unchanged(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--jobs", "2", "/no/such/file.apkt"])
        assert capsys.readouterr().err == "error: no such file: /no/such/file.apkt\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["corpus", "{tmp}/out", "--apps", "-1"],
             "argument --apps: must be at least 0, got -1"),
            (["cache", "gc", "--cache-dir", "{tmp}/cache", "--max-size", "1M",
              "--min-age", "-5"],
             "argument --min-age: must be at least 0, got -5.0"),
            (["cache", "gc", "--cache-dir", "{tmp}/cache", "--max-size", "1M",
              "--min-age", "nan"],
             "argument --min-age: must be at least 0, got nan"),
            (["run", "app.apkt", "--invalid-response-rate", "2"],
             "argument --invalid-response-rate: must be between 0 and 1, got 2.0"),
            (["run", "app.apkt", "--invalid-response-rate", "-0.5"],
             "argument --invalid-response-rate: must be between 0 and 1, got -0.5"),
            (["run", "app.apkt", "--invalid-response-rate", "nan"],
             "argument --invalid-response-rate: must be between 0 and 1, got nan"),
        ],
        ids=["apps-negative", "min-age-negative", "min-age-nan",
             "rate-above-1", "rate-negative", "rate-nan"],
    )
    def test_out_of_range_values_rejected_at_parse_time(
        self, tmp_path, capsys, argv, message
    ):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--jobs", "0", "app.apkt"],
            ["scan", "--jobs", "-5", "app.apkt"],
            ["scan", "-j", "many", "app.apkt"],
            ["scan", "--jobs=0", "app.apkt"],
            ["scan", "-j0", "app.apkt"],
            ["scan", "--jobs", "1.5", "app.apkt"],
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "0"], "--workers: must be at least 1, got 0"),
            (["--queue-depth", "-3"], "--queue-depth: must be at least 1, got -3"),
            (["--port", "70000"],
             "--port: must be between 0 and 65535, got 70000"),
            (["--port", "-5"], "--port: must be between 0 and 65535, got -5"),
        ],
        ids=["workers", "queue-depth", "port-above-65535", "port-negative"],
    )
    def test_serve_rejects_values_that_break_every_request(
        self, capsys, monkeypatch, argv, message
    ):
        def boot(config):
            raise AssertionError(f"daemon booted with {config}")

        monkeypatch.setattr("repro.service.serve", boot)
        try:
            code = main(["serve", *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err


class TestChecks:
    ORDER = [
        "config-apis", "connectivity", "retry-parameters",
        "failure-notification", "invalid-response",
        "ui-thread-network", "callback-leak", "offline-cache",
    ]

    def listing(self, capsys, *flags):
        assert main(["checks", *flags]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [name for name, _state in rows] == self.ORDER
        return dict(rows)

    def test_default_enables_the_paper_checks_only(self, capsys):
        states = self.listing(capsys)
        assert [n for n in self.ORDER if states[n] == "enabled"] == self.ORDER[:5]
        assert [n for n in self.ORDER if states[n] == "disabled"] == self.ORDER[5:]

    def test_extended_checks_enables_every_check(self, capsys):
        states = self.listing(capsys, "--extended-checks")
        assert set(states.values()) == {"enabled"}


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

    @pytest.mark.parametrize(
        "target, reason",
        [("", "Is a directory"), ("missing/fixed.apkt", "No such file or directory")],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_output_is_an_error(
        self, buggy_app_file, tmp_path, capsys, target, reason
    ):
        # Exit 1 means "findings remain"; a failed write must exit 2.
        out = tmp_path / target
        assert main(["patch", str(buggy_app_file), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write patched app to {out}: {reason}\n"
        )


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

    @pytest.mark.parametrize(
        "entry", ["onClick", "com.x.Nope.onClick", "com.test.app.MainActivity.nope"]
    )
    def test_unknown_entry_rejected(self, buggy_app_file, capsys, entry):
        code = main(["run", str(buggy_app_file), "--entry", entry])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: --entry {entry}: no such method in" in captured.err
        assert captured.out == ""

    def test_invalid_response_rate_of_one_is_valid(self, buggy_app_file, capsys):
        code = main(["run", str(buggy_app_file), "--network", "wifi",
                     "--invalid-response-rate", "1"])
        assert code in (0, 1)
        assert "onClick on wifi" in capsys.readouterr().out

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

    def test_export_onto_a_regular_file_is_an_input_error(self, tmp_path, capsys):
        target = tmp_path / "artifacts"
        target.write_text("not a directory\n")
        assert main(["experiments", "table4", "--export", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot create export directory {target}: File exists\n"
        )
        assert captured.out == ""
        assert target.read_text() == "not a directory\n"


class TestCorpus:
    def test_emits_apkt_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", str(out_dir), "--apps", "3"]) == 0
        files = list(out_dir.glob("*.apkt"))
        assert len(files) == 3

    def test_zero_apps_is_valid(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", str(out_dir), "--apps", "0"]) == 0
        assert "wrote 0 apps" in capsys.readouterr().out
        assert not list(out_dir.glob("*.apkt"))

    def test_emitted_files_scannable(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        main(["corpus", str(out_dir), "--apps", "2"])
        files = sorted(out_dir.glob("*.apkt"))
        code = main(["scan", "--summary", *map(str, files)])
        assert code in (0, 1)

    def test_uncreatable_directory_is_an_input_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        target = blocker / "corpus"
        assert main(["corpus", str(target), "--apps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot create corpus directory {target}: Not a directory\n"
        )
        assert captured.out == ""

    def test_unwritable_app_file_is_an_input_error(self, tmp_path, capsys):
        first = tmp_path / "first"
        main(["corpus", str(first), "--apps", "1"])
        capsys.readouterr()
        (app,) = first.glob("*.apkt")
        out_dir = tmp_path / "corpus"
        (out_dir / app.name).mkdir(parents=True)
        assert main(["corpus", str(out_dir), "--apps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot create {out_dir / app.name}: Is a directory\n"
        )
        assert captured.out == ""

    def test_unwritable_ground_truth_is_an_input_error(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        (out_dir / "groundtruth.json").mkdir(parents=True)
        assert main(["corpus", str(out_dir), "--apps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot create {out_dir / 'groundtruth.json'}: "
            "Is a directory\n"
        )
