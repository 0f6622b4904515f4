"""`nchecker bench record|compare|gate` end to end, plus the scan
`--ledger` hook."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import BENCH_SCHEMA_VERSION, RunLedger

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
APPS = sorted(str(p) for p in EXAMPLES.glob("*.apkt"))


@pytest.fixture(autouse=True)
def _isolated_ledger(monkeypatch, tmp_path):
    # Bench commands must never write the developer's real state dir
    # from a test run.
    monkeypatch.delenv("NCHECKER_LEDGER_DIR", raising=False)
    monkeypatch.setenv("XDG_STATE_HOME", str(tmp_path / "xdg-state"))


def _record(tmp_path, capsys, *extra):
    out = tmp_path / "export.json"
    code = main([
        "bench", "record", "--ledger-dir", str(tmp_path / "ledger"),
        "--out", str(out), *extra, *APPS,
    ])
    stdout = capsys.readouterr().out
    return code, stdout, out


class TestRecord:
    def test_appends_ledger_and_writes_export(self, tmp_path, capsys):
        code, stdout, out = _record(tmp_path, capsys, "--label", "smoke")
        assert code == 0
        assert "recorded bench run" in stdout
        entries = RunLedger(str(tmp_path / "ledger")).entries()
        assert len(entries) == 1
        record = entries[0]
        assert record["kind"] == "bench"
        assert record["label"] == "smoke"
        assert record["app_set"]["count"] == len(APPS)
        assert record["profile"]  # span tree rides along
        export = json.loads(out.read_text())
        assert export["schema_version"] == BENCH_SCHEMA_VERSION
        assert export["provenance"]["run_id"] == record["run_id"]
        assert export["counters"] == record["counters"]

    def test_run_id_is_reproducible(self, tmp_path, capsys):
        _record(tmp_path, capsys)
        _record(tmp_path, capsys)
        ids = [r["run_id"] for r in RunLedger(str(tmp_path / "ledger")).entries()]
        assert len(set(ids)) == 1

    def test_baseline_flag_writes_the_refresh_target(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "record", *APPS, "--ledger-dir",
                     str(tmp_path / "ledger"), "--baseline"])
        capsys.readouterr()
        assert code == 0
        baseline = tmp_path / "benchmarks" / "bench_baseline.json"
        assert baseline.exists()
        assert json.loads(baseline.read_text())["schema_version"] == (
            BENCH_SCHEMA_VERSION
        )

    def test_record_refuses_to_overwrite_non_json_files(self, tmp_path,
                                                        capsys):
        # `--baseline`'s optional value can swallow a following app path;
        # the write must bounce off anything that isn't a JSON export.
        victim = tmp_path / "app.apkt"
        victim.write_text("# not an export\n")
        code = main(["bench", "record", "--ledger-dir",
                     str(tmp_path / "ledger"), "--out", str(victim), *APPS])
        captured = capsys.readouterr()
        assert code == 2
        assert "refusing to overwrite" in captured.err
        assert victim.read_text() == "# not an export\n"

    def test_missing_apps_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no examples/apps here
        code = main(["bench", "record", "--ledger-dir", str(tmp_path)])
        assert code == 2
        assert "no apps" in capsys.readouterr().err


class TestCompareAndGate:
    def _exports(self, tmp_path, capsys):
        _, _, out = _record(tmp_path, capsys)
        return out

    def test_compare_self_is_clean_and_exits_zero(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        code = main(["bench", "compare", str(out), str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "== bench compare ==" in stdout
        assert "-- verdict: OK --" in stdout

    def test_gate_passes_against_own_baseline(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(out)])
        capsys.readouterr()
        assert code == 0

    def test_gate_fails_on_injected_timing_regression(self, tmp_path, capsys):
        # The acceptance bar: inflate one timing well past the 20%
        # threshold (and the absolute noise floor) and the gate must
        # exit nonzero.
        out = self._exports(tmp_path, capsys)
        export = json.loads(out.read_text())
        name, hist = next(iter(export["timings"].items()))
        hist["total"] = hist["total"] * 10 + 100.0
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(export))
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(regressed)])
        stdout = capsys.readouterr().out
        assert code == 1
        assert f"REGRESSION: timing {name}" in stdout
        # A generous threshold lets the same delta through.
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(regressed),
                     "--timing-threshold", "1000"])
        capsys.readouterr()
        assert code == 0

    def test_gate_fails_on_counter_drift(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        export = json.loads(out.read_text())
        export["counters"]["scan.apps"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(export))
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(drifted)])
        capsys.readouterr()
        assert code == 1

    def test_gate_measures_fresh_when_no_current_given(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        # A generous timing threshold, as CI uses: this exercises the
        # measure-fresh path and the counter exact-match, not the clock.
        code = main(["bench", "gate", "--baseline", str(out),
                     "--timing-threshold", "1000",
                     "--ledger-dir", str(tmp_path / "gate-ledger"), *APPS])
        capsys.readouterr()
        assert code == 0  # same code, same apps: counters match exactly
        assert RunLedger(str(tmp_path / "gate-ledger")).last("bench")

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("flag", ["--timing-threshold", "--timing-min-ms"])
    @pytest.mark.parametrize("command", [
        ["compare", "base.json", "current.json"],
        ["gate", "--baseline", "base.json", "--current", "current.json"],
    ], ids=["compare", "gate"])
    def test_gate_settings_that_disable_or_invert_it_exit_two(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *command, flag, value])
        assert exc.value.code == 2
        assert (f"argument {flag}: must be at least 0, got {float(value)}"
                in capsys.readouterr().err)

    def test_infinite_tolerances_are_valid(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(out), "--timing-threshold", "inf",
                     "--timing-min-ms", "inf"])
        capsys.readouterr()
        assert code == 0

    def test_compare_missing_file_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", str(tmp_path / "nope.json"),
                  str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err


class TestScanLedgerHook:
    def test_scan_ledger_flag_appends_a_scan_record(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", str(tmp_path / "scan-ledger"))
        main(["scan", "--ledger", APPS[0]])
        capsys.readouterr()
        record = RunLedger(str(tmp_path / "scan-ledger")).last("scan")
        assert record is not None
        assert record["app_set"]["count"] == 1
        assert record["counters"].get("scan.apps") == 1

    def test_env_dir_alone_records_instrumented_scans(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", str(tmp_path / "auto"))
        main(["scan", "--stats", APPS[0]])
        capsys.readouterr()
        assert RunLedger(str(tmp_path / "auto")).last("scan") is not None

    def test_plain_scan_never_touches_the_ledger(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", str(tmp_path / "untouched"))
        main(["scan", APPS[0]])
        capsys.readouterr()
        assert not (tmp_path / "untouched").exists()
