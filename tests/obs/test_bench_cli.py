"""`nchecker scan --metrics` run records and `nchecker bench gate` end to
end."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import RECORD_SCHEMA_VERSION

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
APPS = sorted(str(p) for p in EXAMPLES.glob("*.apkt"))


def _record(tmp_path, capsys, *extra, name="record.json"):
    out = tmp_path / name
    code = main(["scan", "--metrics", str(out), *extra, *APPS])
    stdout = capsys.readouterr().out
    return code, stdout, out


def _gate(capsys, base, current):
    code = main(["bench", "gate", "--baseline", str(base),
                 "--current", str(current), "--timing-threshold", "inf"])
    return code, capsys.readouterr().out


class TestRecord:
    def test_scan_metrics_writes_the_run_record(self, tmp_path, capsys):
        code, _, out = _record(tmp_path, capsys)
        assert code == 1  # the example apps have findings
        record = json.loads(out.read_text())
        assert record["schema_version"] == RECORD_SCHEMA_VERSION
        assert record["options_fingerprint"] == "a15ac2187ff85b8d62eb085e"
        assert record["app_set"]["count"] == len(APPS)
        assert record["run_id"]
        assert record["counters"]["scan.apps"] == len(APPS)
        assert record["profile"]  # span tree rides along
        for retired in ("kind", "label", "git_sha", "wall_s", "provenance"):
            assert retired not in record

    def test_run_id_is_reproducible(self, tmp_path, capsys):
        _, _, first = _record(tmp_path, capsys, name="first.json")
        _, _, second = _record(tmp_path, capsys, name="second.json")
        ids = {json.loads(p.read_text())["run_id"] for p in (first, second)}
        assert len(ids) == 1

    def test_run_id_does_not_depend_on_jobs(self, tmp_path, capsys):
        _, _, serial = _record(tmp_path, capsys, "--jobs", "1",
                               name="serial.json")
        _, _, parallel = _record(tmp_path, capsys, "--jobs", "2",
                                 name="parallel.json")
        serial, parallel = (json.loads(p.read_text()) for p in (serial, parallel))
        assert serial["run_id"] == parallel["run_id"]
        assert serial["counters"] == parallel["counters"]

    def test_missing_apps_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--metrics", str(out), str(tmp_path / "nope.apkt")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_no_run_ledger_is_left(self, tmp_path, capsys, monkeypatch):
        # The variables that once located a run ledger name no state.
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", str(tmp_path / "ledger"))
        monkeypatch.setenv("XDG_STATE_HOME", str(tmp_path / "state"))
        _record(tmp_path, capsys, "--stats")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["record.json"]
        for argv in (
            ["scan", "--ledger", APPS[0]],
            ["bench", "record", *APPS],
            ["bench", "gate", "--baseline", "record.json"],  # no --current
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()

    def test_gate_flags_other_apps_and_other_options(self, tmp_path, capsys):
        _, _, base = _record(tmp_path, capsys)
        _, _, extended = _record(tmp_path, capsys, "--extended-checks",
                                 name="extended.json")
        code, stdout = _gate(capsys, base, extended)
        assert code == 1
        assert "REGRESSION: options fingerprint differs" in stdout
        out = tmp_path / "one-app.json"
        main(["scan", "--metrics", str(out), APPS[0]])
        capsys.readouterr()
        code, stdout = _gate(capsys, base, out)
        assert code == 1
        assert "REGRESSION: app set differs" in stdout


class TestCompareAndGate:
    def _exports(self, tmp_path, capsys):
        _, _, out = _record(tmp_path, capsys)
        return out

    def test_compare_self_is_clean_and_exits_zero(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "== bench gate ==" in stdout
        assert "-- verdict: OK --" in stdout

    def test_gate_passes_against_own_baseline(self, tmp_path, capsys):
        out = self._exports(tmp_path, capsys)
        code = main(["bench", "gate", "--baseline", str(out),
                     "--current", str(out)])
        capsys.readouterr()
        assert code == 0

    def test_gate_fails_on_injected_timing_regression(self, tmp_path, capsys):
        # The acceptance bar: inflate one profile node's time well past
        # the 20% threshold (and the absolute noise floor) and the gate
        # must exit nonzero.
        out = self._exports(tmp_path, capsys)
        export = json.loads(out.read_text())
        assert "timings" not in export
        name, node = next(iter(export["profile"].items()))
        node["cum_ms"] = node["cum_ms"] * 10 + 100.0
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

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("flag", ["--timing-threshold", "--timing-min-ms"])
    # The value is rejected as it is parsed, before a missing --current
    # would be reported.
    @pytest.mark.parametrize("command", [
        ["gate", "--baseline", "base.json", "--current", "current.json"],
        ["gate", "--baseline", "base.json"],
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
            main(["bench", "gate", "--baseline", str(tmp_path / "nope.json"),
                  "--current", str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err


class TestScanLedgerHook:
    def test_plain_scan_never_touches_the_ledger(self, tmp_path, capsys,
                                                 monkeypatch):
        # The variable that once made scans append to a run ledger is
        # ignored now.
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", str(tmp_path / "untouched"))
        main(["scan", APPS[0]])
        capsys.readouterr()
        assert not (tmp_path / "untouched").exists()
