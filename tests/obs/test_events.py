"""The run ledger: record identity, the JSONL file contract, and
directory resolution."""

import json

from repro.core.checker import NCheckerOptions
from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    app_set_digest,
    git_head_sha,
    provenance,
    resolve_ledger_dir,
    run_record,
)


def _snapshot(counters=None):
    return {
        "counters": counters or {"scan.apps": 2, "pass.connectivity.runs": 2},
        "gauges": {"callgraph.methods": 10.0},
        "profile": {
            "pass:connectivity": {
                "count": 2, "cum_ms": 3.0, "self_ms": 3.0, "children": {},
            },
        },
    }


def _record(**kwargs):
    defaults = dict(
        options=NCheckerOptions(),
        app_set={"count": 2, "digest": "abc"},
        snapshot=_snapshot(),
    )
    defaults.update(kwargs)
    return run_record("bench", **defaults)


class TestLedgerDir:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", "/env/dir")
        assert resolve_ledger_dir("/my/dir") == "/my/dir"

    def test_env_var_beats_xdg(self, monkeypatch):
        monkeypatch.setenv("NCHECKER_LEDGER_DIR", "/env/dir")
        monkeypatch.setenv("XDG_STATE_HOME", "/xdg/state")
        assert resolve_ledger_dir() == "/env/dir"

    def test_xdg_state_home(self, monkeypatch):
        monkeypatch.delenv("NCHECKER_LEDGER_DIR", raising=False)
        monkeypatch.setenv("XDG_STATE_HOME", "/xdg/state")
        assert resolve_ledger_dir() == "/xdg/state/nchecker"

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("NCHECKER_LEDGER_DIR", raising=False)
        monkeypatch.delenv("XDG_STATE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert resolve_ledger_dir() == str(
            tmp_path / ".local" / "state" / "nchecker"
        )


class TestAppSetDigest:
    def test_order_independent_and_content_sensitive(self, tmp_path):
        a = tmp_path / "a.apkt"
        b = tmp_path / "b.apkt"
        a.write_text("alpha")
        b.write_text("beta")
        forward = app_set_digest([str(a), str(b)])
        assert forward == app_set_digest([str(b), str(a)])
        assert forward["count"] == 2
        a.write_text("alpha-changed")
        assert app_set_digest([str(a), str(b)]) != forward

    def test_digest_survives_directory_moves(self, tmp_path):
        one = tmp_path / "one" / "app.apkt"
        two = tmp_path / "two" / "app.apkt"
        for path in (one, two):
            path.parent.mkdir()
            path.write_text("same bytes")
        assert app_set_digest([str(one)]) == app_set_digest([str(two)])

    def test_unreadable_file_degrades_to_its_name(self, tmp_path):
        digest = app_set_digest([str(tmp_path / "missing.apkt")])
        assert digest["count"] == 1  # counted, not dropped


class TestRunRecord:
    def test_identity_ignores_wall_clock_fields(self):
        fast = _record(wall_s=0.1, label="fast", git_sha="a" * 40)
        slow = _record(wall_s=99.0, label="slow", git_sha=None)
        assert fast["run_id"] == slow["run_id"]

    def test_identity_tracks_behaviour(self):
        base = _record()
        changed = _record(
            snapshot=_snapshot({"scan.apps": 2, "pass.connectivity.runs": 3})
        )
        other_apps = _record(app_set={"count": 2, "digest": "zzz"})
        assert base["run_id"] != changed["run_id"]
        assert base["run_id"] != other_apps["run_id"]

    def test_record_is_json_safe_and_timed_by_its_profile_alone(self):
        record = _record(wall_s=1.0)
        assert json.loads(json.dumps(record)) == record
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION
        assert record["profile"] == _snapshot()["profile"]
        assert "timings" not in record

    def test_provenance_carries_identity_not_measurements(self):
        record = _record(wall_s=1.0)
        prov = provenance(record)
        assert prov["run_id"] == record["run_id"]
        assert prov["options_fingerprint"] == record["options_fingerprint"]
        for key in ("wall_s", "counters", "profile"):
            assert key not in prov


class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "state"))
        stored = ledger.append(_record(wall_s=0.5))
        assert ledger.path.exists()
        entries = ledger.entries()
        assert entries == [stored]
        assert stored["kind"] == "bench"

    def test_append_stamps_handmade_records(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        stored = ledger.append({"kind": "bench", "counters": {"c": 1}})
        assert stored["schema_version"] == LEDGER_SCHEMA_VERSION
        assert stored["run_id"]

    def test_torn_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        first = ledger.append(_record())
        with open(ledger.path, "a") as fh:
            fh.write('{"torn": \n')
        second = ledger.append(_record(label="after"))
        assert ledger.entries() == [first, second]

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "never-written"))
        assert ledger.entries() == []


class TestGitSha:
    def test_repo_checkout_or_none(self):
        sha = git_head_sha()
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_non_repo_directory_is_none(self, tmp_path):
        assert git_head_sha(cwd=str(tmp_path)) is None
