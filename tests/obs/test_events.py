"""The run record `scan --metrics` writes: its identity, the app-set
digest and the options fingerprint."""

import json

from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from repro.obs import RECORD_SCHEMA_VERSION, app_set_digest, git_head_sha, run_record
from repro.obs.events import scan_options_fingerprint


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
    return run_record(**defaults)


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
        fast = _record()
        slow_snapshot = _snapshot()
        slow_snapshot["profile"]["pass:connectivity"]["cum_ms"] = 300.0
        slow_snapshot["gauges"]["cli.interp_cpu_ms"] = 90.0
        slow = _record(snapshot=slow_snapshot)
        assert fast["run_id"] == slow["run_id"]

    def test_identity_tracks_behaviour(self):
        base = _record()
        changed = _record(
            snapshot=_snapshot({"scan.apps": 2, "pass.connectivity.runs": 3})
        )
        other_apps = _record(app_set={"count": 2, "digest": "zzz"})
        other_options = _record(options=NCheckerOptions(
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS
        ))
        assert base["run_id"] != changed["run_id"]
        assert base["run_id"] != other_apps["run_id"]
        assert base["run_id"] != other_options["run_id"]

    def test_record_is_json_safe_and_timed_by_its_profile_alone(self):
        record = _record()
        assert json.loads(json.dumps(record)) == record
        assert record["schema_version"] == RECORD_SCHEMA_VERSION
        assert record["profile"] == _snapshot()["profile"]
        assert set(record) == {
            "schema_version", "run_id", "options_fingerprint", "app_set",
            "counters", "gauges", "profile",
        }


class TestOptionsFingerprint:
    """``benchmarks/bench_baseline.json`` gates only against runs with its
    options fingerprint, so these values must never drift."""

    def test_values_are_pinned(self):
        assert scan_options_fingerprint(NCheckerOptions()) == (
            "a15ac2187ff85b8d62eb085e"
        )
        assert scan_options_fingerprint(NCheckerOptions(
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS
        )) == "7cac1038e3274c616bb2f490"

    def test_cache_dir_is_not_an_analysis_option(self):
        assert scan_options_fingerprint(
            NCheckerOptions(cache_dir="/some/dir")
        ) == scan_options_fingerprint(NCheckerOptions())

    def test_every_other_option_shapes_it(self):
        base = scan_options_fingerprint(NCheckerOptions())
        for options in (
            NCheckerOptions(guard_aware_connectivity=True),
            NCheckerOptions(interprocedural_connectivity=False),
            NCheckerOptions(detect_retry_loops=False),
            NCheckerOptions(notification_callee_depth=2),
            NCheckerOptions(check_network_switch=True),
            NCheckerOptions(inter_component=True),
        ):
            assert scan_options_fingerprint(options) != base, options


class TestGitSha:
    def test_repo_checkout_or_none(self):
        sha = git_head_sha()
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_non_repo_directory_is_none(self, tmp_path):
        assert git_head_sha(cwd=str(tmp_path)) is None
