"""`nchecker scan` telemetry flags: --trace, --metrics, --stats,
--progress — and the stdout byte-identity contract behind all of them."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import flatten_profile
from repro.obs.trace import GC_SPAN

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
APPS = sorted(str(p) for p in EXAMPLES.glob("*.apkt"))

REQUIRED_KEYS = {"name", "cat", "ph", "ts", "pid", "tid"}


def check_balanced(events):
    """B/E pairs must nest properly within every (pid, tid) track."""
    stacks = {}
    for event in events:
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack, f"E without open B on track {event['pid']}/{event['tid']}"
            stack.pop()
    for track, stack in stacks.items():
        assert not stack, f"unclosed spans on track {track}: {stack}"


@pytest.fixture(autouse=True)
def _have_examples():
    assert len(APPS) >= 2, "example apps missing"


class TestTraceExport:
    def test_trace_is_schema_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        main(["scan", "--trace", str(out), *APPS])
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert REQUIRED_KEYS <= set(event)
            assert event["ph"] in {"B", "E"}
            assert isinstance(event["ts"], int)
        check_balanced(events)
        names = {e["name"] for e in events}
        assert "scan" in names
        assert any(n.startswith("pass:") for n in names)
        assert any(n.startswith("artifact:") for n in names)

    def test_spans_survive_the_process_pool(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        main(["scan", "--jobs", "2", "--trace", str(out), *APPS])
        events = json.loads(out.read_text())["traceEvents"]
        check_balanced(events)
        # One scan span per app made it back across the pool.
        scans = [e for e in events if e["name"] == "scan" and e["ph"] == "B"]
        assert len(scans) == len(APPS)
        packages = {e["args"]["package"] for e in scans}
        assert len(packages) == len(APPS)

    def test_trace_notice_is_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        main(["scan", "--trace", str(out), APPS[0]])
        captured = capsys.readouterr()
        assert "wrote Chrome trace" not in captured.out
        assert "wrote Chrome trace" in captured.err


class TestMetricsExport:
    def _counters(self, tmp_path, capsys, jobs):
        out = tmp_path / f"m{jobs}.json"
        main(["scan", "--jobs", str(jobs), "--metrics", str(out), *APPS])
        capsys.readouterr()
        return json.loads(out.read_text())

    def test_merged_worker_metrics_equal_a_jobs1_run(self, tmp_path, capsys):
        # Cache off (the default) for both runs: the comparison is about
        # merging worker telemetry, so the second run must not be warmer
        # than the first.
        serial = self._counters(tmp_path, capsys, 1)
        merged = self._counters(tmp_path, capsys, 2)
        assert serial["counters"] == merged["counters"]
        assert merged["counters"]["scan.apps"] == len(APPS)
        # Profile trees merge too: node counts are deterministic even
        # though the durations are not (collector runs are neither).
        def counts(snap):
            return {
                path: node["count"]
                for path, node in flatten_profile(snap["profile"]).items()
                if path.rpartition("/")[2] != GC_SPAN
            }

        assert counts(merged) == counts(serial)

    def test_snapshot_covers_every_layer(self, tmp_path, capsys):
        snap = self._counters(tmp_path, capsys, jobs=1)
        counters = snap["counters"]
        assert any(n.startswith("pass.") for n in counters)
        assert any(n.startswith("artifact.") for n in counters)
        assert any(n.startswith("dataflow.") for n in counters)
        assert "histograms" not in snap
        scan = snap["profile"]["scan"]["children"]
        assert any(name.startswith("pass:") for name in scan)
        assert any(name.startswith("artifact:") for name in scan)
        assert snap["gauges"].get("callgraph.methods", 0) > 0


class TestStatsAndProgress:
    def test_stats_prints_telemetry_table_on_stderr(self, capsys):
        main(["scan", "--stats", APPS[0]])
        captured = capsys.readouterr()
        assert "== telemetry ==" in captured.err
        assert "-- passes --" in captured.err
        assert "-- artifacts --" in captured.err
        assert "== telemetry ==" not in captured.out

    def test_stats_times_passes_and_app_artifacts_from_the_profile(
        self, capsys
    ):
        main(["scan", "--stats", "--jobs", "2", *APPS])
        table = capsys.readouterr().err.split("== telemetry ==")[1]
        rows = {
            line.split()[0]: line.split()
            for line in table.splitlines()
            if line and not line.startswith(("--", "pass ", "artifact "))
        }
        # A pass row ends with its total time, an app-scoped artifact row
        # with its build time (milliseconds, one decimal); per-method
        # artifacts have no span.
        assert float(rows["connectivity"][-1]) >= 0.0
        assert float(rows["callgraph"][-1]) >= 0.0
        assert rows["cfg"][-1] == "-"

    def test_progress_heartbeats_on_stderr(self, capsys):
        main(["scan", "--progress", *APPS])
        captured = capsys.readouterr()
        assert f"[1/{len(APPS)}]" in captured.err
        assert f"[{len(APPS)}/{len(APPS)}]" in captured.err
        assert "[1/" not in captured.out

    def test_quiet_suppresses_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["scan", "-q", "--progress", "--metrics", str(out), APPS[0]])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert out.exists()  # the artifact still lands


class TestByteIdentity:
    def _stdout(self, capsys, argv):
        main(["scan", *argv])
        return capsys.readouterr().out

    def test_stdout_identical_with_telemetry_flags(self, tmp_path, capsys):
        plain = self._stdout(capsys, APPS)
        traced = self._stdout(capsys, [
            "--trace", str(tmp_path / "t.json"),
            "--metrics", str(tmp_path / "m.json"),
            "--progress", *APPS,
        ])
        assert plain == traced

    def test_stdout_identical_across_job_counts_with_tracing_on(
            self, tmp_path, capsys):
        one = self._stdout(
            capsys, ["--jobs", "1", "--trace", str(tmp_path / "t1.json"), *APPS]
        )
        four = self._stdout(
            capsys, ["--jobs", "4", "--trace", str(tmp_path / "t4.json"), *APPS]
        )
        assert one == four

    def test_json_output_unpolluted_by_stats(self, capsys):
        main(["scan", "--json", "--stats", *APPS])
        captured = capsys.readouterr()
        parsed = json.loads(captured.out)  # would raise if table leaked in
        assert len(parsed) == len(APPS)
        assert "== telemetry ==" in captured.err
