"""The committed BENCH export and bench baseline: schema, identity, no
retired counter names, and a baseline that still matches the code.

PR 7 renamed the cache-hit counters from ``cache.disk.*`` to per-tier
``cache.<tier>.*`` names; the committed measurements must not keep the
retired spelling alive, and nothing the pipeline emits today may
reintroduce it.
"""

import json
from pathlib import Path

from repro.cli import main
from repro.core.checker import NCheckerOptions
from repro.obs import (
    BENCH_SCHEMA_VERSION,
    RECORD_SCHEMA_VERSION,
    compare_runs,
    load_run,
    use_metrics,
)

REPO = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO / "BENCH_pipeline.json"
BASELINE = REPO / "benchmarks" / "bench_baseline.json"
RETIRED_PREFIXES = ("cache.disk.",)


class TestCommittedBenchFile:
    def test_carries_schema_version_and_provenance(self):
        payload = json.loads(BENCH_FILE.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        prov = payload["provenance"]
        assert prov["options_fingerprint"]
        assert prov["source"] == "benchmarks/test_pipeline_scaling.py"

    def test_no_retired_counter_names_anywhere(self):
        text = BENCH_FILE.read_text()
        for prefix in RETIRED_PREFIXES:
            assert prefix not in text, (
                f"committed BENCH still mentions retired counter prefix "
                f"{prefix!r} — regenerate it with: PYTHONPATH=src python "
                f"-m pytest -q -s benchmarks/test_pipeline_scaling.py"
            )

    def test_baseline_carries_current_schema(self):
        baseline = json.loads(BASELINE.read_text())
        assert baseline["schema_version"] == RECORD_SCHEMA_VERSION
        assert baseline["run_id"]
        assert baseline["options_fingerprint"] == "a15ac2187ff85b8d62eb085e"
        for prefix in RETIRED_PREFIXES:
            assert not any(
                name.startswith(prefix) for name in baseline["counters"]
            )


class TestCommittedBaseline:
    def test_a_fresh_recording_gates_clean_on_its_counts(
        self, tmp_path, capsys
    ):
        """What CI's `bench gate` checks, minus wall time: a run recorded
        now has the baseline's identity, counters and profile-node
        counts, so a span or counter added without refreshing the
        baseline (`nchecker scan --metrics benchmarks/bench_baseline.json
        examples/apps/*.apkt`) fails here first."""
        apps = sorted(str(p) for p in (REPO / "examples" / "apps").glob("*.apkt"))
        current = tmp_path / "current.json"
        code = main(["scan", "--metrics", str(current), *apps])
        capsys.readouterr()
        assert code == 1  # the example apps have findings
        baseline = load_run(BASELINE)
        recorded = load_run(current)
        result = compare_runs(baseline, recorded, threshold=float("inf"))
        assert result.ok, result.render()
        assert result.counters_compared == 30
        assert recorded["run_id"] == baseline["run_id"]


class TestFreshSnapshots:
    def test_cached_scan_emits_tier_names_not_retired_ones(self, tmp_path):
        from repro.app.loader import load_apk
        from repro.core import NChecker

        apps = sorted((REPO / "examples" / "apps").glob("*.apkt"))
        assert apps, "example apps missing"
        options = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        with use_metrics() as registry:
            checker = NChecker(options=options)
            for path in apps[:2]:
                checker.open_session(load_apk(str(path))).scan()
                checker.open_session(load_apk(str(path))).scan()  # warm
        counters = registry.snapshot()["counters"]
        retired = [
            name for name in counters
            if name.startswith(RETIRED_PREFIXES)
        ]
        assert not retired, f"pipeline emitted retired counters: {retired}"
        assert any(name.startswith("cache.local.") for name in counters)
