"""Output determinism across execution strategies.

The pipeline promises that *how* a scan is executed never changes *what*
it emits: process parallelism (``--jobs``), intra-app SCC parallelism
(``--intra-jobs``) and the persistent disk cache (cold or warm) are all
execution details.  Every test here runs the same corpus through the
real CLI under one varied knob and asserts byte-identity against the
serial, cache-less reference — for the human report, ``--json``,
and ``--sarif`` alike — plus equality of the profile span-tree shape and
the deterministic counters where the knob promises it.
"""

from __future__ import annotations

import json

import pytest

from repro.app import load_apk, save_apk
from repro.cli import main
from repro.core import NChecker
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.pipeline.artifacts import SUMMARIES

#: CLI argument bundles that must not change any scan output.
VARIANTS = {
    "intra-parallel": ["--intra-jobs", "4"],
    "process-parallel": ["--jobs", "2"],
    "everything-at-once": ["--intra-jobs", "4", "--jobs", "2"],
}


@pytest.fixture(scope="module")
def app_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism-corpus")
    paths = []
    for apk, _truth in CorpusGenerator(PAPER_PROFILE.scaled(6)).generate():
        path = root / f"{apk.package}.apkt"
        save_apk(apk, path)
        paths.append(str(path))
    return paths


def _scan(app_files, capsys, extra, mode_args):
    code = main(["scan", "--no-disk-cache", *extra, *mode_args, *app_files])
    return code, capsys.readouterr().out


class TestByteIdentity:
    """stdout / --json / --sarif bytes are invariant under every knob."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_report_stdout(self, app_files, capsys, variant):
        ref_code, ref_out = _scan(app_files, capsys, [], [])
        got_code, got_out = _scan(app_files, capsys, VARIANTS[variant], [])
        assert got_code == ref_code
        assert got_out == ref_out

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_json(self, app_files, capsys, variant):
        _, ref_out = _scan(app_files, capsys, [], ["--json"])
        _, got_out = _scan(app_files, capsys, VARIANTS[variant], ["--json"])
        assert got_out == ref_out
        assert json.loads(ref_out)  # sanity: it really is the JSON mode

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_sarif(self, app_files, capsys, tmp_path, variant):
        ref_file = tmp_path / "ref.sarif"
        got_file = tmp_path / "got.sarif"
        _scan(app_files, capsys, [], ["--sarif", str(ref_file)])
        _scan(app_files, capsys, VARIANTS[variant], ["--sarif", str(got_file)])
        assert got_file.read_bytes() == ref_file.read_bytes()
        assert json.loads(ref_file.read_text())["runs"]


class TestDiskCacheIdentity:
    """A cold cache fill and a warm cache hit both match the reference."""

    def test_cold_then_warm(self, app_files, capsys, tmp_path):
        _, ref_out = _scan(app_files, capsys, [], ["--json"])
        cache = ["--cache-backend", f"local:{tmp_path / 'cache'}"]
        code_cold = main(["scan", *cache, "--json", *app_files])
        cold_out = capsys.readouterr().out
        code_warm = main(["scan", *cache, "--json", *app_files])
        warm_out = capsys.readouterr().out
        assert code_cold == code_warm
        assert cold_out == ref_out
        assert warm_out == ref_out


def _profile_shape(tree: dict) -> list:
    """The span tree reduced to its deterministic shape: names, call
    counts, and child shapes (timings vary run to run)."""
    return sorted(
        (name, node["count"], _profile_shape(node.get("children", {})))
        for name, node in tree.items()
    )


def _count_nodes(tree: dict) -> int:
    return sum(1 + _count_nodes(node.get("children", {})) for node in tree.values())


class TestProfileAndCounters:
    """--intra-jobs N keeps the whole telemetry surface identical: the
    profile span tree has the same shape and the counters the same
    values as a serial run."""

    def _snapshot(self, app_files, capsys, tmp_path, label, extra):
        out = tmp_path / f"{label}.json"
        main(["scan", "--no-disk-cache", "--metrics", str(out),
              *extra, *app_files])
        capsys.readouterr()
        return json.loads(out.read_text())

    def test_intra_parallel_matches_serial(self, app_files, capsys, tmp_path):
        serial = self._snapshot(app_files, capsys, tmp_path, "serial", [])
        parallel = self._snapshot(
            app_files, capsys, tmp_path, "parallel", ["--intra-jobs", "4"]
        )
        assert _count_nodes(parallel["profile"]) == _count_nodes(
            serial["profile"]
        )
        assert _profile_shape(parallel["profile"]) == _profile_shape(
            serial["profile"]
        )
        assert parallel["counters"] == serial["counters"]
        # The demand-driven engine really ran (and was exercised above).
        assert serial["counters"]["dataflow.bool_fact_sccs"] > 0

    def test_eager_does_strictly_more_scc_work(self, app_files, capsys, tmp_path):
        """Demand-driven evaluation does strictly less work than whole-app
        evaluation would: each fact pass of an app would evaluate all of
        its SCCs, so that total is derived from the engines themselves."""
        lazy = self._snapshot(app_files, capsys, tmp_path, "lazy", [])
        checker = NChecker()
        whole_app = 0
        for path in app_files:
            session = checker.open_session(load_apk(path))
            session.scan()
            engine = session.store.peek(SUMMARIES)
            whole_app += engine.stats.bool_fact_passes * len(engine.sccs)
        assert 0 < lazy["counters"]["dataflow.bool_fact_sccs"] < whole_app
