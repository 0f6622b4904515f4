"""Output determinism across execution strategies.

The pipeline promises that *how* a scan is executed never changes *what*
it emits: process parallelism (``--jobs``) and the opt-in persistent
cache (cold or warm) are execution details.  Every test here runs the same corpus through the
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

#: Stands for the module's shared cache directory in :data:`VARIANTS`.
CACHE_DIR = object()

#: CLI argument bundles that must not change any scan output.
VARIANTS = {
    "process-parallel": ["--jobs", "2"],
    "everything-at-once": ["--jobs", "2", "--cache-dir", CACHE_DIR],
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One cache directory for the module: the first variant run fills
    it cold, every later one reads it warm."""
    return str(tmp_path_factory.mktemp("determinism-cache"))


@pytest.fixture(scope="module")
def app_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism-corpus")
    paths = []
    for apk, _truth in CorpusGenerator(PAPER_PROFILE.scaled(6)).generate():
        path = root / f"{apk.package}.apkt"
        save_apk(apk, path)
        paths.append(str(path))
    return paths


def _variant(name, cache_dir) -> list[str]:
    return [cache_dir if arg is CACHE_DIR else arg for arg in VARIANTS[name]]


def _scan(app_files, capsys, extra, mode_args):
    code = main(["scan", *extra, *mode_args, *app_files])
    return code, capsys.readouterr().out


class TestByteIdentity:
    """stdout / --json / --sarif bytes are invariant under every knob."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_report_stdout(self, app_files, cache_dir, capsys, variant):
        ref_code, ref_out = _scan(app_files, capsys, [], [])
        got_code, got_out = _scan(
            app_files, capsys, _variant(variant, cache_dir), []
        )
        assert got_code == ref_code
        assert got_out == ref_out

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_json(self, app_files, cache_dir, capsys, variant):
        _, ref_out = _scan(app_files, capsys, [], ["--json"])
        _, got_out = _scan(
            app_files, capsys, _variant(variant, cache_dir), ["--json"]
        )
        assert got_out == ref_out
        assert json.loads(ref_out)  # sanity: it really is the JSON mode

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_sarif(self, app_files, cache_dir, capsys, tmp_path, variant):
        ref_file = tmp_path / "ref.sarif"
        got_file = tmp_path / "got.sarif"
        _scan(app_files, capsys, [], ["--sarif", str(ref_file)])
        _scan(
            app_files, capsys, _variant(variant, cache_dir),
            ["--sarif", str(got_file)],
        )
        assert got_file.read_bytes() == ref_file.read_bytes()
        assert json.loads(ref_file.read_text())["runs"]


class TestCacheIdentity:
    """A cold cache fill and a warm cache hit both match the reference."""

    def test_cold_then_warm(self, app_files, capsys, tmp_path):
        _, ref_out = _scan(app_files, capsys, [], ["--json"])
        cache = ["--cache-dir", str(tmp_path / "cache")]
        code_cold = main(["scan", *cache, "--json", *app_files])
        cold_out = capsys.readouterr().out
        code_warm = main(["scan", *cache, "--json", *app_files])
        warm_out = capsys.readouterr().out
        assert code_cold == code_warm
        assert cold_out == ref_out
        assert warm_out == ref_out


class TestProfileAndCounters:
    """Deterministic counters of a scan, read from its ``--metrics``
    snapshot."""

    def _snapshot(self, app_files, capsys, tmp_path, label, extra):
        out = tmp_path / f"{label}.json"
        main(["scan", "--metrics", str(out), *extra, *app_files])
        capsys.readouterr()
        return json.loads(out.read_text())

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
