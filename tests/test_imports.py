"""Import layering: what ``nchecker scan`` loads, and the lazy package
exports that keep it small (docs/ARCHITECTURE.md, "Import layering")."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent
NEWSREADER = ROOT / "examples" / "apps" / "newsreader.apkt"

#: Subsystems a default scan never runs, so must never import.
NOT_ON_SCAN_PATH = (
    "repro.netsim",
    "repro.userstudy",
    "repro.corpus",
    "repro.eval.experiments",
    "repro.core.patcher",
    "repro.core.diff",
    "repro.service",
)

#: Packages whose ``__init__`` exports lazily through ``repro._lazy``.
LAZY_PACKAGES = (
    "repro",
    "repro.app",
    "repro.callgraph",
    "repro.cfg",
    "repro.core",
    "repro.dataflow",
    "repro.eval",
    "repro.ir",
    "repro.obs",
)


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def _loaded_repro_modules(setup: str) -> list[str]:
    code = (
        "import io, json, sys\n"
        f"{setup}\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))\n"
    )
    return json.loads(_python(code).stdout)


def _assert_off_scan_path_absent(modules: list[str]) -> None:
    loaded = [
        m for m in modules
        for prefix in NOT_ON_SCAN_PATH
        if m == prefix or m.startswith(prefix + ".")
    ]
    assert not loaded, f"scan path imported {loaded}"


class TestImportBudget:
    def test_import_cli(self):
        modules = _loaded_repro_modules("import repro.cli")
        _assert_off_scan_path_absent(modules)
        assert len(modules) <= 70, modules

    def test_default_json_scan(self):
        modules = _loaded_repro_modules(
            "import contextlib, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = repro.cli.main(['scan', '--json', {str(NEWSREADER)!r}])\n"
            "assert code == 1, code"
        )
        _assert_off_scan_path_absent(modules)
        assert "repro.pipeline.batch" in modules
        assert len(modules) <= 80, modules


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_resolves_to_its_definition(self, name):
        package = importlib.import_module(name)
        for export in package.__all__:
            value = getattr(package, export)
            if export == "__version__":
                continue
            holders = [
                module for module_name, module in list(sys.modules.items())
                if module_name.startswith(name + ".")
                and export in vars(module)
            ]
            assert holders, f"{name}.{export} lives in no submodule"
            for module in holders:
                assert vars(module)[export] is value, (module.__name__, export)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import_in_a_fresh_process(self, name):
        _python(
            f"import {name} as pkg\n"
            "unlisted = set(pkg.__all__) - set(dir(pkg))\n"
            "assert not unlisted, unlisted\n"
            "namespace = {}\n"
            f"exec('from {name} import *', namespace)\n"
            "missing = set(pkg.__all__) - set(namespace)\n"
            "assert not missing, missing\n"
        )

    def test_submodule_import_still_falls_through(self):
        from repro.ir import parser

        assert parser.__name__ == "repro.ir.parser"

    def test_obs_metrics_is_the_accessor_not_the_submodule(self):
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        assert isinstance(metrics(), MetricsRegistry)


def test_cli_experiment_ids_match_the_registry():
    from repro.cli import EXPERIMENT_IDS
    from repro.eval import EXPERIMENTS

    assert EXPERIMENT_IDS == tuple(EXPERIMENTS)
