"""Import layering: what ``nchecker scan`` loads, and the lazy package
exports that keep it small (docs/ARCHITECTURE.md, "Import layering")."""

import ast
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

    def test_default_json_scan_does_not_load_logging(self):
        # A scan that logs nothing never imports `logging` (with its
        # traceback/linecache/tokenize/string, about 10 ms).
        result = _python(
            "import contextlib, io, sys, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = repro.cli.main(['scan', '--json', {str(NEWSREADER)!r}])\n"
            "assert code == 1, code\n"
            "print('logging' in sys.modules)\n"
        )
        assert result.stdout.strip() == "False", result.stdout


class TestRecords:
    """Records are built by ``repro._record.record``, never by
    ``dataclasses.dataclass`` (docs/ARCHITECTURE.md, "Records")."""

    SCAN = (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = repro.cli.main(['scan', '--json', {str(NEWSREADER)!r}])\n"
        "assert code == 1, code\n"
    )

    def test_default_scan_builds_no_dataclass(self):
        result = _python(
            "import dataclasses\n"
            "built = []\n"
            "stdlib = dataclasses.dataclass\n"
            "def counting(cls=None, /, **options):\n"
            "    def wrap(cls):\n"
            "        built.append(cls.__qualname__)\n"
            "        return stdlib(**options)(cls)\n"
            "    return wrap if cls is None else wrap(cls)\n"
            "dataclasses.dataclass = counting\n"
            + self.SCAN
            + "print(len(built), built)\n"
        )
        assert result.stdout.startswith("0 "), result.stdout

    def test_default_scan_does_not_import_dataclasses(self):
        result = _python(
            self.SCAN + "import sys\nprint('dataclasses' in sys.modules)\n"
        )
        assert result.stdout.strip() == "False", result.stdout

    def test_no_module_declares_a_dataclass(self):
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                    if any(alias.name == "dataclass" for alias in node.names):
                        offenders.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.Attribute) and node.attr == "dataclass":
                    if isinstance(node.value, ast.Name) and node.value.id == "dataclasses":
                        offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, offenders


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


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _annotation_names(node: ast.expr) -> set[str]:
    """Names an annotation uses, including inside string annotations
    (``"IRMethod"``, ``list["APK"]``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed.body)
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every name ``source`` imports and never uses.

    Imports under ``if TYPE_CHECKING:`` and ``from __future__`` are not
    checked.  A use anywhere in the module counts, as do names listed in
    ``__all__`` and names used in string annotations."""
    tree = ast.parse(source)
    skipped = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_type_checking(node.test)
        for stmt in node.body
        for sub in ast.walk(stmt)
    }
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if id(node) in skipped or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [(line, name) for line, name in imported if name not in used]


class TestUnusedImports:
    """Offline stand-in for the CI lint step's unused-import rule
    (``ruff check src/repro``, F401): a module's imports are all used.
    Package ``__init__`` modules re-export, so they are not checked."""

    def test_no_module_imports_a_name_it_never_uses(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line} {name}"
            for path in sorted((SRC / "repro").rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in unused_imports(path.read_text())
        ]
        assert not offenders, offenders

    def test_the_check_finds_what_it_should(self):
        source = (
            "from __future__ import annotations\n"
            "import os, os.path as osp\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "import json\n"
            "from a import b as c, d, e, f\n"
            "if TYPE_CHECKING:\n"
            "    from g import Never\n"
            "__all__ = ['f']\n"
            "def run(x: 'list[d]') -> Optional[int]:\n"
            "    import sys\n"
            "    return json.dumps(x) and c\n"
        )
        assert unused_imports(source) == [
            (2, "os"), (2, "osp"), (5, "e"), (10, "sys"),
        ]
