"""Import layering: what ``nchecker scan`` loads, and the lazy package
exports that keep it small (docs/ARCHITECTURE.md, "Import layering")."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
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
    "repro.pipeline",
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


    def test_a_parallel_sarif_scan_loads_no_process_pool_or_logging(
        self, tmp_path
    ):
        # `--jobs` forks its own workers: `concurrent.futures` would load
        # `multiprocessing`, `logging`, `socket` and `subprocess` into the
        # parent and so into every worker.  `-X importtime` lists the
        # workers' imports as well as the parent's.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", "scan",
             "--jobs", "2", "--sarif", str(tmp_path / "out.sarif"),
             *sorted(map(str, NEWSREADER.parent.glob("*.apkt")))],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        imported = Counter(
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        )
        assert "repro.pipeline.batch" in imported
        # The parent loads the SARIF encoder before it forks.
        assert imported["repro.eval.sarif"] == 1
        assert not {"concurrent.futures", "multiprocessing", "logging"} & set(imported)
        assert result.stderr.endswith("wrote SARIF log for 4 app(s) to "
                                      f"{tmp_path / 'out.sarif'}\n")

    def test_a_parallel_sarif_batch_loads_the_encoder_before_it_forks(self):
        # The workers inherit the SARIF encoder instead of each importing
        # it (an "import" audit event marks a module loaded afresh).
        apps = sorted(map(str, NEWSREADER.parent.glob("*.apkt")))
        result = _python(
            "import os, sys\n"
            "parent = os.getpid()\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0].startswith('repro.eval')"
            " and os.getpid() != parent:\n"
            "        os.write(1, f'worker imports {args[0]}\\n'.encode())\n"
            "sys.addaudithook(hook)\n"
            "from repro.pipeline.batch import BatchScanner\n"
            f"BatchScanner(jobs=2).scan_paths({apps!r}, want_sarif=True)\n"
            "print('repro.eval.sarif' in sys.modules)\n"
        )
        assert result.stdout == "True\n"


class TestStartupWork:
    """What a default scan compiles and loads before and besides its
    analysis (docs/ARCHITECTURE.md, "Records" and "Import layering")."""

    SCAN = (
        "import contextlib, io, sys, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = repro.cli.main(['scan', '--json', *ARGS, {app!r}])\n"
        "assert code == 1, code\n"
    ).format(app=str(NEWSREADER))

    def test_default_scan_compiles_only_record_initialisers(self):
        # Each generated record method is one `compile` of a `<string>`
        # source.  A default scan constructs instances of 41 of the
        # records it loads and never compares or hashes one.
        result = _python(
            "import sys\n"
            "sources = []\n"
            "def hook(event, args):\n"
            "    if event == 'compile' and args[1] == '<string>':\n"
            "        source = args[0]\n"
            "        if isinstance(source, bytes):\n"
            "            source = source.decode()\n"
            "        sources.append(source)\n"
            "sys.addaudithook(hook)\n"
            "ARGS = []\n"
            + self.SCAN
            + "import json\n"
            "print(json.dumps(sources))\n"
        )
        sources = json.loads(result.stdout)
        records = [s for s in sources if s.startswith("def __")]
        assert len(records) <= 41, len(records)
        assert all(s.startswith("def __init__(") for s in records), records
        assert not any("def __eq__" in s or "def __hash__" in s for s in sources)

    @pytest.mark.parametrize("cache", [False, True], ids=["default", "cache-dir"])
    def test_scan_does_not_load_openssl(self, cache, tmp_path):
        # Every digest the scan path takes is BLAKE2, from `_blake2`:
        # `hashlib` would load OpenSSL (`_hashlib`) for it.
        args = ["--cache-dir", str(tmp_path / "cache")] if cache else []
        result = _python(
            f"ARGS = {args!r}\n"
            + self.SCAN
            + "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
        )
        assert result.stdout.split() == ["False", "False"], result.stdout
        if cache:
            assert any((tmp_path / "cache").rglob("*")), "the scan wrote no entry"

    @pytest.mark.parametrize("cache", [False, True], ids=["default", "cache-dir"])
    def test_only_a_cache_dir_scan_loads_the_cache_code(self, cache, tmp_path):
        # The artifact cache (and `pickle`, its codec) loads only for
        # `--cache-dir`.
        args = ["--cache-dir", str(tmp_path / "cache")] if cache else []
        result = _python(
            f"ARGS = {args!r}\n"
            + self.SCAN
            + "print('pickle' in sys.modules,\n"
            "      'repro.pipeline.cachestore' in sys.modules)\n"
        )
        assert result.stdout.split() == [str(cache)] * 2, result.stdout

    def test_a_metrics_scan_loads_no_cache_code_and_runs_no_git(self, tmp_path):
        # The run record's options fingerprint lives in `repro.obs.events`,
        # not in the cache store, and the record carries no commit sha.
        record = tmp_path / "record.json"
        result = _python(
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('the scan started a subprocess')\n"
            "subprocess.Popen = refuse\n"
            f"ARGS = ['--metrics', {str(record)!r}]\n"
            + self.SCAN
            + "print('pickle' in sys.modules,\n"
            "      'repro.pipeline.cachestore' in sys.modules)\n"
        )
        assert result.stdout.split() == ["False", "False"], result.stdout
        assert json.loads(record.read_text())["options_fingerprint"]


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


#: Definitions that no ``src`` code references but that stay, one reason
#: per name.  The check below fails when an entry is referenced again or
#: no longer defined, so the list cannot go stale.
KEPT_DEFINITIONS = {
    "repro.core.checker.ScanResult.count_of":
        "benchmarks/test_ablations.py counts findings per defect kind",
    "repro.obs.metrics.MetricsRegistry.counter_value":
        "tests read single counts from a use_metrics() registry",
    "repro._entry.run":
        "the installed `nchecker` script (pyproject.toml [project.scripts])",
    "repro.pipeline.batch.ScanPayload.sarif_results":
        "perfbench/layers.py::batch_layer reads the SARIF result objects",
    "repro.service.daemon.ServiceHandle.base_url":
        "the handle `start_in_thread` returns to tests and benchmarks",
    "repro.service.daemon.ServiceHandle.stop":
        "the handle `start_in_thread` returns to tests and benchmarks",
    "repro.ir.builder.MethodBuilder.get_field":
        "IR builder API that tests hand-build apps with",
    "repro.ir.builder.MethodBuilder.set_field":
        "IR builder API that tests hand-build apps with",
    "repro.ir.builder.MethodBuilder.if_else":
        "IR builder API that tests hand-build apps with",
    "repro.ir.builder.MethodBuilder.throw":
        "IR builder API that tests hand-build apps with",
    "repro.ir.builder.LoopHandle.break_":
        "IR builder API that tests hand-build apps with",
    "repro.dataflow.reaching.DefUseChains.use_sites":
        "the def-to-use direction that per-method config-API facts need",
    "repro.dataflow.summaries.SummaryEngine.sccs":
        "benchmarks/test_pipeline_scaling.py bounds boolean-fact work per SCC",
    "repro.corpus.study.TRANSIENT_SUBCAUSES": "paper §2.3 study data",
    "repro.corpus.study.PERMANENT_SUBCAUSES": "paper §2.3 study data",
    "repro.corpus.study.SWITCH_SUBCAUSES": "paper §2.3 study data",
    "repro.service.daemon.start_in_thread":
        "tests and benchmarks boot the daemon in a thread of their own",
    "repro.cfg.loops.loops_containing":
        "tests check nested natural loops through it, innermost first",
    "repro.corpus.snippets.SUPPORTED_LIBRARIES":
        "tests parametrize over every library the snippet emitter writes",
    "repro.eval.sarif.dumps_sarif":
        "tests' one-shot reference for the streamed SARIF log",
    "repro.ir.parser.parse_class":
        "IR text API that tests parse single classes with",
    "repro.ir.printer.print_class":
        "IR text API that tests round-trip single classes with",
    "repro.libmodels.capabilities.tolerates_automatically":
        "tests read the Table 4 capability matrix one cell at a time",
    "repro.netsim.energy.WIFI_RADIO":
        "the WiFi radio preset the energy tests compare 3G against",
    "repro.pipeline.batch.BatchScanner.scan_paths":
        "perfbench/layers.py::batch_layer collects a whole batch's payloads",
    "repro.obs.events.BENCH_SCHEMA_VERSION":
        "the layout of BENCH_pipeline.json, which benchmarks/ writes",
    "repro.obs.events.git_head_sha":
        "benchmarks/test_pipeline_scaling.py stamps BENCH_pipeline.json",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _dotted(node: ast.expr):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _name_loads(tree: ast.AST):
    """Every name ``tree`` reads, including inside string annotations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield from _annotation_names(node.annotation)
        elif isinstance(node, _FUNCTIONS) and node.returns is not None:
            yield from _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_names(node.annotation)


def _attr_loads(tree: ast.AST):
    return (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _top_level_names(stmt: ast.stmt):
    if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id


def _import_base(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` in ``module`` reads from."""
    if not node.level:
        return node.module
    parts = module.split(".")[: None if is_package else -1]
    parts = parts[: len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _external_has(dotted: str, name: str) -> bool:
    """Whether the class ``dotted`` names outside ``repro`` has ``name``."""
    module, _, attr = dotted.rpartition(".")
    if module.partition(".")[0] in ("", "repro"):
        return False
    try:
        return hasattr(getattr(importlib.import_module(module), attr), name)
    except (ImportError, AttributeError):
        return False


class _Program:
    """Who defines and who references what across a set of modules."""

    def __init__(self, sources: dict[str, str]) -> None:
        self.trees: dict[str, ast.Module] = {}
        #: (module, name) pairs another module imports, reads as
        #: ``module.name`` or exports from the top-level package.
        self.imported: set[tuple[str, str]] = set()
        #: (package, name) -> (module, name) for what a subpackage
        #: ``__init__`` re-exports, eagerly or through its lazy map.
        self.reexports: dict[tuple[str, str], tuple[str, str]] = {}
        #: module -> local name -> the dotted name it is bound to.
        self.bindings: dict[str, dict[str, str]] = {}
        self.attr_loads: Counter = Counter()
        for path, source in sources.items():
            parts = path[: -len(".py")].split("/")
            is_package = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_package else parts)
            tree = self.trees[module] = ast.parse(source, path)
            bound = self.bindings[module] = {}
            self.attr_loads.update(_attr_loads(tree))
            # Only the top-level package's exports are the public API: a
            # subpackage ``__init__``'s re-export is a use only once
            # something reads the name through it.
            reexporter = is_package and module != "repro"
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = _import_base(module, is_package, node)
                    for alias in node.names:
                        local = alias.asname or alias.name
                        bound[local] = f"{base}.{alias.name}"
                        if reexporter:
                            self.reexports[(module, local)] = (base, alias.name)
                        else:
                            self.imported.add((base, alias.name))
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.partition(".")[0]
                        bound[local] = alias.name if alias.asname else local
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "lazy_exports"
                ):
                    exports = ast.literal_eval(node.args[1])
                    for submodule, names in exports.items():
                        for name in names:
                            target = (f"{module}.{submodule}", name)
                            if reexporter:
                                self.reexports[(module, name)] = target
                            else:
                                self.imported.add(target)
            if reexporter:
                # What the ``__init__`` itself runs is a use.
                self.imported.update(
                    (module, name) for name in _name_loads(tree)
                )
        # ``module.name`` read through an imported module or package.
        for module, tree in self.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    owner = self._resolve(module, _dotted(node.value))
                    if owner is not None:
                        self.imported.add((owner, node.attr))
        # A name read through a package reaches what the package
        # re-exports under it, through any chain of re-exports.
        pending = list(self.imported)
        while pending:
            target = self.reexports.get(pending.pop())
            if target is not None and target not in self.imported:
                self.imported.add(target)
                pending.append(target)
        self.classes = {
            (module, node.name): node
            for module, tree in self.trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }

    def _resolve(self, module: str, dotted):
        """The absolute dotted name ``dotted`` means in ``module`` through
        its imports, or None."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        bound = self.bindings[module].get(head)
        if bound is None:
            return None
        return f"{bound}.{rest}" if rest else bound

    def unused(self) -> list[str]:
        found = []
        for module, tree in self.trees.items():
            loads = Counter(_name_loads(tree))
            for stmt in tree.body:
                own = Counter(_name_loads(stmt))
                for name in _top_level_names(stmt):
                    if _is_dunder(name) or (module, name) in self.imported:
                        continue
                    if loads[name] == own[name]:
                        found.append(f"{module}.{name}")
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for item in cls.body:
                    if not isinstance(item, _FUNCTIONS) or _is_dunder(item.name):
                        continue
                    own = sum(1 for n in _attr_loads(item) if n == item.name)
                    if self.attr_loads[item.name] > own:
                        continue
                    if not self._overrides(module, cls, item.name):
                        found.append(f"{module}.{cls.name}.{item.name}")
        return sorted(found)

    def _overrides(self, module: str, cls: ast.ClassDef, name: str) -> bool:
        """Whether a base of ``cls``, here or outside ``repro``, defines
        ``name``."""
        for base in cls.bases:
            if isinstance(base, ast.Subscript):  # Generic[T]
                base = base.value
            dotted = _dotted(base)
            target = self._resolve(module, dotted) or f"{module}.{dotted}"
            owner, _, base_name = target.rpartition(".")
            base_cls = self.classes.get((owner, base_name))
            if base_cls is None:
                if _external_has(target, name):
                    return True
            elif any(
                isinstance(item, _FUNCTIONS) and item.name == name
                for item in base_cls.body
            ) or self._overrides(owner, base_cls, name):
                return True
        return False


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions in ``sources`` (``{"repro/a.py":
    source}``) that nothing reaches.

    A top-level function, class or constant is used when its own module
    reads it outside its own body, another module imports it (or reads
    it as ``module.name``), or the top-level package exports it.  A
    subpackage ``__init__`` that re-exports a name (imports it, or lists
    it in its ``lazy_exports`` map) does not use it; reading the name
    through the subpackage does.  A
    method is used when its name is read as an attribute anywhere
    outside its own body, or when it overrides a base-class method.
    Dunders are always used."""
    return _Program(sources).unused()


def _src_sources() -> dict[str, str]:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


class TestUnusedDefinitions:
    """Every definition in ``src/repro`` is reached from ``src`` itself,
    or named in :data:`KEPT_DEFINITIONS` with its reason."""

    def test_no_definition_is_dead(self):
        unused = unused_definitions(_src_sources())
        assert [name for name in unused if name not in KEPT_DEFINITIONS] == []

    def test_every_kept_definition_is_still_defined_and_unreferenced(self):
        unused = unused_definitions(_src_sources())
        assert [name for name in KEPT_DEFINITIONS if name not in unused] == []

    def test_the_check_finds_what_it_should(self):
        sources = {
            "repro/__init__.py": (
                "from ._lazy import lazy_exports\n"
                "__getattr__, __dir__ = lazy_exports(__name__, {'a': ('Exported',)})\n"
            ),
            "repro/_lazy.py": "def lazy_exports(name, names):\n    return name, names\n",
            "repro/a.py": (
                "import pickle\n"
                "from typing import Generic, TypeVar\n"
                "T = TypeVar('T')\n"
                "LIMIT = 3\n"
                "DEAD_CONSTANT = 4\n"
                "READ_AS_MODULE_ATTRIBUTE = 5\n"
                "class Exported:\n"
                "    pass\n"
                "class Base(Generic[T]):\n"
                "    def hook(self) -> 'T':\n"
                "        raise NotImplementedError\n"
                "    def run(self):\n"
                "        return self.hook()\n"
                "class Child(Base[int]):\n"
                "    def __repr__(self):\n"
                "        return 'child'\n"
                "    def hook(self):\n"
                "        return LIMIT\n"
                "    def dead_method(self):\n"
                "        return self.dead_method()\n"
                "class Loader(pickle.Unpickler):\n"
                "    def find_class(self, module, name):\n"
                "        return self.helper(module, name)\n"
                "    def helper(self, module, name):\n"
                "        return module, name\n"
                "def used():\n"
                "    return Child().run()\n"
                "def dead_function():\n"
                "    return dead_function()\n"
            ),
            "repro/b.py": (
                "from .a import Loader, used\n"
                "from . import a, pkg\n"
                "from .pkg import read_through_package\n"
                "RESULT = (used(), a.READ_AS_MODULE_ATTRIBUTE, Loader,\n"
                "          read_through_package, pkg.read_as_attribute)\n"
                "print(RESULT)\n"
            ),
            # A subpackage's re-exports are not uses by themselves.
            "repro/pkg/__init__.py": (
                "from .._lazy import lazy_exports\n"
                "from .mod import re_exported_only, read_through_package\n"
                "__getattr__, __dir__ = lazy_exports(__name__, {\n"
                "    'mod': ('lazily_exported_only', 'read_as_attribute'),\n"
                "})\n"
                "__all__ = ['re_exported_only', 'lazily_exported_only']\n"
            ),
            "repro/pkg/mod.py": (
                "def re_exported_only():\n    pass\n"
                "def lazily_exported_only():\n    pass\n"
                "def read_through_package():\n    pass\n"
                "def read_as_attribute():\n    pass\n"
            ),
        }
        assert unused_definitions(sources) == [
            "repro.a.Child.dead_method",
            "repro.a.DEAD_CONSTANT",
            "repro.a.dead_function",
            "repro.pkg.mod.lazily_exported_only",
            "repro.pkg.mod.re_exported_only",
        ]
