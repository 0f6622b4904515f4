"""Per-method dataflow work per statement stays flat as the app grows.

A scan builds CFGs, def-use chains and constant propagation per method
and traces allocation-site origins per query.  Each is built only where
a query reads it, so on merged corpus apps of 8, 32 and 128 apps the
builds and traces per statement may not grow faster than 1.5x per step,
and constant propagation is solved only for methods holding a site that
reads a constant.  Timing slopes stay in perfbench; these are counts.

The sizes are nested, evenly spaced samples of the same 128 corpus apps,
so each size has the same mix of libraries and request shapes and only
the size changes.  (The first 8 apps of the seed-7 corpus hold few Volley
listener shapes, which alone makes their origin traces per statement
about 0.6x those of larger prefixes.)
"""

import pytest

import repro.callgraph.icc
import repro.callgraph.resolve
import repro.core.checks.config_apis
import repro.core.requests
import repro.dataflow.configvalues
import repro.dataflow.taint
from repro.core import NCheckerOptions
from repro.libmodels import default_registry
from repro.obs import use_metrics
from repro.pipeline.scan import ScanSession
from tests.callgraph.test_chain_scaling import SIZES, merged_app

#: Every binding of ``trace_origins`` a scan calls through (the call graph
#: imports it from ``repro.dataflow.taint`` at call time).
TRACERS = (
    repro.dataflow.taint,
    repro.dataflow.configvalues,
    repro.callgraph.icc,
    repro.callgraph.resolve,
    repro.core.requests,
    repro.core.checks.config_apis,
)

#: Calls whose arguments the scan resolves by constant propagation,
#: besides config APIs and request targets (Volley's method code).
CONSTANT_READERS = frozenset(
    {"setRequestMethod", "setReconnectionAllowed",
     "sleep", "wait", "postDelayed", "awaitTermination"}
)


def reads_constants(method, registry) -> bool:
    return any(
        invoke.sig.name in CONSTANT_READERS
        or registry.find_config(invoke) is not None
        or registry.find_target(invoke) is not None
        for _idx, invoke in method.invoke_sites()
    )


@pytest.fixture(scope="module")
def work():
    """Per size: (counts per statement, constants builds, methods holding
    a constant-reading site)."""
    registry = default_registry()
    traced = repro.dataflow.taint.trace_origins
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return traced(*args, **kwargs)

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for module in TRACERS:
            patch.setattr(module, "trace_origins", counting)
        for apps in SIZES:
            apk = merged_app(apps, stride=max(SIZES) // apps)
            statements = apk.stats()["statements"]
            calls = 0
            with use_metrics() as counts:
                ScanSession(apk, registry, NCheckerOptions()).scan()

            def builds(kind):
                return counts.counter_value(f"artifact.{kind}.builds")

            per_stmt = {
                kind: builds(kind) / statements
                for kind in ("cfg", "defuse", "constants")
            }
            per_stmt["trace_origins"] = calls / statements
            readers = sum(
                reads_constants(method, registry) for method in apk.methods()
            )
            out[apps] = (per_stmt, builds("constants"), readers)
    return out


@pytest.mark.parametrize("unit", ("cfg", "defuse", "constants", "trace_origins"))
def test_work_per_statement_is_flat_in_app_size(work, unit):
    per_stmt = [work[apps][0][unit] for apps in SIZES]
    assert all(per_stmt), dict(zip(SIZES, per_stmt))
    for smaller, larger in zip(per_stmt, per_stmt[1:]):
        assert larger <= 1.5 * smaller, dict(zip(SIZES, per_stmt))


def test_constants_solved_only_where_read(work):
    for apps in SIZES:
        _per_stmt, built, readers = work[apps]
        assert built <= readers, (apps, built, readers)
