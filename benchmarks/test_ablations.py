"""Ablations over the design choices §4 calls out.

* **Path-insensitive vs guard-aware connectivity** — the paper accepts 5
  FNs to stay path-insensitive; guard-aware mode trades them away.
* **Inter-component analysis off** — the source of the paper's 9 FPs.
* **Interprocedural connectivity off** — checks wrapped in helpers/callers
  stop counting; FP volume explodes.
* **Retry-loop detection off** — custom retry logic loses credit and
  MISSED_RETRY over-reports.
* **Notification callee depth** — capping the error-path callee walk
  misses notifications shown from helper methods.
"""

import pytest

from repro.core import DefectKind, NChecker, NCheckerOptions
from repro.corpus import (
    build_opensource_corpus,
    overall_accuracy,
    table9_confusions,
)


@pytest.fixture(scope="module")
def corpus():
    return build_opensource_corpus()


def _accuracy(corpus, options):
    checker = NChecker(options=options)
    results = [checker.scan(apk) for apk, _ in corpus]
    truths = [t for _, t in corpus]
    table = table9_confusions(truths, results)
    conn = table["Missed conn. checks"]
    return overall_accuracy(table), conn


def test_ablation_guard_aware_connectivity(benchmark, corpus):
    """Guard-aware mode removes the 5 connectivity FNs at no FP cost."""
    default_acc, default_conn = _accuracy(corpus, NCheckerOptions())
    options = NCheckerOptions(guard_aware_connectivity=True)
    aware_acc, aware_conn = benchmark.pedantic(
        _accuracy, args=(corpus, options), rounds=1, iterations=1
    )
    print(
        f"\npath-insensitive: FN={default_conn.false_negatives} "
        f"FP={default_conn.false_positives} acc={default_acc:.3f}\n"
        f"guard-aware:      FN={aware_conn.false_negatives} "
        f"FP={aware_conn.false_positives} acc={aware_acc:.3f}"
    )
    assert default_conn.false_negatives == 5
    assert aware_conn.false_negatives == 0
    assert aware_conn.false_positives == default_conn.false_positives
    assert aware_acc >= default_acc


def test_ablation_inter_component_analysis(benchmark, corpus):
    """The paper's §4.7 future work (IccTA-style ICC): launcher-side
    connectivity checks and broadcast-routed error displays become
    visible, removing all 9 FPs; combined with guard-aware connectivity
    the 16-app corpus is classified perfectly."""
    _default_acc, default_conn = _accuracy(corpus, NCheckerOptions())
    icc_acc, icc_conn = benchmark.pedantic(
        _accuracy,
        args=(corpus, NCheckerOptions(inter_component=True)),
        rounds=1,
        iterations=1,
    )
    both_acc, _ = _accuracy(
        corpus,
        NCheckerOptions(inter_component=True, guard_aware_connectivity=True),
    )
    print(
        f"\ndefault acc={_default_acc:.3f}, +ICC acc={icc_acc:.3f}, "
        f"+ICC+guard acc={both_acc:.3f}"
    )
    assert default_conn.false_positives == 4
    assert icc_conn.false_positives == 0
    assert icc_acc == 1.0  # no FPs left anywhere
    assert both_acc == 1.0


def test_ablation_intraprocedural_connectivity(benchmark):
    """Restricting the connectivity analysis to the request's own method
    makes helper-wrapped checks invisible — a false positive the full
    analysis avoids."""
    from repro.corpus.snippets import Connectivity, RequestSpec
    from tests.conftest import single_request_app

    apk, _ = single_request_app(RequestSpec(connectivity=Connectivity.HELPER))
    interproc = NChecker().scan(apk)
    intra = benchmark.pedantic(
        NChecker(options=NCheckerOptions(interprocedural_connectivity=False)).scan,
        args=(apk,), rounds=1, iterations=1,
    )
    print(
        f"\nhelper-wrapped check: interprocedural finds "
        f"{interproc.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK)} conn FPs, "
        f"intraprocedural finds "
        f"{intra.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK)}"
    )
    assert interproc.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 0
    assert intra.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 1


def test_ablation_retry_loop_detection(benchmark):
    """Disabling §4.5 makes hand-rolled retry loops look like missing
    retry configuration."""
    from repro.corpus.snippets import Backoff, RequestSpec, RetryLoopShape
    from tests.conftest import single_request_app

    spec = RequestSpec(
        library="basichttp",
        retry_loop=RetryLoopShape.CATCH_DEPENDENT,
        backoff=Backoff.EXPONENTIAL,
    )
    apk, _ = single_request_app(spec)

    with_loops = NChecker().scan(apk)
    options = NCheckerOptions(detect_retry_loops=False)
    without_loops = benchmark.pedantic(
        NChecker(options=options).scan, args=(apk,), rounds=1, iterations=1
    )
    assert with_loops.count_of(DefectKind.MISSED_RETRY) == 0
    assert without_loops.count_of(DefectKind.MISSED_RETRY) == 1


def test_ablation_notification_depth(benchmark):
    """Callee search depth 0 misses notifications behind helper methods.

    The default uses the summary engine's transitive notification facts
    and finds the helper's Toast; ``notification_callee_depth=0`` caps
    the walk at the error path itself and misses it."""
    from repro.corpus.appbuilder import AppBuilder
    from repro.ir import Local

    app = AppBuilder("com.abl.depth")
    activity = app.activity("MainActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
    region = body.begin_try()
    body.call(client, "get", "http://x", ret="r")
    body.begin_catch(region, "java.io.IOException")
    body.call(Local("this"), "showError", cls=activity.name)
    body.end_try(region)
    body.ret()
    activity.add(body)
    helper = activity.method("showError")
    toast = helper.static_call(
        "android.widget.Toast", "makeText", "ctx", "err", 0,
        ret="t", return_type="android.widget.Toast",
    )
    helper.call(toast, "show", cls="android.widget.Toast")
    helper.ret()
    activity.add(helper)
    apk = app.build()

    transitive = benchmark.pedantic(
        NChecker().scan, args=(apk,), rounds=1, iterations=1
    )
    shallow = NChecker(
        options=NCheckerOptions(notification_callee_depth=0)
    ).scan(apk)
    assert transitive.count_of(DefectKind.MISSED_NOTIFICATION) == 0
    assert shallow.count_of(DefectKind.MISSED_NOTIFICATION) == 1
