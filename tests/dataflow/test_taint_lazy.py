"""``ForwardTaint`` solves on its first query: an oracle against the
eager solve at every node, and a check that an unqueried instance never
solves."""

from pathlib import Path

import pytest

from repro.app import load_apk
from repro.cfg import CFG
from repro.corpus import PAPER_PROFILE, CorpusGenerator
from repro.corpus.opensource import build_opensource_corpus
from repro.dataflow import ForwardTaint
from repro.ir import Local, MethodBuilder
from repro.ir.statements import AssignStmt

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"


class CountingTaint(ForwardTaint):
    """Counts the solves of each instance."""

    def solve(self):
        self.solves = getattr(self, "solves", 0) + 1
        return super().solve()


def _seed_sets(method) -> list[set]:
    """Every parameter at entry, then each local definition on its own."""
    seed_sets = []
    if method.params:
        seed_sets.append({(-1, param.name) for param in method.params})
    for index, stmt in enumerate(method.statements):
        if isinstance(stmt, AssignStmt) and isinstance(stmt.target, Local):
            seed_sets.append({(index, stmt.target.name)})
    return seed_sets


def assert_lazy_equals_eager(cfg: CFG, seeds: set) -> None:
    eager = ForwardTaint(cfg, seeds).solve()
    lazy = CountingTaint(cfg, seeds)
    assert not lazy.in_states and not hasattr(lazy, "solves")
    # Last node first: the first query must solve the whole method.
    for node in reversed(cfg.nodes()):
        assert lazy.tainted_before(node) == eager.in_states[node], node
    assert lazy.solves == 1
    assert lazy.out_states == eager.out_states


def _golden_methods():
    apks = [load_apk(path) for path in sorted(EXAMPLES.glob("*.apkt"))]
    corpus = CorpusGenerator(PAPER_PROFILE.scaled(6)).generate()
    apks += [apk for apk, _truth in corpus + build_opensource_corpus()]
    for apk in apks:
        for method in apk.methods():
            if method.statements:
                yield method


def test_lazy_answers_equal_the_eager_solve_on_the_golden_corpora():
    checked = 0
    for method in _golden_methods():
        cfg = CFG(method)
        for seeds in _seed_sets(method):
            assert_lazy_equals_eager(cfg, seeds)
            checked += 1
    assert checked > 500


def _loop(b):
    c = b.new("com.lib.Client", "c")
    b.assign("i", 0)
    with b.while_loop("<", Local("i"), 3):
        b.assign("alias", Local("other"))
        b.assign("other", c)
        b.call(Local("alias"), "get", cls="com.lib.Client")
        b.assign("i", Local("i"))
    b.ret(Local("alias"))


def _trap(b):
    b.assign("retry", True)
    b.label("head")
    b.if_goto("==", Local("retry"), False, "out")
    region = b.begin_try()
    b.call(Local("client"), "send", ret="r", cls="com.lib.C")
    b.assign("retry", False)
    b.begin_catch(region, "java.io.IOException")
    b.call(Local("r"), "shouldRetry", ret="sr", cls="com.lib.P")
    b.assign("retry", Local("sr"))
    b.end_try(region)
    b.goto("head")
    b.label("out")
    b.ret(Local("r"))


@pytest.mark.parametrize("shape", [_loop, _trap], ids=["loop", "trap"])
def test_lazy_answers_equal_the_eager_solve_on_cyclic_shapes(shape):
    b = MethodBuilder("com.t.C", "m", params=[("com.lib.C", "client")])
    shape(b)
    cfg = CFG(b.build())
    assert not cfg.acyclic
    for seeds in _seed_sets(cfg.method):
        assert_lazy_equals_eager(cfg, seeds)


def test_an_unqueried_instance_never_solves():
    b = MethodBuilder("com.t.C", "m")
    _loop(b)
    taint = CountingTaint(CFG(b.build()), {(0, "c")})
    assert not hasattr(taint, "solves")
    assert not taint.in_states and not taint.out_states
