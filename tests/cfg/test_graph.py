"""CFG construction tests."""

import pytest

from repro.cfg import CFG, DominatorTree, may_throw
from repro.ir import Local, MethodBuilder


def build(fn):
    b = MethodBuilder("com.t.C", "m")
    fn(b)
    return b.build()


class TestStraightLine:
    def test_linear_edges(self):
        method = build(lambda b: (b.assign("x", 1), b.assign("y", 2), b.ret()))
        cfg = CFG(method)
        assert cfg.succs[0] == [1]
        assert cfg.succs[1] == [2]
        assert cfg.succs[2] == [cfg.exit]

    def test_preds_mirror_succs(self):
        method = build(lambda b: (b.assign("x", 1), b.ret()))
        cfg = CFG(method)
        for node in cfg.nodes():
            for succ in cfg.succs[node]:
                assert node in cfg.preds[succ]


class TestBranches:
    def test_if_has_two_successors(self):
        def fn(b):
            b.assign("x", 1)
            b.if_goto("==", Local("x"), 0, "end")
            b.assign("y", 2)
            b.label("end")
            b.ret()

        cfg = CFG(build(fn))
        assert sorted(cfg.succs[1]) == [2, 3]

    def test_goto_single_successor(self):
        def fn(b):
            b.goto("end")
            b.label("end")
            b.ret()

        cfg = CFG(build(fn))
        assert cfg.succs[0] == [1]

    def test_loop_back_edge(self):
        def fn(b):
            b.assign("go", True)
            with b.while_loop("==", Local("go"), True):
                b.assign("go", False)
            b.ret()

        cfg = CFG(build(fn))
        # Some node has an edge back to an earlier node.
        assert any(s < n for n in cfg.nodes() for s in cfg.succs[n])


class TestExceptionalEdges:
    def _trapped(self):
        def fn(b):
            region = b.begin_try()
            b.call(Local("c"), "send", cls="com.lib.C")
            b.begin_catch(region, "java.io.IOException")
            b.assign("failed", True)
            b.end_try(region)
            b.ret()

        return build(fn)

    def test_invoke_has_edge_to_handler(self):
        method = self._trapped()
        cfg = CFG(method)
        call_idx = next(i for i, _ in method.invoke_sites())
        handler_idx = method.label_index(method.traps[0].handler)
        assert handler_idx in cfg.succs[call_idx]
        assert (call_idx, handler_idx) in cfg.exceptional_edges

    def test_non_throwing_stmt_has_no_handler_edge(self):
        method = self._trapped()
        cfg = CFG(method)
        handler_idx = method.label_index(method.traps[0].handler)
        # The handler body statement itself must not loop into the handler.
        assert handler_idx + 1 not in cfg.exceptional_edges

    def test_uncaught_throw_goes_to_exit(self):
        def fn(b):
            e = b.new("java.io.IOException", "e")
            b.throw(e)

        method = build(fn)
        cfg = CFG(method)
        throw_idx = len(method.statements) - 1
        assert cfg.succs[throw_idx] == [cfg.exit]


class TestQueries:
    def test_reachability(self):
        def fn(b):
            b.goto("end")
            b.assign("dead", 1)  # unreachable
            b.label("end")
            b.ret()

        cfg = CFG(build(fn))
        reachable = cfg.reachable_from(cfg.entry)
        assert 1 not in reachable
        assert cfg.exit in reachable

    def test_reverse_postorder_starts_at_entry(self):
        # The dominator computation's node order.
        method = build(lambda b: (b.assign("x", 1), b.ret()))
        cfg = CFG(method)
        order = DominatorTree(cfg)._order()
        assert order[0] == cfg.entry
        assert set(order) == cfg.reachable_from(cfg.entry)

    def test_may_throw(self):
        method = build(lambda b: (b.call(Local("c"), "m", cls="com.C"), b.ret()))
        assert may_throw(method.statements[0])
        assert not may_throw(method.statements[1])
