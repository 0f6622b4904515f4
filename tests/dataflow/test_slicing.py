"""Backward-slicing tests (the §4.5 dependence machinery)."""

from repro.cfg import CFG
from repro.dataflow import Slicer
from repro.ir import BinaryExpr, Const, IfStmt, Local, MethodBuilder


def _cfg(fn):
    b = MethodBuilder("com.t.C", "m")
    fn(b)
    return CFG(b.build())


def _find(cfg, predicate):
    return next(i for i, s in enumerate(cfg.method.statements) if predicate(s))


class TestBackwardSlice:
    def test_data_dependence_chain(self):
        def fn(b):
            b.assign("a", 1)
            b.assign("b", Local("a"))
            b.assign("c", Local("b"))
            b.ret()

        cfg = _cfg(fn)
        slicer = Slicer(cfg)
        slice_ = slicer.backward_slice(2)
        assert {0, 1, 2} <= slice_

    def test_unrelated_statements_excluded(self):
        def fn(b):
            b.assign("a", 1)
            b.assign("unrelated", 99)
            b.assign("c", Local("a"))
            b.ret()

        slicer = Slicer(_cfg(fn))
        assert 1 not in slicer.backward_slice(2)

    def test_control_dependence_included(self):
        def fn(b):
            b.assign("p", 0)
            with b.if_then("==", Local("p"), 0):
                b.assign("x", 1)
            b.ret()

        cfg = _cfg(fn)
        slicer = Slicer(cfg)
        x_def = _find(cfg, lambda s: any(d.name == "x" for d in s.defs()))
        branch = _find(cfg, lambda s: isinstance(s, IfStmt))
        slice_ = slicer.backward_slice(x_def)
        assert branch in slice_
        assert 0 in slice_  # the branch condition's data dependence

    def test_control_dependence_can_be_disabled(self):
        def fn(b):
            b.assign("p", 0)
            with b.if_then("==", Local("p"), 0):
                b.assign("x", 1)
            b.ret()

        cfg = _cfg(fn)
        slicer = Slicer(cfg)
        x_def = _find(cfg, lambda s: any(d.name == "x" for d in s.defs()))
        branch = _find(cfg, lambda s: isinstance(s, IfStmt))
        slice_ = slicer.backward_slice(x_def, include_control=False)
        assert branch not in slice_

    def test_fig6c_exit_condition_depends_on_catch(self):
        """The paper's Fig 6(c): the exit variable is assigned in the catch
        block, so the slice of the loop test must include the handler."""

        def fn(b):
            b.assign("retry", True)
            b.label("head")
            b.if_goto("==", Local("retry"), False, "out")
            region = b.begin_try()
            b.call(Local("client"), "send", ret="r", cls="com.lib.C")
            b.assign("retry", False)
            b.begin_catch(region, "java.io.IOException")
            b.call(Local("policy"), "shouldRetry", ret="sr", cls="com.lib.P")
            b.assign("retry", Local("sr"))
            b.end_try(region)
            b.goto("head")
            b.label("out")
            b.ret()

        cfg = _cfg(fn)
        slicer = Slicer(cfg)
        test_idx = _find(cfg, lambda s: isinstance(s, IfStmt))
        catch_assign = _find(
            cfg,
            lambda s: s.invoke() is not None and s.invoke().sig.name == "shouldRetry",
        )
        slice_ = slicer.backward_slice(test_idx)
        assert catch_assign in slice_

    def test_depends_on_helper(self):
        def fn(b):
            b.assign("a", 1)
            b.assign("b", Local("a"))
            b.ret()

        slicer = Slicer(_cfg(fn))
        assert slicer.backward_slice(1) & {0}
        assert not slicer.backward_slice(1) & {5}

    def test_loop_carried_dependence(self):
        def fn(b):
            b.assign("x", 0)
            with b.while_loop("<", Local("x"), 10):
                b.assign("x", BinaryExpr("+", Local("x"), Const(1)))
            b.assign("y", Local("x"))
            b.ret()

        cfg = _cfg(fn)
        slicer = Slicer(cfg)
        y_def = _find(cfg, lambda s: any(d.name == "y" for d in s.defs()))
        increment = _find(
            cfg,
            lambda s: any(d.name == "x" for d in s.defs())
            and isinstance(getattr(s, "value", None), BinaryExpr),
        )
        assert increment in slicer.backward_slice(y_def)
