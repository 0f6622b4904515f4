"""Dominator / post-dominator / control-dependence tests."""

from repro.cfg import CFG, DominatorTree, control_dependence
from repro.ir import Local, MethodBuilder


def diamond():
    """0: x=1; 1: if -> 3; 2: then; 3(join via label): y; 4: return."""
    b = MethodBuilder("com.t.C", "m")
    b.assign("x", 1)
    with b.if_then("==", Local("x"), 0):
        b.assign("t", 2)
    b.assign("y", 3)
    b.ret()
    return b.build()


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = CFG(diamond())
        dom = DominatorTree(cfg)
        for node in cfg.reachable_from(cfg.entry):
            assert dom.dominates(cfg.entry, node)

    def test_branch_dominates_join(self):
        cfg = CFG(diamond())
        dom = DominatorTree(cfg)
        # Statement 1 is the if; the join (nop) is dominated by it.
        assert dom.dominates(1, 3)

    def test_then_branch_does_not_dominate_join(self):
        cfg = CFG(diamond())
        dom = DominatorTree(cfg)
        assert not dom.dominates(2, 4)

    def test_dominators_of_is_chain(self):
        cfg = CFG(diamond())
        dom = DominatorTree(cfg)
        assert dom.dominates(cfg.entry, 4) and dom.dominates(4, 4)

    def test_reflexive(self):
        cfg = CFG(diamond())
        dom = DominatorTree(cfg)
        assert dom.dominates(2, 2)


class TestPostDominators:
    def test_exit_postdominates_everything(self):
        cfg = CFG(diamond())
        pdom = DominatorTree(cfg, reverse=True)
        for node in cfg.reachable_from(cfg.entry):
            assert pdom.dominates(cfg.exit, node)

    def test_join_postdominates_branch(self):
        cfg = CFG(diamond())
        pdom = DominatorTree(cfg, reverse=True)
        assert pdom.dominates(3, 1)

    def test_then_branch_does_not_postdominate_branch(self):
        cfg = CFG(diamond())
        pdom = DominatorTree(cfg, reverse=True)
        assert not pdom.dominates(2, 1)


class TestControlDependence:
    def test_then_branch_depends_on_if(self):
        cfg = CFG(diamond())
        deps = control_dependence(cfg)
        assert 1 in deps[2]

    def test_join_does_not_depend_on_if(self):
        cfg = CFG(diamond())
        deps = control_dependence(cfg)
        assert 1 not in deps[3]

    def test_loop_body_depends_on_loop_condition(self):
        b = MethodBuilder("com.t.C", "m")
        b.assign("go", True)
        with b.while_loop("==", Local("go"), True):
            b.assign("x", 1)
        b.ret()
        method = b.build()
        cfg = CFG(method)
        deps = control_dependence(cfg)
        # Find the loop's conditional branch and a body statement.
        from repro.ir import IfStmt

        branch = next(
            i for i, s in enumerate(method.statements) if isinstance(s, IfStmt)
        )
        body = branch + 1
        assert branch in deps[body]
