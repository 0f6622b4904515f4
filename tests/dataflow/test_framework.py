"""Generic dataflow-solver tests."""

from repro.cfg import CFG
from repro.dataflow.framework import SetAnalysis
from repro.ir import Local, MethodBuilder


def _diamond_cfg():
    b = MethodBuilder("com.f.C", "m")
    b.assign("p", 0)
    with b.if_else("==", Local("p"), 0) as orelse:
        b.assign("a", 1)
        orelse.start()
        b.assign("b", 2)
    b.assign("join", 3)
    b.ret()
    return CFG(b.build())


class MaybeDefined(SetAnalysis):
    """May-analysis: locals defined on *some* path."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.solve()

    def transfer(self, node, state):
        stmt = self.cfg.stmt(node)
        if stmt is None:
            return state
        return state | {d.name for d in stmt.defs()}


class TestMustVsMay:
    def test_may_unions_branches(self):
        cfg = _diamond_cfg()
        analysis = MaybeDefined(cfg)
        at_exit = analysis.out_states[cfg.exit]
        assert {"p", "a", "b", "join"} <= at_exit

    def test_solver_reaches_fixed_point(self):
        """Solving twice changes nothing."""
        cfg = _diamond_cfg()
        analysis = MaybeDefined(cfg)
        before = dict(analysis.out_states)
        analysis.solve()
        assert analysis.out_states == before
