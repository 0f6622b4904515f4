"""Cross-cutting property-based tests.

Three invariants tie the substrate layers together:

* **Constant-propagation soundness** — whenever the static analysis
  claims a local holds constant ``c`` at the return, the IR interpreter
  actually returns ``c``;
* **Insertion invariance** — inserting ``nop``s anywhere must not change
  a program's result (the contract the patcher relies on);
* **CFG well-formedness** — preds/succs duality, RPO coverage, dominator
  chains ending at the entry — over arbitrary generated control flow.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.app import APK, Manifest
from repro.cfg import CFG, DominatorTree
from repro.dataflow import ConstantPropagation, TOP
from repro.ir import (
    BinaryExpr,
    ClassBuilder,
    Const,
    IRClass,
    Local,
    MethodBuilder,
    NopStmt,
    ReturnStmt,
)
from repro.ir.transform import insert_statements
from repro.netsim import Runtime, THREE_G

# ---------------------------------------------------------------------------
# Program generator: deterministic integer programs with branches.
# ---------------------------------------------------------------------------

_small_int = st.integers(-50, 50)


@st.composite
def _int_programs(draw):
    """A method computing a deterministic integer, returned at the end."""
    b = MethodBuilder("com.gen.P", "compute", return_type="int")
    locals_ = ["a"]
    b.assign("a", draw(_small_int))
    n = draw(st.integers(1, 10))
    for i in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            name = f"v{i}"
            b.assign(name, draw(_small_int))
            locals_.append(name)
        elif kind == 1:
            src = draw(st.sampled_from(locals_))
            name = f"c{i}"
            b.assign(name, Local(src))
            locals_.append(name)
        elif kind == 2:
            left = draw(st.sampled_from(locals_))
            right = draw(st.sampled_from(locals_))
            op = draw(st.sampled_from(["+", "-", "*"]))
            name = f"x{i}"
            b.assign(name, BinaryExpr(op, Local(left), Local(right)))
            locals_.append(name)
        else:
            cond_local = draw(st.sampled_from(locals_))
            threshold = draw(_small_int)
            op = draw(st.sampled_from(["<", ">=", "=="]))
            with b.if_then(op, Local(cond_local), threshold):
                target = draw(st.sampled_from(locals_))
                b.assign(target, draw(_small_int))
    result = draw(st.sampled_from(locals_))
    b.ret(Local(result))
    return b.build(), result


def _wrap(method) -> APK:
    cls = IRClass("com.gen.P")
    cls.add_method(method)
    return APK(Manifest("com.gen"), [cls])


def _interpret(method):
    apk = _wrap(method)
    runtime = Runtime(apk, THREE_G, seed=0)
    from repro.netsim.runtime import SimObject

    return runtime.invoke_method(method, SimObject("com.gen.P"), [])


class TestConstantPropagationSoundness:
    @given(_int_programs())
    @settings(max_examples=80, deadline=None)
    def test_claimed_constants_match_execution(self, program):
        method, result_local = program
        cfg = CFG(method)
        cp = ConstantPropagation(cfg)
        return_idx = next(
            i for i, s in enumerate(method.statements)
            if isinstance(s, ReturnStmt) and s.value == Local(result_local)
        )
        claimed = cp.value_before(return_idx, result_local)
        actual = _interpret(method)
        if claimed is not None and claimed is not TOP:
            assert claimed == actual


class TestInsertionInvariance:
    @given(_int_programs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nop_insertion_preserves_result(self, program, data):
        method, _result = program
        baseline = _interpret(method)
        # Insert nops at a few random positions (never after the final
        # return, which would break the structural fall-through rule).
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(
                st.integers(0, len(method.statements) - 1), label="pos"
            )
            insert_statements(method, index, [NopStmt()])
        method.validate()
        assert _interpret(method) == baseline


class TestCFGWellFormedness:
    @given(_int_programs())
    @settings(max_examples=60, deadline=None)
    def test_preds_succs_duality(self, program):
        method, _ = program
        cfg = CFG(method)
        for node in cfg.nodes():
            for succ in cfg.succs[node]:
                assert node in cfg.preds[succ]
            for pred in cfg.preds[node]:
                assert node in cfg.succs[pred]

    @given(_int_programs())
    @settings(max_examples=60, deadline=None)
    def test_reachable_non_exit_nodes_have_successors(self, program):
        method, _ = program
        cfg = CFG(method)
        for node in cfg.reachable_from(cfg.entry):
            if node != cfg.exit:
                assert cfg.succs[node], f"dead-end node {node}"

    @given(_int_programs())
    @settings(max_examples=60, deadline=None)
    def test_rpo_covers_exactly_reachable(self, program):
        # The reverse postorder the dominator computation runs over.
        method, _ = program
        cfg = CFG(method)
        order = DominatorTree(cfg)._order()
        assert set(order) == cfg.reachable_from(cfg.entry)

    @given(_int_programs())
    @settings(max_examples=40, deadline=None)
    def test_dominator_chains_reach_entry(self, program):
        method, _ = program
        cfg = CFG(method)
        dom = DominatorTree(cfg)
        for node in cfg.reachable_from(cfg.entry):
            assert dom.dominates(cfg.entry, node)

    @given(_int_programs())
    @settings(max_examples=40, deadline=None)
    def test_exit_postdominates_reachable(self, program):
        method, _ = program
        cfg = CFG(method)
        pdom = DominatorTree(cfg, reverse=True)
        for node in cfg.reachable_from(cfg.entry):
            assert pdom.dominates(cfg.exit, node)


class TestTaintMonotonicity:
    @given(_int_programs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_adding_seeds_never_shrinks_taint(self, program, data):
        from repro.dataflow import ForwardTaint

        method, _ = program
        cfg = CFG(method)
        all_locals = sorted(
            {d.name for s in method.statements for d in s.defs()}
        )
        base_local = data.draw(st.sampled_from(all_locals), label="seed1")
        extra_local = data.draw(st.sampled_from(all_locals), label="seed2")
        small = ForwardTaint(cfg, {(-1, base_local)})
        large = ForwardTaint(cfg, {(-1, base_local), (-1, extra_local)})
        for node in cfg.nodes():
            assert small.tainted_before(node) <= large.tainted_before(node)

    @given(_int_programs())
    @settings(max_examples=40, deadline=None)
    def test_empty_seed_taints_nothing(self, program):
        from repro.dataflow import ForwardTaint

        method, _ = program
        cfg = CFG(method)
        taint = ForwardTaint(cfg, set())
        for node in cfg.nodes():
            assert taint.tainted_before(node) == frozenset()


class TestDesignDocConsistency:
    def test_every_bench_target_in_design_exists(self):
        """DESIGN.md's per-experiment index must not rot."""
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        text = (root / "DESIGN.md").read_text()
        targets = set(re.findall(r"`(benchmarks/[\w.]+\.py)`", text))
        assert targets, "DESIGN.md must list bench targets"
        for target in targets:
            assert (root / target).exists(), target

    def test_every_registered_experiment_documented(self):
        from pathlib import Path

        from repro.eval.experiments import EXPERIMENTS

        root = Path(__file__).resolve().parent.parent
        experiments_md = (root / "EXPERIMENTS.md").read_text()
        for exp_id in EXPERIMENTS:
            if exp_id == "study":
                continue  # documented as Tables 1-3/Fig 4
            assert f"`{exp_id}`" in experiments_md, exp_id


class TestScanDeterminism:
    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_scan_is_a_pure_function_of_the_app(self, index):
        from repro.core import NChecker
        from repro.corpus import CorpusGenerator, PAPER_PROFILE

        generator = CorpusGenerator(PAPER_PROFILE.scaled(61))
        apk, _ = generator.generate_app(index)
        checker = NChecker()
        first = [str(f) for f in checker.scan(apk).findings]
        second = [str(f) for f in checker.scan(apk).findings]
        assert first == second
