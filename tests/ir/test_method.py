"""Unit tests for IRMethod: labels, traps, validation."""

import pytest

from repro.ir import (
    AssignStmt,
    Const,
    GotoStmt,
    IRMethod,
    IfStmt,
    Local,
    MethodSig,
    NopStmt,
    ReturnStmt,
    Trap,
    ConditionExpr,
)


def _method(stmts, labels=None, traps=None):
    return IRMethod(MethodSig("com.C", "m"), [], stmts, labels or {}, traps or [])


class TestValidation:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="empty body"):
            _method([]).validate()

    def test_fallthrough_off_end_rejected(self):
        with pytest.raises(ValueError, match="falls off the end"):
            _method([NopStmt()]).validate()

    def test_dangling_branch_target_rejected(self):
        method = _method([GotoStmt("nowhere"), ReturnStmt()])
        with pytest.raises(ValueError, match="undefined label"):
            method.validate()

    def test_trap_with_undefined_label_rejected(self):
        method = _method(
            [ReturnStmt()],
            labels={"a": 0},
            traps=[Trap("a", "a", "missing")],
        )
        with pytest.raises(ValueError, match="undefined"):
            method.validate()

    def test_inverted_trap_range_rejected(self):
        method = _method(
            [NopStmt(), ReturnStmt()],
            labels={"a": 1, "b": 0, "h": 0},
            traps=[Trap("a", "b", "h")],
        )
        with pytest.raises(ValueError, match="inverted"):
            method.validate()

    def test_valid_method_passes(self):
        method = _method(
            [NopStmt(), GotoStmt("end"), NopStmt(), ReturnStmt()],
            labels={"end": 3},
        )
        method.validate()


class TestQueries:
    def test_label_index_and_error(self):
        method = _method([ReturnStmt()], labels={"L": 0})
        assert method.label_index("L") == 0
        with pytest.raises(KeyError):
            method.label_index("missing")

    def test_traps_covering(self):
        method = _method(
            [NopStmt(), NopStmt(), NopStmt(), ReturnStmt()],
            labels={"b": 0, "e": 2, "h": 2},
            traps=[Trap("b", "e", "h", "java.io.IOException")],
        )
        assert len(method.traps_covering(0)) == 1
        assert len(method.traps_covering(1)) == 1
        assert method.traps_covering(2) == []  # end is exclusive

    def test_trap_handlers(self):
        method = _method(
            [NopStmt(), NopStmt(), ReturnStmt()],
            labels={"b": 0, "e": 1, "h": 1},
            traps=[Trap("b", "e", "h")],
        )
        assert method.trap_handlers() == {1}

    def test_invoke_sites_empty_for_pure_method(self):
        method = _method([AssignStmt(Local("x"), Const(1)), ReturnStmt()])
        assert list(method.invoke_sites()) == []
