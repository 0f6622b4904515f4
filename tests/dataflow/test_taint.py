"""Forward taint and backward origin-tracing tests."""

from repro.cfg import CFG
from repro.dataflow import ForwardTaint, TaintPolicy, trace_origins
from repro.ir import CastExpr, Local, MethodBuilder


def _cfg(fn, params=()):
    b = MethodBuilder("com.t.C", "m", params=list(params))
    fn(b)
    return CFG(b.build())


class TestForwardTaint:
    def test_copy_propagates(self):
        def fn(b):
            c = b.new("com.lib.Client", "c")
            b.assign("alias", c)
            b.call(Local("alias"), "get", cls="com.lib.Client")
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(cfg, {(0, "c")})
        call_idx = [i for i, _ in cfg.method.invoke_sites()][-1]
        assert "alias" in taint.tainted_before(call_idx)

    def test_reassignment_kills(self):
        def fn(b):
            b.new("com.lib.Client", "c")
            b.assign("c", 5)  # overwritten with a constant
            b.assign("y", Local("c"))
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(cfg, {(0, "c")})
        assert "c" not in taint.tainted_before(3)

    def test_call_result_tainted_from_receiver(self):
        def fn(b):
            c = b.new("com.lib.Client", "c")
            b.call(c, "getParams", ret="params", cls="com.lib.Client")
            b.assign("y", Local("params"))
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(cfg, {(0, "c")})
        idx = len(cfg.method.statements) - 2
        assert "params" in taint.tainted_before(idx)

    def test_call_results_not_tainted_when_policy_disables(self):
        def fn(b):
            c = b.new("com.lib.Client", "c")
            b.call(c, "getParams", ret="params", cls="com.lib.Client")
            b.assign("y", Local("params"))
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(
            cfg, {(0, "c")}, TaintPolicy(through_call_results=False)
        )
        idx = len(cfg.method.statements) - 2
        assert "params" not in taint.tainted_before(idx)

    def test_entry_seed_taints_parameter(self):
        def fn(b):
            b.assign("y", Local("resp"))
            b.ret()

        cfg = _cfg(fn, params=[("com.lib.Response", "resp")])
        taint = ForwardTaint(cfg, {(-1, "resp")})
        assert "resp" in taint.tainted_before(0)
        assert "y" in taint.tainted_before(1)

    def test_cast_preserves_taint(self):
        def fn(b):
            b.new("com.lib.Client", "c")
            b.assign("d", CastExpr("com.lib.Client", Local("c")))
            b.assign("y", Local("d"))
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(cfg, {(0, "c")})
        assert "d" in taint.tainted_before(3)

    def test_invoke_sites_on_tainted(self):
        def fn(b):
            c = b.new("com.lib.Client", "c")
            other = b.new("com.other.Thing", "o")
            b.call(c, "setTimeout", 5, cls="com.lib.Client")
            b.call(other, "irrelevant", cls="com.other.Thing")
            b.ret()

        cfg = _cfg(fn)
        taint = ForwardTaint(cfg, {(0, "c")})
        names = {
            expr.sig.name
            for idx, expr in cfg.method.invoke_sites()
            if expr.base is not None and expr.base.name in taint.tainted_before(idx)
        }
        assert "setTimeout" in names
        # The constructor of `o` and its call are not on tainted receivers
        # (except c's own ctor, whose receiver *is* tainted).
        assert "irrelevant" not in names


class TestTraceOrigins:
    def test_allocation_origin(self):
        def fn(b):
            b.new("com.lib.Client", "c")
            b.assign("alias", Local("c"))
            b.call(Local("alias"), "get", cls="com.lib.Client")
            b.ret()

        cfg = _cfg(fn)
        call_idx = [i for i, _ in cfg.method.invoke_sites()][-1]
        origins = trace_origins(cfg, call_idx, "alias")
        assert origins == {0}

    def test_parameter_origin(self):
        def fn(b):
            b.call(Local("p"), "get", cls="com.lib.Client")
            b.ret()

        cfg = _cfg(fn, params=[("com.lib.Client", "p")])
        assert trace_origins(cfg, 0, "p") == {-1}

    def test_two_origins_through_branch(self):
        def fn(b):
            b.assign("sel", 0)
            with b.if_else("==", Local("sel"), 0) as orelse:
                b.new("com.lib.A", "c")
                orelse.start()
                b.new("com.lib.B", "c")
            b.call(Local("c"), "get", cls="?")
            b.ret()

        cfg = _cfg(fn)
        call_idx = [i for i, _ in cfg.method.invoke_sites()][-1]
        origins = trace_origins(cfg, call_idx, "c")
        from repro.ir import AssignStmt, NewExpr

        classes = {
            cfg.method.statements[o].value.class_name
            for o in origins
            if isinstance(cfg.method.statements[o], AssignStmt)
            and isinstance(cfg.method.statements[o].value, NewExpr)
        }
        assert classes == {"com.lib.A", "com.lib.B"}

    def test_call_result_is_origin(self):
        def fn(b):
            c = b.new("com.lib.Client", "c")
            b.call(c, "newCall", ret="call", cls="com.lib.Client")
            b.call(Local("call"), "execute", cls="com.lib.Call")
            b.ret()

        cfg = _cfg(fn)
        call_idx = [i for i, _ in cfg.method.invoke_sites()][-1]
        origins = trace_origins(cfg, call_idx, "call")
        assert len(origins) == 1
        origin = next(iter(origins))
        assert cfg.method.statements[origin].invoke().sig.name == "newCall"
