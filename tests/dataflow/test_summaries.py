"""Unit tests for the interprocedural summary engine (`dataflow.summaries`)."""

from repro.core import NChecker
from repro.core.defects import DefectKind
from repro.core.requests import AnalysisContext
from repro.corpus.appbuilder import AppBuilder
from repro.dataflow.summaries import (
    CONFIG_TOP,
    RECEIVER,
    SummaryEngine,
    apk_fingerprint,
)
from repro.ir import Local
from repro.libmodels import default_registry

CLIENT = "com.turbomanage.httpclient.BasicHttpClient"


def build_engine(apk):
    registry = default_registry()
    ctx = AnalysisContext.build(apk, registry)
    return SummaryEngine(ctx.callgraph, registry, ctx.cache)


def _deep_chain_app(configure_at_top: bool = True):
    """onClick allocates (and optionally configures) the client, then passes
    it down three frames to the request: the shape one-hop analysis loses."""
    app = AppBuilder("com.deep.chain")
    activity = app.activity("MainActivity")

    entry = activity.method("onClick", params=[("android.view.View", "v")])
    client = entry.new(CLIENT, "c")
    if configure_at_top:
        entry.call(client, "setReadWriteTimeout", 7000)
        entry.call(client, "setMaxRetries", 2)
    entry.call(Local("this"), "level1", client, cls=activity.name)
    entry.ret()
    activity.add(entry)

    l1 = activity.method("level1", params=[(CLIENT, "c1")])
    l1.call(Local("this"), "level2", Local("c1"), cls=activity.name)
    l1.ret()
    activity.add(l1)

    l2 = activity.method("level2", params=[(CLIENT, "c2")])
    l2.call(Local("c2"), "get", "http://x", cls=CLIENT, ret="r")
    l2.ret()
    activity.add(l2)
    return app.build()


class TestSCCOrdering:
    def test_engine_sccs_are_callee_first(self):
        apk = _deep_chain_app()
        engine = build_engine(apk)
        pos = engine.scc_position
        entry = ("com.deep.chain.MainActivity", "onClick", 1)
        l1 = ("com.deep.chain.MainActivity", "level1", 1)
        l2 = ("com.deep.chain.MainActivity", "level2", 1)
        assert pos[l2] < pos[l1] < pos[entry]

    def test_mutual_recursion_shares_an_scc(self):
        app = AppBuilder("com.rec")
        activity = app.activity("MainActivity")
        a = activity.method("pingA", params=[("java.lang.Object", "x")])
        a.call(Local("this"), "pingB", Local("x"), cls=activity.name)
        a.ret()
        activity.add(a)
        b = activity.method("pingB", params=[("java.lang.Object", "x")])
        b.call(Local("this"), "pingA", Local("x"), cls=activity.name)
        b.ret()
        activity.add(b)
        engine = build_engine(app.build())
        key_a = ("com.rec.MainActivity", "pingA", 1)
        key_b = ("com.rec.MainActivity", "pingB", 1)
        assert engine.scc_position[key_a] == engine.scc_position[key_b]


class TestParamsToReturn:
    def _app(self):
        app = AppBuilder("com.ptr")
        activity = app.activity("MainActivity")
        ident = activity.method(
            "ident", params=[("java.lang.Object", "x")],
            return_type="java.lang.Object",
        )
        ident.ret(Local("x"))
        activity.add(ident)

        wrap = activity.method(
            "wrap", params=[("java.lang.Object", "y")],
            return_type="java.lang.Object",
        )
        wrap.call(Local("this"), "ident", Local("y"), cls=activity.name, ret="z")
        wrap.ret(Local("z"))
        activity.add(wrap)

        fresh = activity.method(
            "fresh", params=[("java.lang.Object", "x")],
            return_type="java.lang.Object",
        )
        obj = fresh.new("java.lang.Object", "o")
        fresh.ret(obj)
        activity.add(fresh)

        echo = activity.method(
            "echo", params=[("java.lang.Object", "x")],
            return_type="java.lang.Object",
        )
        echo.call(Local("this"), "echo", Local("x"), cls=activity.name, ret="y")
        echo.ret(Local("y"))
        activity.add(echo)
        return app.build()

    def test_direct_return_of_param(self):
        engine = build_engine(self._app())
        assert engine.params_to_return(("com.ptr.MainActivity", "ident", 1)) == {0}

    def test_transfer_composes_through_callee(self):
        engine = build_engine(self._app())
        assert 0 in engine.params_to_return(("com.ptr.MainActivity", "wrap", 1))

    def test_allocation_is_a_fresh_value(self):
        engine = build_engine(self._app())
        assert engine.params_to_return(("com.ptr.MainActivity", "fresh", 1)) == set()

    def test_recursion_widens_to_top(self):
        engine = build_engine(self._app())
        result = engine.params_to_return(("com.ptr.MainActivity", "echo", 1))
        # ⊤: every operand of the cyclic call flows through, so the
        # parameter (and the receiver) must be in the transfer set.
        assert 0 in result
        assert RECEIVER in result
        assert engine.stats.widenings >= 1

    def test_memoized(self):
        engine = build_engine(self._app())
        key = ("com.ptr.MainActivity", "wrap", 1)
        engine.params_to_return(key)
        computed = engine.stats.params_to_return_computed
        engine.params_to_return(key)
        assert engine.stats.params_to_return_computed == computed
        assert engine.stats.params_to_return_hits >= 1


class TestConfigEffects:
    def _app(self):
        app = AppBuilder("com.fx")
        activity = app.activity("MainActivity")
        cfg = activity.method("configure", params=[(CLIENT, "c")])
        cfg.call(Local("c"), "setReadWriteTimeout", 5000, cls=CLIENT)
        cfg.ret()
        activity.add(cfg)

        outer = activity.method("prepare", params=[(CLIENT, "c")])
        outer.call(Local("this"), "configure", Local("c"), cls=activity.name)
        outer.ret()
        activity.add(outer)

        rec_a = activity.method("cfgA", params=[(CLIENT, "c")])
        rec_a.call(Local("this"), "cfgB", Local("c"), cls=activity.name)
        rec_a.ret()
        activity.add(rec_a)
        rec_b = activity.method("cfgB", params=[(CLIENT, "c")])
        rec_b.call(Local("this"), "cfgA", Local("c"), cls=activity.name)
        rec_b.ret()
        activity.add(rec_b)
        return app.build()

    def test_effect_recorded_with_resolved_value(self):
        engine = build_engine(self._app())
        effects = engine.config_effects(("com.fx.MainActivity", "configure", 1), 0)
        assert effects is not CONFIG_TOP
        assert len(effects) == 1
        assert effects[0].lib_key == "basichttp"
        assert effects[0].timeout_ms == 5000

    def test_effects_transitive_through_callee(self):
        engine = build_engine(self._app())
        effects = engine.config_effects(("com.fx.MainActivity", "prepare", 1), 0)
        assert effects is not CONFIG_TOP
        assert [e.timeout_ms for e in effects] == [5000]

    def test_recursive_cycle_returns_top(self):
        engine = build_engine(self._app())
        effects = engine.config_effects(("com.fx.MainActivity", "cfgA", 1), 0)
        assert effects is CONFIG_TOP

    def test_unrelated_position_is_empty(self):
        engine = build_engine(self._app())
        assert engine.config_effects(("com.fx.MainActivity", "configure", 1), 5) == ()


class TestBooleanFacts:
    def _app(self):
        app = AppBuilder("com.conn")
        activity = app.activity("MainActivity")
        check = activity.method("isOnline", return_type="boolean")
        cm = check.new("android.net.ConnectivityManager", "cm")
        check.call(cm, "getActiveNetworkInfo", ret="ni")
        check.ret(1)
        activity.add(check)

        mid = activity.method("guard")
        mid.call(Local("this"), "isOnline", cls=activity.name, ret="ok")
        mid.ret()
        activity.add(mid)

        top = activity.method("refresh")
        top.call(Local("this"), "guard", cls=activity.name)
        top.ret()
        activity.add(top)

        plain = activity.method("unrelated")
        plain.ret()
        activity.add(plain)
        return app.build()

    def test_connectivity_fact_is_transitive(self):
        engine = build_engine(self._app())
        assert engine.performs_connectivity_check(
            ("com.conn.MainActivity", "isOnline", 0)
        )
        assert engine.performs_connectivity_check(
            ("com.conn.MainActivity", "refresh", 0)
        )
        assert not engine.performs_connectivity_check(
            ("com.conn.MainActivity", "unrelated", 0)
        )

    def test_connectivity_methods_view(self):
        engine = build_engine(self._app())
        methods = engine.connectivity_methods()
        assert ("com.conn.MainActivity", "guard", 0) in methods
        assert ("com.conn.MainActivity", "unrelated", 0) not in methods

    def test_fact_map_computed_once(self):
        engine = build_engine(self._app())
        for _ in range(3):
            engine.performs_connectivity_check(("com.conn.MainActivity", "guard", 0))
            engine.notifies_ui(("com.conn.MainActivity", "guard", 0))
        assert engine.stats.bool_fact_passes == 2  # connectivity + ui


class TestSerialPrewarm:
    """The prewarm evaluates SCCs one at a time, callee-first: whatever
    order the SCC indices arrive in, every callee's fact is final before
    a caller reads it."""

    DEMANDS = [("connectivity", None), ("ui", None), ("handler", None)]

    def test_prewarm_matches_lazy_point_queries(self):
        apk = TestBooleanFacts()._app()
        warm = build_engine(apk)
        warm.prewarm_bool_facts(self.DEMANDS)
        lazy = build_engine(apk)
        for key in lazy.graph.methods:
            assert warm.performs_connectivity_check(
                key
            ) == lazy.performs_connectivity_check(key)
            assert warm.notifies_ui(key) == lazy.notifies_ui(key)
            assert warm.notifies_via_handler(key) == lazy.notifies_via_handler(key)
        # Each SCC is evaluated once per fact, either way.
        assert warm.stats.bool_fact_sccs == lazy.stats.bool_fact_sccs

    def test_caller_first_index_order_still_resolves_callees_first(self):
        from repro.dataflow.summaries import BOOL_FACT_SPECS

        engine = build_engine(TestBooleanFacts()._app())
        predicate, all_edge_kinds = BOOL_FACT_SPECS["connectivity"]
        state = engine._bool_state("connectivity", all_edge_kinds)
        engine._resolve_sccs(
            state, predicate, reversed(range(len(engine.sccs)))
        )
        # refresh -> guard -> isOnline: only a callee-first schedule
        # carries the fact two frames up.
        assert state.resolved[("com.conn.MainActivity", "refresh", 0)]
        assert not state.resolved[("com.conn.MainActivity", "unrelated", 0)]


class TestEngineCache:
    def test_repeat_scan_reuses_engine(self):
        apk = _deep_chain_app()
        checker = NChecker()
        checker.scan(apk)
        assert checker.sessions.misses == 1
        checker.scan(apk)
        assert checker.sessions.hits == 1
        assert checker.sessions.misses == 1

    def test_structural_change_invalidates(self):
        apk = _deep_chain_app()
        checker = NChecker()
        checker.scan(apk)
        # Simulate the patcher: insert a statement somewhere.
        from repro.ir.statements import NopStmt
        from repro.ir.transform import insert_statements

        method = next(iter(next(iter(apk.classes())).methods()))
        insert_statements(method, 0, [NopStmt()])
        checker.scan(apk)
        assert checker.sessions.misses == 2

    def test_fingerprint_stable_for_unchanged_app(self):
        apk = _deep_chain_app()
        assert apk_fingerprint(apk) == apk_fingerprint(apk)


class TestEndToEnd:
    def test_deep_config_chain_suppresses_false_alarms(self):
        """The config object is configured three frames above the request:
        the caller-chain climb resolves it, so nothing is reported."""
        apk = _deep_chain_app(configure_at_top=True)
        summary = NChecker().scan(apk)

        assert summary.count_of(DefectKind.MISSED_TIMEOUT) == 0
        assert summary.count_of(DefectKind.MISSED_RETRY) == 0

        info = summary.config_of(summary.requests[0])
        assert info.timeout_ms == 7000
        assert info.retries == 2
        assert not info.retries_from_default

    def test_unconfigured_deep_chain_still_warns(self):
        """The true positive stays when nothing configures the client
        anywhere on the chain."""
        apk = _deep_chain_app(configure_at_top=False)
        result = NChecker().scan(apk)
        assert result.count_of(DefectKind.MISSED_TIMEOUT) == 1
        assert result.count_of(DefectKind.MISSED_RETRY) == 1

