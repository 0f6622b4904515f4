"""Call-chain extraction tests."""

from repro.app import APK, Manifest
from repro.callgraph import chains_to_method
from repro.ir import ClassBuilder, Local
from repro.libmodels import default_registry
from repro.pipeline import CALLGRAPH, ArtifactStore
from repro.pipeline.cachestore.codec import decode_entry, encode_entry


def _layered_app():
    """onClick -> level1 -> level2; onStartCommand -> level2."""
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    b = main.method("onClick", params=[("android.view.View", "v")])
    b.call(Local("this"), "level1", cls="com.x.Main")
    b.ret()
    main.add(b)
    b = main.method("level1")
    api = b.new("com.x.Api", "api")
    b.call(api, "level2")
    b.ret()
    main.add(b)

    api = ClassBuilder("com.x.Api")
    b = api.method("level2")
    b.ret()
    api.add(b)

    svc = ClassBuilder("com.x.Sync", "android.app.Service")
    b = svc.method(
        "onStartCommand",
        params=[("android.content.Intent", "i"), ("int", "f")],
        return_type="int",
    )
    a = b.new("com.x.Api", "a")
    b.call(a, "level2")
    b.ret(0)
    svc.add(b)

    manifest = Manifest("com.x", activities=["com.x.Main"], services=["com.x.Sync"])
    apk = APK(manifest, [main.build(), api.build(), svc.build()])
    return ArtifactStore(apk, default_registry()).get(CALLGRAPH)


class TestChains:
    def test_chains_reach_target_from_both_entries(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0))
        entry_names = {c.entry.key[1] for c in chains}
        assert "onClick" in entry_names
        assert "onStartCommand" in entry_names

    def test_chain_frames_are_ordered(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0))
        chain = next(c for c in chains if c.entry.key[1] == "onClick")
        frames = chain.frames()
        assert frames[0][0] == ("com.x.Main", "onClick", 1)
        assert chain.edges[-1].callee == ("com.x.Api", "level2", 0)

    def test_entry_equal_to_target(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Main", "onClick", 1))
        assert any(len(c) == 0 for c in chains)

    def test_entries_reaching(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0))
        kinds = {(c.entry.key[1], c.entry.background) for c in chains}
        assert ("onClick", False) in kinds
        assert ("onStartCommand", True) in kinds

    def test_unreachable_method_has_no_chains(self):
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        b.ret()
        main.add(b)
        b = main.method("orphan")
        b.ret()
        main.add(b)
        apk = APK(Manifest("com.x", activities=["com.x.Main"]), [main.build()])
        graph = ArtifactStore(apk, default_registry()).get(CALLGRAPH)
        assert chains_to_method(graph, ("com.x.Main", "orphan", 0)) == []

    def test_unpickled_graph_rebuilds_entry_index(self):
        graph = _layered_app()
        target = ("com.x.Api", "level2", 0)
        chains = chains_to_method(graph, target)
        # Round-trip through the disk-cache codec, which pickles the
        # graph's store (its ``cache``) as a live reference.
        blob = encode_entry(graph.cache, {CALLGRAPH.name: graph})
        loaded = decode_entry(blob, graph.cache)[CALLGRAPH.name]
        assert "_entry_index" not in loaded.__dict__
        assert chains_to_method(loaded, target) == chains

    def test_max_chains_respected(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0), max_chains=1)
        assert len(chains) == 1


def _self_loop_app(loop_in: str):
    """onClick -> a -> t, with a self-call on ``loop_in`` (onClick or a)."""
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    calls = {"onClick": ["a"], "a": ["t"], "t": []}
    calls[loop_in].insert(0, loop_in)
    for name, callees in calls.items():
        b = main.method(name)
        for callee in callees:
            b.call(Local("this"), callee, cls="com.x.Main")
        b.ret()
        main.add(b)
    apk = APK(Manifest("com.x", activities=["com.x.Main"]), [main.build()])
    return ArtifactStore(apk, default_registry()).get(CALLGRAPH)


class TestCycleGuard:
    """A chain never re-enters the method being expanded: a self-call
    yields no second, longer chain through the loop."""

    def test_self_recursive_helper_is_not_reentered(self):
        graph = _self_loop_app("a")
        chains = chains_to_method(graph, ("com.x.Main", "t", 0))
        assert [[(e.caller[1], e.callee[1]) for e in c.edges] for c in chains] == [
            [("onClick", "a"), ("a", "t")]
        ]

    def test_self_recursive_entry_is_not_reentered(self):
        graph = _self_loop_app("onClick")
        chains = chains_to_method(graph, ("com.x.Main", "t", 0))
        assert [[(e.caller[1], e.callee[1]) for e in c.edges] for c in chains] == [
            [("onClick", "a"), ("a", "t")]
        ]
