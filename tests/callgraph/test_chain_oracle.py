"""Equivalence oracle for call-chain extraction.

``chains_to_method`` prunes its search to the methods that can reach the
target.  Pruning may only drop branches that never yield a chain, so on
any call graph it must return exactly what the plain DFS from every
entry point returns: the same chains, in the same order, truncated at
the same ``max_chains`` / ``max_depth`` points.  The reference below is
that plain DFS, with the same cycle guard.
"""

from hypothesis import given, settings, strategies as st

from repro.app import APK, Manifest
from repro.callgraph import CallChain, CallGraph, chains_to_method
from repro.ir import ClassBuilder, Local
from repro.libmodels import default_registry

CLASS = "com.x.Main"
#: Activity lifecycle and UI-callback names (all arity 0): entry points.
ENTRY_NAMES = ("onCreate", "onResume", "onRefresh", "onPause")
CAPS = ((32, 24), (32, 3), (2, 24), (1, 1))


def reference_chains(graph, target, max_chains=32, max_depth=24):
    """The unpruned DFS from every entry point over the whole graph."""
    chains = []
    for entry in graph.entry_points:
        if entry.key not in graph.methods:
            continue
        if entry.key == target:
            chains.append(CallChain(entry, ()))
            continue
        stack = [(entry.key, ())]
        while stack and len(chains) < max_chains:
            node, path = stack.pop()
            if len(path) >= max_depth:
                continue
            for edge in graph.callees(node):
                if edge.callee == node or any(
                    e.caller == edge.callee for e in path
                ):
                    continue  # avoid cycles
                new_path = path + (edge,)
                if edge.callee == target:
                    chains.append(CallChain(entry, new_path))
                    if len(chains) >= max_chains:
                        break
                else:
                    stack.append((edge.callee, new_path))
    return chains


def _method(cls: ClassBuilder, name: str, calls: list[str]):
    b = cls.method(name)
    for callee in calls:
        b.call(Local("this"), callee, cls=CLASS)
    b.ret()
    return cls.add(b)


@st.composite
def call_graphs(draw):
    """An Activity with lifecycle/UI entry points and N helpers; every
    method calls random methods of the class (``this.mX()``), so the graph
    has cycles, self-calls, entry-to-entry calls and unreachable islands."""
    helpers = [f"m{i}" for i in range(draw(st.integers(0, 9)))]
    names = list(ENTRY_NAMES) + helpers
    main = ClassBuilder(CLASS, "android.app.Activity")
    for name in names:
        calls = draw(st.lists(st.sampled_from(names), max_size=4))
        _method(main, name, calls)
    apk = APK(Manifest("com.x", activities=[CLASS]), [main.build()])
    return CallGraph(apk, default_registry()), names


def _assert_equivalent(graph: CallGraph) -> None:
    for target in graph.methods:
        for max_chains, max_depth in CAPS:
            expected = reference_chains(graph, target, max_chains, max_depth)
            got = chains_to_method(graph, target, max_chains, max_depth)
            assert got == expected, (target, max_chains, max_depth)


class TestChainOracle:
    @settings(max_examples=150, deadline=None)
    @given(call_graphs())
    def test_pruned_chains_equal_reference(self, drawn):
        graph, _names = drawn
        _assert_equivalent(graph)

    @settings(max_examples=40, deadline=None)
    @given(call_graphs(), st.data())
    def test_equal_after_update_adds_a_method(self, drawn, data):
        graph, names = drawn
        _assert_equivalent(graph)
        # A new entry point (``onStart``) and a new helper it calls: a
        # graph built over the mutated app sees both.
        cls = graph.apk.get_class(CLASS)
        helper_calls = data.draw(st.lists(st.sampled_from(names), max_size=3))
        start_calls = data.draw(st.lists(st.sampled_from(names), max_size=3))
        builder = ClassBuilder(CLASS, "android.app.Activity")
        cls.add_method(_method(builder, "mNew", helper_calls))
        cls.add_method(_method(builder, "onStart", ["mNew"] + start_calls))
        graph = CallGraph(graph.apk, default_registry())
        assert (CLASS, "onStart", 0) in {e.key for e in graph.entry_points}
        _assert_equivalent(graph)
