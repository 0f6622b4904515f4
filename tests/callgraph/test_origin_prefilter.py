"""Oracle for the call graph's origin prefilter.

``CallGraph`` skips the allocation-site trace of a local (and the
constructor-argument look-through) in a method that cannot name an
application class, because every edge rule drops library-class origins.
Skipping may never change an edge: on every input below, the edges
``(caller, stmt_index, callee, kind)``, in order, must equal the edges
built with the prefilter forced off.
"""

from pathlib import Path

import pytest

from repro.app import APK, Manifest, load_apk
from repro.callgraph import (
    CallGraph,
    EDGE_ASYNC_TASK,
    EDGE_LIB_CALLBACK,
    EDGE_RUNNABLE,
)
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.corpus.lifecycle import build_lifecycle_corpus
from repro.corpus.opensource import build_opensource_corpus
from repro.ir import ClassBuilder, Local
from repro.libmodels import default_registry
from repro.pipeline import CALLGRAPH, ArtifactStore
from tests.callgraph.test_chain_scaling import merged_app

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "apps"
THIS = Local("this")


def edges(apk: APK) -> list[tuple]:
    graph = ArtifactStore(apk, default_registry()).get(CALLGRAPH)
    return [
        (edge.caller, edge.stmt_index, edge.callee, edge.kind)
        for caller_edges in graph.out_edges.values()
        for edge in caller_edges
    ]


def unfiltered_edges(apk: APK, monkeypatch) -> list[tuple]:
    """The edges with every method treated as naming an app class."""
    with monkeypatch.context() as patch:
        patch.setattr(CallGraph, "_scope_of", lambda self, key, method: (True, True))
        return edges(apk)


def assert_same_edges(apk: APK, monkeypatch) -> list[tuple]:
    found = edges(apk)
    assert found == unfiltered_edges(apk, monkeypatch), apk.package
    return found


# -- hand-written shapes -----------------------------------------------------


def listener_passed_as_this() -> APK:
    """``new StringRequest(0, url, this, this)`` in a method whose only
    allocations are library classes: the listener is the activity."""
    main = ClassBuilder(
        "com.x.Main",
        "android.app.Activity",
        interfaces=[
            "com.android.volley.Response$Listener",
            "com.android.volley.Response$ErrorListener",
        ],
    )
    b = main.method("onClick", params=[("android.view.View", "v")])
    queue = b.new("com.android.volley.RequestQueue", "q")
    request = b.new(
        "com.android.volley.toolbox.StringRequest",
        "req",
        args=[0, "http://x", THIS, THIS],
    )
    b.call(queue, "add", request)
    b.ret()
    main.add(b)
    b = main.method("onResponse", params=[("java.lang.String", "body")])
    b.ret()
    main.add(b)
    b = main.method(
        "onErrorResponse", params=[("com.android.volley.VolleyError", "e")]
    )
    b.ret()
    main.add(b)
    return APK(Manifest("com.x", activities=["com.x.Main"]), [main.build()])


def task_as_parameter() -> APK:
    """An AsyncTask that arrives as a parameter (no allocation in the
    method), and one that arrives as an invoke's return value."""
    task = ClassBuilder("com.x.Task", "android.os.AsyncTask")
    for name in ("doInBackground", "onPostExecute"):
        b = task.method(name)
        b.ret()
        task.add(b)
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    b = main.method("onClick", params=[("android.view.View", "v")])
    t = b.new("com.x.Task", "t")
    b.call(THIS, "launch", t, cls="com.x.Main")
    b.call(THIS, "relaunch", cls="com.x.Main")
    b.ret()
    main.add(b)
    b = main.method("launch", params=[("com.x.Task", "task")])
    b.call(Local("task"), "execute", cls="?")
    b.ret()
    main.add(b)
    b = main.method("make", return_type="com.x.Task")
    made = b.new("com.x.Task", "made")
    b.ret(made)
    main.add(b)
    b = main.method("relaunch")
    again = b.call(
        THIS, "make", ret="again", cls="com.x.Main", return_type="com.x.Task"
    )
    b.call(again, "execute", cls="?")
    b.ret()
    main.add(b)
    return APK(
        Manifest("com.x", activities=["com.x.Main"]), [main.build(), task.build()]
    )


def runnable_in_field() -> APK:
    """A Runnable stored in a field by one method and posted to a Handler
    by another, which allocates only the (library) Handler."""
    job = ClassBuilder("com.x.Job", interfaces=["java.lang.Runnable"])
    b = job.method("run")
    b.ret()
    job.add(b)
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    main.add_field("job", "com.x.Job")
    b = main.method("onCreate", params=[("android.os.Bundle", "state")])
    created = b.new("com.x.Job", "created")
    b.set_field(THIS, "com.x.Main", "job", created)
    b.ret()
    main.add(b)
    b = main.method("onClick", params=[("android.view.View", "v")])
    handler = b.new("android.os.Handler", "h")
    held = b.get_field(THIS, "com.x.Main", "job", "held")
    b.call(handler, "post", held, cls="android.os.Handler")
    b.ret()
    main.add(b)
    return APK(
        Manifest("com.x", activities=["com.x.Main"]), [main.build(), job.build()]
    )


def test_listener_passed_as_this(monkeypatch):
    found = assert_same_edges(listener_passed_as_this(), monkeypatch)
    callbacks = {e[2] for e in found if e[3] == EDGE_LIB_CALLBACK}
    assert ("com.x.Main", "onResponse", 1) in callbacks
    assert ("com.x.Main", "onErrorResponse", 1) in callbacks


def test_task_as_parameter(monkeypatch):
    found = assert_same_edges(task_as_parameter(), monkeypatch)
    callers = {e[0][1] for e in found if e[3] == EDGE_ASYNC_TASK}
    assert callers == {"launch", "relaunch"}


def test_runnable_in_field(monkeypatch):
    found = assert_same_edges(runnable_in_field(), monkeypatch)
    assert (
        ("com.x.Main", "onClick", 1), 3, ("com.x.Job", "run", 0), EDGE_RUNNABLE
    ) in found


# -- corpora -------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.apkt")), ids=lambda path: path.stem
)
def test_example_apps(path, monkeypatch):
    assert_same_edges(load_apk(path), monkeypatch)


def test_golden_corpora(monkeypatch):
    corpus = CorpusGenerator(PAPER_PROFILE.scaled(6)).generate()
    for apk, _truth in corpus + build_opensource_corpus():
        assert_same_edges(apk, monkeypatch)


def test_lifecycle_corpus(monkeypatch):
    for apk, _truth in build_lifecycle_corpus():
        assert_same_edges(apk, monkeypatch)


@pytest.mark.parametrize("apps", (8, 32))
def test_merged_apps(apps, monkeypatch):
    assert_same_edges(merged_app(apps), monkeypatch)
