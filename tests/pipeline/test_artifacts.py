"""Artifact store: build-on-demand and hit counting."""

from repro.corpus.snippets import RequestSpec
from repro.libmodels import default_registry
from repro.pipeline import (
    ARTIFACTS,
    CALLGRAPH,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    ArtifactStore,
)

from tests.conftest import single_request_app


def make_store(spec=None):
    apk, _ = single_request_app(spec or RequestSpec())
    return apk, ArtifactStore(apk, default_registry())


class TestBuildOnDemand:
    def test_nothing_built_up_front(self):
        _, store = make_store()
        assert store.peek(CALLGRAPH) is None
        assert store.counters.builds == {}

    def test_get_builds_dependencies_first(self):
        _, store = make_store()
        store.get(REQUESTS)
        assert store.counters.builds_of("callgraph") == 1
        assert store.counters.builds_of("requests") == 1

    def test_repeat_get_is_a_hit(self):
        _, store = make_store()
        first = store.get(CALLGRAPH)
        second = store.get(CALLGRAPH)
        assert first is second
        assert store.counters.builds_of("callgraph") == 1
        assert store.counters.hits_of("callgraph") == 1

    def test_retry_loops_pull_requests(self):
        _, store = make_store(RequestSpec(library="basichttp"))
        store.get(RETRY_LOOPS)
        assert store.counters.builds_of("requests") == 1

    def test_all_artifact_keys_registered(self):
        for key in (CALLGRAPH, REQUESTS, SUMMARIES, RETRY_LOOPS, ICC_MODEL):
            assert ARTIFACTS[key.name] is key
            for dep in key.deps:
                assert dep in ARTIFACTS

    def test_method_artifacts_counted(self):
        apk, store = make_store()
        method = next(iter(apk.methods()))
        store.cfg(method)
        store.cfg(method)
        store.defuse(method)  # def-use pulls the CFG: another hit
        assert store.counters.builds_of("cfg") == 1
        assert store.counters.hits_of("cfg") == 2
        assert store.counters.builds_of("defuse") == 1
