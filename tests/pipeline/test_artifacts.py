"""Artifact store: build-on-demand and hit counting."""

import pytest

from repro.core import NChecker
from repro.corpus.snippets import RequestSpec
from repro.libmodels import default_registry
from repro.obs import use_metrics
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


@pytest.fixture(autouse=True)
def counts():
    """The metrics registry each test's store counts into."""
    with use_metrics() as registry:
        yield registry


def builds_of(counts, kind: str) -> int:
    return counts.counter_value(f"artifact.{kind}.builds")


def hits_of(counts, kind: str) -> int:
    return counts.counter_value(f"artifact.{kind}.hits")


class TestBuildOnDemand:
    def test_nothing_built_up_front(self, counts):
        _, store = make_store()
        assert store.peek(CALLGRAPH) is None
        assert counts.snapshot()["counters"] == {}

    def test_get_builds_dependencies_first(self, counts):
        _, store = make_store()
        store.get(REQUESTS)
        assert builds_of(counts, "callgraph") == 1
        assert builds_of(counts, "requests") == 1

    def test_repeat_get_is_a_hit(self, counts):
        _, store = make_store()
        first = store.get(CALLGRAPH)
        second = store.get(CALLGRAPH)
        assert first is second
        assert builds_of(counts, "callgraph") == 1
        assert hits_of(counts, "callgraph") == 1

    def test_retry_loops_pull_requests(self, counts):
        _, store = make_store(RequestSpec(library="basichttp"))
        store.get(RETRY_LOOPS)
        assert builds_of(counts, "requests") == 1

    def test_all_artifact_keys_registered(self):
        for key in (CALLGRAPH, REQUESTS, SUMMARIES, RETRY_LOOPS, ICC_MODEL):
            assert ARTIFACTS[key.name] is key
            for dep in key.deps:
                assert dep in ARTIFACTS

    def test_method_artifacts_counted(self, counts):
        apk, store = make_store()
        method = next(iter(apk.methods()))
        store.cfg(method)
        store.cfg(method)
        store.defuse(method)  # def-use pulls the CFG: another hit
        assert builds_of(counts, "cfg") == 1
        assert hits_of(counts, "cfg") == 2
        assert builds_of(counts, "defuse") == 1


class TestCountsLandInTheActiveRegistry:
    def test_a_warm_rescan_counts_into_the_registry_active_now(self):
        # The checker's session cache hands the second scan the store the
        # first one built: its hits belong to the registry active during
        # the second scan, not to the one active when the store was made.
        # (The warm scan reaches the call graph through the context it
        # keeps, so the artifacts it asks the store for again are the
        # summaries, the requests and the retry loops.)
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker()
        with use_metrics() as first:
            checker.scan(apk)
        with use_metrics() as second:
            checker.scan(apk)
        assert builds_of(first, "callgraph") == 1
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert builds_of(second, kind) == 0
        for kind in ("summaries", "requests", "retry-loops"):
            assert hits_of(second, kind) == 1
