"""Call-chain extraction does per-request work that stays flat as the app
grows: the search covers the request's caller cone, not every entry
point's reachable graph."""

from repro.app import APK, Manifest
from repro.callgraph import CallGraph, chains_to_method
from repro.callgraph.entrypoints import method_key
from repro.corpus import CorpusGenerator, CorpusProfile
from repro.libmodels import default_registry

SIZES = (8, 32, 128)


def merged_app(apps: int, seed: int = 7) -> APK:
    """The first ``apps`` paper-profile corpus apps under one manifest."""
    gen = CorpusGenerator(CorpusProfile(seed=seed))
    manifest = Manifest(f"com.corpus.merged{seed}")
    classes = []
    for index in range(apps):
        apk, _truth = gen.generate_app(index)
        for attr in ("activities", "services", "receivers", "providers"):
            getattr(manifest, attr).extend(getattr(apk.manifest, attr))
        for permission in apk.manifest.permissions:
            if permission not in manifest.permissions:
                manifest.permissions.append(permission)
        classes.extend(apk.classes())
    return APK(manifest, classes)


def callees_per_request(apps: int, monkeypatch) -> float:
    """Mean ``CallGraph.callees`` calls one request's chain search makes."""
    apk = merged_app(apps)
    registry = default_registry()
    graph = CallGraph(apk, registry)
    requests = [
        method_key(method)
        for method in apk.methods()
        for _idx, invoke in method.invoke_sites()
        if registry.find_target(invoke) is not None
    ]
    calls = 0
    callees = CallGraph.callees

    def counting(self, key):
        nonlocal calls
        calls += 1
        return callees(self, key)

    with monkeypatch.context() as patch:
        patch.setattr(CallGraph, "callees", counting)
        for key in requests:
            chains_to_method(graph, key)
    return calls / len(requests)


def test_chain_work_per_request_is_flat_in_app_size(monkeypatch):
    work = [callees_per_request(apps, monkeypatch) for apps in SIZES]
    for smaller, larger in zip(work, work[1:]):
        assert larger <= 1.5 * smaller, dict(zip(SIZES, work))

