"""Seeded benchmark inputs and their ground truth.

Every input is drawn from ``repro.corpus.CorpusGenerator`` with the
workload seed, so the same seed yields byte-identical ``.apkt`` text and
the generator's ledger says which defects each app really has.  The
program under test only ever sees the ``.apkt`` text.

Findings are compared with the ledger by (class, method, kind).  The
ledger names the method that issues each request; a few finding kinds
are reported one hop away from it (a retry loop in the method that calls
the request's wrapper, a missing response check in the callback class the
request registers).  :class:`BenchApp` maps such a finding back to the
request's method through the app's own call and allocation sites before
comparing, and the comparison is then exact: one finding too many or too
few fails the operation.

The ledger is corrected in one place, where it describes code the
generator never writes: the OkHttp emitter ignores a request's
``retry_loop`` and ``http_post`` fields, so an OkHttp request is always
emitted as a plain GET with no custom retry loop.  Its expected defects
are recomputed for the request as emitted (:func:`ledger_kinds`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.app import APK, Manifest, dumps_apk
from repro.corpus import CorpusGenerator, CorpusProfile, RetryLoopShape
from repro.corpus.snippets import expected_defects
from repro.ir.statements import AssignStmt
from repro.ir.values import NewExpr

Key = tuple[str, str, str]


@dataclass
class BenchApp:
    """One input app: its ``.apkt`` text plus the ledger to check against."""

    package: str
    text: str
    statements: int
    #: (class, method, kind) triples the ledger expects.
    expected: frozenset
    #: (class, method) of a finding site -> request methods it may stand for.
    links: dict = field(repr=False)

    def mismatch(self, reported: list[Key]) -> str:
        """'' when the reported findings equal the ledger, else a short
        description of the difference."""
        got = set()
        for cls, method, kind in reported:
            key = (cls, method, kind)
            if key not in self.expected:
                hosts = [
                    host for host in self.links.get((cls, method), ())
                    if (*host, kind) in self.expected
                ]
                if len(hosts) == 1:
                    key = (*hosts[0], kind)
            got.add(key)
        if got == self.expected:
            return ""
        extra = sorted(got - self.expected)[:3]
        missing = sorted(self.expected - got)[:3]
        return f"{self.package}: unexpected {extra}, missing {missing}"


def _links(apk: APK, hosts: set[tuple[str, str]]) -> dict:
    """Finding site -> request methods one call or allocation away."""
    links: dict = {}
    methods_by_class: dict = {}
    for method in apk.methods():
        methods_by_class.setdefault(method.class_name, []).append(method.name)
    for method in apk.methods():
        here = (method.class_name, method.name)
        for stmt in method.statements:
            invoke = stmt.invoke()
            if invoke is not None:
                callee = (invoke.sig.class_name, invoke.sig.name)
                if callee in hosts and callee != here:
                    links.setdefault(here, set()).add(callee)
            if here in hosts and isinstance(stmt, AssignStmt) and isinstance(
                stmt.value, NewExpr
            ):
                for name in methods_by_class.get(stmt.value.class_name, ()):
                    site = (stmt.value.class_name, name)
                    if site != here:
                        links.setdefault(site, set()).add(here)
    return links


def ledger_kinds(request) -> set:
    """The defects of ``request`` as the generator emitted it.

    An OkHttp request that asked for a retry loop or a POST is emitted
    without either; its defects are those of the emitted GET, under the
    placement (user-initiated or background) that reproduces the ledger's
    own entry.  Every other request keeps its ledger entry."""
    spec = request.spec
    if spec.library != "okhttp" or (
        spec.retry_loop is RetryLoopShape.NONE and not spec.http_post
    ):
        return request.expected
    emitted = replace(spec, retry_loop=RetryLoopShape.NONE, http_post=False)
    candidates = {
        frozenset(expected_defects(emitted, user, not user))
        for user in (True, False)
        if expected_defects(spec, user, not user) == request.expected
    }
    if len(candidates) != 1:
        return request.expected
    return set(candidates.pop())


def bench_app(apk: APK, truths: list) -> BenchApp:
    requests = [request for truth in truths for request in truth.requests]
    expected = frozenset(
        (r.host_class, r.host_method, kind.value)
        for r in requests
        for kind in ledger_kinds(r)
    )
    hosts = {(r.host_class, r.host_method) for r in requests}
    return BenchApp(
        package=apk.package,
        text=dumps_apk(apk),
        statements=apk.stats()["statements"],
        expected=expected,
        links=_links(apk, hosts),
    )


def generator(seed: int) -> CorpusGenerator:
    """The paper-profile (285-app) generator, reseeded with ``seed``."""
    return CorpusGenerator(CorpusProfile(seed=seed))


def corpus(seed: int) -> list[BenchApp]:
    """The whole 285-app paper-profile corpus for ``seed``."""
    return [bench_app(apk, [truth]) for apk, truth in generator(seed).iter_apps()]


def sized_apps(seed: int, count: int, low: int, high: int) -> list[BenchApp]:
    """The first ``count`` apps (by generator index) whose statement count
    lies in ``[low, high]``."""
    gen = generator(seed)
    apps: list[BenchApp] = []
    index = 0
    while len(apps) < count:
        apk, truth = gen.generate_app(index)
        index += 1
        if low <= apk.stats()["statements"] <= high:
            apps.append(bench_app(apk, [truth]))
    return apps


def merged_app(seed: int, statements: int) -> BenchApp:
    """One large app: consecutive corpus apps merged under one manifest
    until the merged app holds at least ``statements`` statements."""
    gen = generator(seed)
    manifest = Manifest(f"com.corpus.merged{seed}")
    classes = []
    truths = []
    total = 0
    index = 0
    while total < statements:
        apk, truth = gen.generate_app(index)
        index += 1
        for attr in ("activities", "services", "receivers", "providers"):
            getattr(manifest, attr).extend(getattr(apk.manifest, attr))
        for permission in apk.manifest.permissions:
            if permission not in manifest.permissions:
                manifest.permissions.append(permission)
        classes.extend(apk.classes())
        truths.append(truth)
        total += apk.stats()["statements"]
    return bench_app(APK(manifest, classes), truths)


def digest(apps: list[BenchApp]) -> str:
    """Content digest of an input set (the reproducibility self-check)."""
    h = hashlib.sha256()
    for app in apps:
        h.update(app.text.encode("utf-8"))
    return h.hexdigest()[:16]


def json_keys(document: list) -> list[Key]:
    """(class, method, kind) of every finding in a ``scan --json`` (or
    service ``/findings``) document."""
    keys = []
    for app in document:
        for finding in app["findings"]:
            where = finding["location"].rsplit(":", 1)[0]
            cls, method = where.rsplit(".", 1)
            keys.append((cls, method, finding["kind"]))
    return keys


def sarif_keys(log: dict) -> dict[str, list[Key]]:
    """Artifact URI -> (class, method, kind) of every SARIF result."""
    out: dict[str, list[Key]] = {}
    for run in log["runs"]:
        for result in run["results"]:
            location = result["locations"][0]
            uri = location["physicalLocation"]["artifactLocation"]["uri"]
            name = location["logicalLocations"][0]["fullyQualifiedName"]
            cls, method = name.rsplit(".", 1)
            out.setdefault(uri, []).append((cls, method, result["ruleId"]))
    return out
