"""Conformance suite for the cache's local directory.

A battery of tests runs against :class:`LocalDirBackend` so the
contract documented in :mod:`repro.pipeline.cachestore.local` (never
raising, atomic publication, corruption-is-a-miss, gc grace) is
enforced, not aspirational.  On top of that battery:

* scan-level tests proving a warm re-scan does **zero** app-scoped
  builds, with hits counted under ``cache.local.*``;
* the write shape: one entry file per app, written in one pass and
  rewritten only when the scan built a kind the entry lacks;
* format compatibility: ``LocalDirBackend`` reads a cache laid out by
  the pinned entry-path formula, and the entry header is pinned
  byte-for-byte.
"""

import hashlib
import pickle
import struct
from pathlib import Path

import pytest

from repro.app.loader import dumps_apk, loads_apk
from repro.callgraph.entrypoints import method_key
from repro.cli import main
from repro.core import NChecker
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from repro.corpus.snippets import RequestSpec
from repro.libmodels import default_registry
from repro.obs import use_metrics
from repro.pipeline.artifacts import CALLGRAPH, SUMMARIES, ArtifactStore
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    CacheStore,
    EntryKey,
    LocalDirBackend,
    app_content_fingerprint,
    encode_entry,
    entry_digest,
    registry_fingerprint,
)
from tests.conftest import single_request_app

EXAMPLE_APPS = sorted(
    str(p)
    for p in (Path(__file__).resolve().parents[2] / "examples" / "apps").glob(
        "*.apkt"
    )
)

APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")
PERSISTED_KINDS = ("callgraph", "summaries", "requests", "retry-loops")
@pytest.fixture(params=["local"])
def backend(tmp_path) -> LocalDirBackend:
    """A fresh local cache directory (the ``local`` id keeps test names
    stable)."""
    return LocalDirBackend(tmp_path / "cache")


def key(app_fp="a" * 40, digest="0123456789abcdef") -> EntryKey:
    return EntryKey(app_fp, digest)


def unique_keys(backend) -> set[EntryKey]:
    return {info.key for info in backend.list_entries()}


def fresh_apk():
    apk, _ = single_request_app(RequestSpec())
    return apk


def finding_sigs(result) -> list[tuple]:
    return [
        (f.kind, f.method_key, f.stmt_index, f.message) for f in result.findings
    ]


def scan_with(backend, apk=None):
    """One fresh-process-equivalent scan against a live backend object
    (``None``: no cache); returns the result, the session and the
    metrics registry the scan counted into."""
    session = NChecker().open_session(apk if apk is not None else fresh_apk())
    session.artifact_cache = CacheStore(backend) if backend is not None else None
    with use_metrics() as counts:
        result = session.scan()
    return result, session, counts


def builds(counts, kind: str) -> int:
    return counts.counter_value(f"artifact.{kind}.builds")


def app_builds(counts) -> dict[str, int]:
    return {kind: builds(counts, kind) for kind in APP_KINDS}


# ---------------------------------------------------------------------------
# The contract battery.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    def test_get_absent_is_none(self, backend):
        assert backend.get(key()) is None

    def test_put_get_round_trip(self, backend):
        k = key()
        assert backend.put(k, b"payload") is True
        assert backend.get(k) == b"payload"

    def test_overwrite_replaces(self, backend):
        k = key()
        backend.put(k, b"old")
        backend.put(k, b"new-and-longer")
        assert backend.get(k) == b"new-and-longer"
        assert unique_keys(backend) == {k}
        assert all(
            info.size == len(b"new-and-longer") for info in backend.list_entries()
        )

    def test_delete_drops_every_copy(self, backend):
        k = key()
        backend.put(k, b"x")
        assert backend.delete(k) is True
        assert backend.get(k) is None
        assert backend.delete(k) is False  # idempotent, best-effort

    def test_distinct_digests_coexist(self, backend):
        """Two entries differing only in digest (same app under two
        library registries) must never collide."""
        k1 = key(digest="1111111111111111")
        k2 = key(digest="2222222222222222")
        backend.put(k1, b"one")
        backend.put(k2, b"two")
        assert backend.get(k1) == b"one"
        assert backend.get(k2) == b"two"

    def test_list_entries_and_stats_agree(self, backend):
        keys = [
            key(digest="d1" * 8),
            key(digest="d2" * 8),
            key(app_fp="b" * 40, digest="d3" * 8),
        ]
        for k in keys:
            backend.put(k, b"abcdef")
        entries = backend.list_entries()
        assert unique_keys(backend) == set(keys)
        stats = backend.stats()
        assert stats.entries == len(entries)
        assert stats.total_bytes == sum(info.size for info in entries)
        assert stats.apps == 2
        assert "3 entries for 2 app(s)" in stats.render()

    def test_gc_spares_entries_inside_the_grace_window(self, backend):
        backend.put(key(), b"fresh")
        removed, freed = backend.gc(0)  # default grace: just-written survives
        assert (removed, freed) == (0, 0)
        assert backend.get(key()) is not None

    def test_gc_without_grace_enforces_the_budget(self, backend):
        for i in range(3):
            backend.put(key(digest=f"{i:016d}"), b"x" * 10)
        removed, freed = backend.gc(0, grace_seconds=0)
        assert removed == 3
        assert freed == 3 * 10
        assert backend.list_entries() == []

    def test_gc_noop_when_under_budget(self, backend):
        backend.put(key(), b"small")
        assert backend.gc(1 << 30, grace_seconds=0) == (0, 0)
        assert backend.get(key()) is not None

    def test_clear_empties_everything(self, backend):
        for i in range(3):
            backend.put(key(digest=f"{i:016d}"), b"x")
        assert backend.clear() == 3
        assert backend.list_entries() == []
        assert backend.stats().entries == 0

    def test_clear_on_empty_backend(self, backend):
        assert backend.clear() == 0


# ---------------------------------------------------------------------------
# Local-backend specifics: atomic publication and I/O-failure behaviour.
# ---------------------------------------------------------------------------


class TestLocalBackendEdgeCases:
    def test_put_leaves_no_temp_files(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        for i in range(5):
            backend.put(key(digest=f"{i:016d}"), b"payload")
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_put_failure_is_a_skipped_write_not_an_exception(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("in the way")
        backend = LocalDirBackend(blocker)  # root is a file: every mkdir fails
        assert backend.put(key(), b"x") is False
        assert backend.get(key()) is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        k = key()
        # A directory squatting on the entry path: read_bytes -> OSError.
        backend.entry_path(k).mkdir(parents=True)
        assert backend.get(k) is None

    def test_stale_v2_tree_is_counted_and_collected(self, tmp_path):
        """Format 2's per-kind files are never read, but stats, gc and
        clear still see them, so an old tree can be collected."""
        backend = LocalDirBackend(tmp_path / "cache")
        backend.put(key(), b"current")
        stale = (tmp_path / "cache" / "v2" / "bb" / ("b" * 40)
                 / "callgraph-0123456789abcdef.bin")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"old")
        assert {info.key for info in backend.list_entries()} == {
            key(), key(app_fp="b" * 40)
        }
        assert backend.stats().apps == 2
        assert backend.clear() == 2
        assert not (tmp_path / "cache" / "v2").exists()

    def test_stats_on_missing_root(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "never-created")
        assert backend.stats().entries == 0
        assert backend.gc(0, grace_seconds=0) == (0, 0)
        assert backend.clear() == 0


# ---------------------------------------------------------------------------
# Scan-level behaviour: build-free warm re-scans with correctly attributed
# telemetry, and corruption degrades to a rebuild.
# ---------------------------------------------------------------------------


class TestWarmScanEveryBackend:
    def test_warm_rescan_is_build_free(self, backend):
        apk = fresh_apk()
        cold_result, _, cold_counts = scan_with(backend, apk)
        assert builds(cold_counts, "callgraph") == 1

        warm_result, _, warm_counts = scan_with(
            backend, loads_apk(dumps_apk(apk))
        )
        assert app_builds(warm_counts) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert warm_counts.counter_value(f"cache.local.{kind}.hits") == 1
        assert finding_sigs(warm_result) == finding_sigs(cold_result)

    def test_output_matches_uncached_scan(self, backend):
        apk = fresh_apk()
        baseline, _, _ = scan_with(None, loads_apk(dumps_apk(apk)))
        cold, _, _ = scan_with(backend, apk)
        warm, _, _ = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert (
            finding_sigs(baseline) == finding_sigs(cold) == finding_sigs(warm)
        )

    def test_cold_scan_counts_one_miss_per_tier_written(self, backend):
        _result, session, counts = scan_with(backend)
        assert counts.counter_value("cache.local.callgraph.misses") == 1
        assert counts.counter_value("cache.local.callgraph.hits") == 0


class TestCorruptionEveryBackend:
    """An app's one entry is all or nothing: a damaged entry rebuilds
    the whole app and is rewritten."""

    def app_key(self, backend) -> EntryKey:
        [k] = unique_keys(backend)
        return k

    def test_garbage_blob_is_a_miss_and_gets_repaired(self, backend):
        apk = fresh_apk()
        cold_result, _, _ = scan_with(backend, apk)
        k = self.app_key(backend)
        backend.put(k, b"complete garbage, not even a header")

        result, session, counts = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert builds(counts, "summaries") == 1
        assert builds(counts, "callgraph") == 1
        assert counts.counter_value("cache.local.summaries.misses") == 1
        assert counts.counter_value("cache.local.summaries.hits") == 0
        assert counts.counter_value("cache.local.errors") == 1
        # The bad entry was dropped and the rebuilt artifact re-published
        # — the next reader gets a valid blob.
        repaired = backend.get(k)
        assert repaired is not None and repaired[:4] == b"NCKC"

    def test_header_version_mismatch_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _, _ = scan_with(backend, apk)
        k = self.app_key(backend)
        stale = bytearray(backend.get(k))
        struct.pack_into(">I", stale, 4, CACHE_FORMAT_VERSION + 1)
        backend.put(k, bytes(stale))

        result, session, counts = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert builds(counts, "summaries") == 1

    def test_flipped_payload_byte_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _, _ = scan_with(backend, apk)
        k = self.app_key(backend)
        flipped = bytearray(backend.get(k))
        flipped[-1] ^= 0xFF
        backend.put(k, bytes(flipped))

        result, session, counts = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert builds(counts, "summaries") == 1


# ---------------------------------------------------------------------------
# The write shape: one entry per app, written in one pass, rewritten only
# when the scan built a kind the entry lacks.
# ---------------------------------------------------------------------------


def extended_options() -> NCheckerOptions:
    return NCheckerOptions(enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS)


def count_calls(monkeypatch, name: str) -> list:
    """Record each ``LocalDirBackend.<name>`` call's key."""
    calls = []
    original = getattr(LocalDirBackend, name)

    def counted(self, entry, *args):
        calls.append(entry)
        return original(self, entry, *args)

    monkeypatch.setattr(LocalDirBackend, name, counted)
    return calls


def entry_blob(payload: bytes) -> bytes:
    """``payload`` behind a valid header and checksum."""
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return b"NCKC" + struct.pack(">I", CACHE_FORMAT_VERSION) + digest + payload


class TestOneEntryPerApp:
    def test_cold_scan_of_n_apps_writes_n_entry_files(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["scan", "--cache-dir", str(cache_dir), *EXAMPLE_APPS])
        capsys.readouterr()
        files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert len(files) == len(EXAMPLE_APPS) == 4
        assert all(p.suffix == ".bin" for p in files)

    def test_warm_scan_reads_one_entry_per_app_and_builds_nothing(
        self, backend, monkeypatch
    ):
        apks = [
            fresh_apk(),
            single_request_app(RequestSpec(), package="com.test.other")[0],
        ]
        for apk in apks:
            scan_with(backend, apk)
        gets = count_calls(monkeypatch, "get")
        for apk in apks:
            _result, session, counts = scan_with(backend, loads_apk(dumps_apk(apk)))
            assert app_builds(counts) == dict.fromkeys(APP_KINDS, 0)
        assert len(gets) == len(set(gets)) == len(apks)

    def test_extended_rescan_adds_threadcontext_then_writes_nothing(
        self, backend, monkeypatch
    ):
        apk = fresh_apk()
        scan_with(backend, apk)
        puts = count_calls(monkeypatch, "put")

        def scan_extended():
            session = NChecker(options=extended_options()).open_session(
                loads_apk(dumps_apk(apk))
            )
            session.artifact_cache = CacheStore(backend)
            with use_metrics() as counts:
                session.scan()
            return session, counts

        second, second_counts = scan_extended()
        assert builds(second_counts, "threadcontext") == 1
        assert builds(second_counts, "callgraph") == 0
        assert second_counts.counter_value("cache.local.threadcontext.misses") == 1
        assert second_counts.counter_value("cache.local.callgraph.misses") == 0
        assert len(puts) == 1  # the entry, rewritten whole
        assert unique_keys(backend) == {puts[0]}
        loaded = CacheStore(backend).load_into(
            ArtifactStore(second.apk, second.registry),
            app_content_fingerprint(apk), second.options,
        )
        assert loaded == {*PERSISTED_KINDS, "threadcontext"}

        third, third_counts = scan_extended()
        assert app_builds(third_counts) == dict.fromkeys(APP_KINDS, 0)
        assert builds(third_counts, "threadcontext") == 0
        assert third_counts.counter_value("cache.local.threadcontext.hits") == 1
        assert len(puts) == 1  # nothing new to write

    def test_loaded_callgraph_holds_the_live_apps_methods(self, backend):
        apk = fresh_apk()
        scan_with(backend, apk)
        clone = loads_apk(dumps_apk(apk))
        _result, session, counts = scan_with(backend, clone)
        graph = session.store.peek(CALLGRAPH)
        assert counts.counter_value("cache.local.callgraph.hits") == 1
        live = {method_key(m): m for m in clone.methods()}
        assert graph.methods
        for key_, method in graph.methods.items():
            assert method is live[key_]
        # One pickle: the summary engine shares the loaded graph and is
        # wired to the loading session's store.
        engine = session.store.peek(SUMMARIES)
        assert engine.graph is graph
        assert engine.cache is session.store
        assert engine.registry is session.registry

    def test_callgraph_entry_carries_no_build_memo(self, backend):
        apk = fresh_apk()
        _result, cold, _ = scan_with(backend, apk)
        _result, warm, warm_counts = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert warm_counts.counter_value("cache.local.callgraph.hits") == 1
        for session in (cold, warm):
            state = vars(session.store.peek(CALLGRAPH))
            assert not {"_origin_memo", "_scope_memo"} & set(state)

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], "text", {}, {"nonsense": 1}, {"callgraph": None}, {3: "x"}],
        ids=["list", "str", "empty", "unknown-kind", "none-artifact",
             "int-kind"],
    )
    def test_payload_that_is_not_a_kind_dict_is_a_miss(self, backend, payload):
        apk = fresh_apk()
        cold_result, _, _ = scan_with(backend, apk)
        [k] = unique_keys(backend)
        backend.put(k, entry_blob(pickle.dumps(payload)))

        result, session, counts = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert counts.counter_value("cache.local.errors") == 1
        assert builds(counts, "callgraph") == 1
        assert backend.get(k)[24:] != pickle.dumps(payload)  # rewritten

    def test_another_apps_entry_is_a_miss(self, backend):
        """Transplanted onto another app's address, an entry names
        methods that app does not have."""
        apk = fresh_apk()
        other = single_request_app(RequestSpec(), package="com.test.other")[0]
        scan_with(backend, apk)
        scan_with(backend, other)
        own, foreign = (
            CacheStore(backend).entry_key(app_content_fingerprint(a), registry)
            for a, registry in ((apk, default_registry()),
                                (other, default_registry()))
        )
        backend.put(foreign, backend.get(own))
        _result, session, counts = scan_with(backend, loads_apk(dumps_apk(other)))
        assert counts.counter_value("cache.local.errors") == 1
        assert builds(counts, "callgraph") == 1

    def test_another_sessions_objects_refuse_to_encode(self, backend):
        """An artifact that reaches another session's APK is not
        written."""
        apk = fresh_apk()
        _result, session, _ = scan_with(None, apk)
        foreign = ArtifactStore(loads_apk(dumps_apk(apk)), session.registry)
        foreign.adopt(CALLGRAPH, session.store.peek(CALLGRAPH))
        with pytest.raises(pickle.PicklingError):
            encode_entry(foreign, {"callgraph": session.store.peek(CALLGRAPH)})
        written = CacheStore(backend).store_from(
            foreign, app_content_fingerprint(apk), session.options
        )
        assert written == set()
        assert backend.list_entries() == []


# ---------------------------------------------------------------------------
# Format compatibility: the local backend keeps the on-disk dialect
# earlier releases wrote.
# ---------------------------------------------------------------------------


class TestPreSplitFormatCompat:
    def test_entry_layout_is_pinned_to_the_pre_split_formula(self, tmp_path):
        """The app's one entry lands at
        <root>/v3/<fp[:2]>/<fp>-<digest>.bin, with the app fingerprint
        and entry digest earlier releases computed — and it is the only
        file the scan writes."""
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(cache_dir))
        session = NChecker(options=options).open_session(apk)
        session.scan()

        fp = app_content_fingerprint(apk)
        digest = entry_digest(fp, session.registry)
        expected = cache_dir / "v3" / fp[:2] / f"{fp}-{digest}.bin"
        assert CACHE_FORMAT_VERSION == 3
        assert expected.is_file(), "entry not at the pinned path"
        files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert files == [expected]

    def test_entry_digest_is_pinned_to_the_earlier_formula(self):
        """blake2b-128 over the app fingerprint, a NUL, the registry
        fingerprint and a trailing NUL — recomputed here from raw bytes,
        so a cache written by an earlier release keeps its addresses."""
        from repro.libmodels import default_registry

        registry = default_registry()
        fp = "ab" * 20
        expected = hashlib.blake2b(
            fp.encode() + b"\0" + registry_fingerprint(registry).encode() + b"\0",
            digest_size=16,
        ).hexdigest()
        assert entry_digest(fp, registry) == expected

    def test_entry_header_is_pinned_byte_for_byte(self, tmp_path):
        """Magic ``NCKC``, big-endian format version, blake2b-128 payload
        checksum — asserted against raw bytes, not the codec's own
        constants, so a silent format change fails loudly here."""
        backend = LocalDirBackend(tmp_path / "cache")
        scan_with(backend)
        blob = backend.get(next(iter(unique_keys(backend))))
        assert blob[:4] == b"NCKC"
        (version,) = struct.unpack(">I", blob[4:8])
        assert version == CACHE_FORMAT_VERSION
        assert blob[8:24] == hashlib.blake2b(blob[24:], digest_size=16).digest()

    def test_local_backend_reads_a_transplanted_legacy_cache(self, tmp_path):
        """Simulate inheriting a cache directory another process wrote:
        the entry file placed by hand at the pinned path formula
        (bypassing ``LocalDirBackend.put``) must give a build-free warm
        scan."""
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(tmp_path / "writer"))
        writer = NChecker(options=options).open_session(apk)
        cold_result = writer.scan()

        fp = app_content_fingerprint(apk)
        legacy_root = tmp_path / "legacy"
        relative = Path("v3", fp[:2], f"{fp}-{entry_digest(fp, writer.registry)}.bin")
        dst = legacy_root / relative
        dst.parent.mkdir(parents=True)
        dst.write_bytes((tmp_path / "writer" / relative).read_bytes())

        result, session, counts = scan_with(
            LocalDirBackend(legacy_root), loads_apk(dumps_apk(apk))
        )
        assert app_builds(counts) == dict.fromkeys(APP_KINDS, 0)
        assert finding_sigs(result) == finding_sigs(cold_result)


# ---------------------------------------------------------------------------
# Options resolution.
# ---------------------------------------------------------------------------


class TestFromOptions:
    def test_disabled_without_backend_or_dir(self):
        assert CacheStore.from_options(NCheckerOptions()) is None

    def test_cache_dir_shorthand(self, tmp_path):
        store = CacheStore.from_options(NCheckerOptions(cache_dir=str(tmp_path)))
        assert isinstance(store.backend, LocalDirBackend)
        assert store.backend.root == tmp_path
