"""Conformance suite for the cache-store backend.

A battery of tests runs against every :class:`CacheBackend`
implementation (today the one ``local`` directory backend) so the
protocol semantics documented in :mod:`repro.pipeline.cachestore.backend`
(best-effort never raising, atomic publication, corruption-is-a-miss,
gc grace) are enforced, not aspirational.  On top of the protocol
battery:

* scan-level tests proving a warm re-scan does **zero** app-scoped
  builds, with hits attributed to the serving backend;
* format compatibility: ``LocalDirBackend`` reads a cache laid out by
  the entry-path formula earlier releases wrote, and the entry header
  is pinned byte-for-byte.
"""

import hashlib
import struct

import pytest

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.checker import NCheckerOptions
from repro.corpus.snippets import RequestSpec
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    CacheBackend,
    CacheStore,
    EntryKey,
    LocalDirBackend,
    app_content_fingerprint,
    entry_digest,
)
from tests.conftest import single_request_app

APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")
PERSISTED_KINDS = ("callgraph", "summaries", "requests", "retry-loops")
@pytest.fixture(params=["local"])
def backend(tmp_path) -> CacheBackend:
    """Every backend implementation, by parametrize id."""
    return LocalDirBackend(tmp_path / "cache")


def key(kind="summaries", app_fp="a" * 40, digest="0123456789abcdef") -> EntryKey:
    return EntryKey(app_fp, kind, digest)


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
    (``None``: no cache)."""
    session = NChecker().open_session(apk if apk is not None else fresh_apk())
    session.artifact_cache = CacheStore(backend) if backend is not None else None
    return session.scan(), session


def app_builds(session) -> dict[str, int]:
    return {kind: session.store.counters.builds_of(kind) for kind in APP_KINDS}


def counter(session, name: str) -> int:
    return session.store.metrics.counter_value(name)


# ---------------------------------------------------------------------------
# The shared protocol battery — every backend must pass every test.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, CacheBackend)
        assert backend.name

    def test_get_absent_is_none(self, backend):
        assert backend.get(key()) is None

    def test_put_get_round_trip(self, backend):
        k = key()
        written = backend.put(k, b"payload")
        assert written  # the backend took the write
        result = backend.get(k)
        assert result is not None
        assert result.blob == b"payload"
        assert result.tier in written

    def test_overwrite_replaces(self, backend):
        k = key()
        backend.put(k, b"old")
        backend.put(k, b"new-and-longer")
        assert backend.get(k).blob == b"new-and-longer"
        assert unique_keys(backend) == {k}
        assert all(
            info.size == len(b"new-and-longer") for info in backend.list_entries()
        )

    def test_delete_drops_every_copy(self, backend):
        k = key()
        copies = len(backend.put(k, b"x"))
        assert backend.delete(k) == copies
        assert backend.get(k) is None
        assert backend.delete(k) == 0  # idempotent, best-effort

    def test_distinct_digests_coexist(self, backend):
        """Two entries differing only in digest (same app, same kind —
        e.g. two options profiles) must never collide."""
        k1 = key(digest="1111111111111111")
        k2 = key(digest="2222222222222222")
        backend.put(k1, b"one")
        backend.put(k2, b"two")
        assert backend.get(k1).blob == b"one"
        assert backend.get(k2).blob == b"two"

    def test_list_entries_and_stats_agree(self, backend):
        keys = [
            key(kind="summaries", digest="d1" * 8),
            key(kind="callgraph", digest="d2" * 8),
            key(kind="callgraph", app_fp="b" * 40, digest="d3" * 8),
        ]
        for k in keys:
            backend.put(k, b"abcdef")
        entries = backend.list_entries()
        assert unique_keys(backend) == set(keys)
        stats = backend.stats()
        assert stats.entries == len(entries)
        assert stats.total_bytes == sum(info.size for info in entries)
        assert stats.apps == 2
        assert set(stats.by_kind) == {"summaries", "callgraph"}
        rendered = stats.render()
        assert "summaries" in rendered and "callgraph" in rendered

    def test_gc_spares_entries_inside_the_grace_window(self, backend):
        backend.put(key(), b"fresh")
        removed, freed = backend.gc(0)  # default grace: just-written survives
        assert (removed, freed) == (0, 0)
        assert backend.get(key()) is not None

    def test_gc_without_grace_enforces_the_budget(self, backend):
        copies = 0
        for i in range(3):
            copies += len(backend.put(key(digest=f"{i:016d}"), b"x" * 10))
        removed, freed = backend.gc(0, grace_seconds=0)
        assert removed == copies
        assert freed == copies * 10
        assert backend.list_entries() == []

    def test_gc_noop_when_under_budget(self, backend):
        backend.put(key(), b"small")
        assert backend.gc(1 << 30, grace_seconds=0) == (0, 0)
        assert backend.get(key()) is not None

    def test_clear_empties_everything(self, backend):
        copies = 0
        for i in range(3):
            copies += len(backend.put(key(digest=f"{i:016d}"), b"x"))
        assert backend.clear() == copies
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
        assert backend.put(key(), b"x") == ()
        assert backend.get(key()) is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        k = key()
        # A directory squatting on the entry path: read_bytes -> OSError.
        backend.entry_path(k).mkdir(parents=True)
        assert backend.get(k) is None

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
        cold_result, cold_session = scan_with(backend, apk)
        assert cold_session.store.counters.builds_of("callgraph") == 1

        warm_result, warm_session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert app_builds(warm_session) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert counter(warm_session, f"cache.{backend.name}.{kind}.hits") == 1
        assert finding_sigs(warm_result) == finding_sigs(cold_result)

    def test_output_matches_uncached_scan(self, backend):
        apk = fresh_apk()
        baseline, _ = scan_with(None, loads_apk(dumps_apk(apk)))
        cold, _ = scan_with(backend, apk)
        warm, _ = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert (
            finding_sigs(baseline) == finding_sigs(cold) == finding_sigs(warm)
        )

    def test_cold_scan_counts_one_miss_per_tier_written(self, backend):
        _result, session = scan_with(backend)
        assert counter(session, f"cache.{backend.name}.callgraph.misses") == 1
        assert counter(session, f"cache.{backend.name}.callgraph.hits") == 0


class TestCorruptionEveryBackend:
    def summaries_key(self, backend) -> EntryKey:
        [k] = {i.key for i in backend.list_entries() if i.key.kind == "summaries"}
        return k

    def test_garbage_blob_is_a_miss_and_gets_repaired(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        backend.put(k, b"complete garbage, not even a header")

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1
        assert counter(session, f"cache.{backend.name}.summaries.misses") >= 1
        assert counter(session, f"cache.{backend.name}.errors") == 1
        # The bad entry was dropped and the rebuilt artifact re-published
        # — the next reader gets a valid blob.
        repaired = backend.get(k)
        assert repaired is not None and repaired.blob[:4] == b"NCKC"

    def test_header_version_mismatch_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        stale = bytearray(backend.get(k).blob)
        struct.pack_into(">I", stale, 4, CACHE_FORMAT_VERSION + 1)
        backend.put(k, bytes(stale))

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1

    def test_flipped_payload_byte_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        flipped = bytearray(backend.get(k).blob)
        flipped[-1] ^= 0xFF
        backend.put(k, bytes(flipped))

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1


# ---------------------------------------------------------------------------
# Format compatibility: the local backend keeps the on-disk dialect
# earlier releases wrote.
# ---------------------------------------------------------------------------


class TestPreSplitFormatCompat:
    def test_entry_layout_is_pinned_to_the_pre_split_formula(self, tmp_path):
        """Entries land at <root>/v<FMT>/<fp[:2]>/<fp>/<kind>-<digest>.bin —
        the path every earlier release computed — so existing caches keep
        working."""
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(cache_dir))
        session = NChecker(options=options).open_session(apk)
        session.scan()

        fp = app_content_fingerprint(apk)
        for kind in PERSISTED_KINDS:
            digest = entry_digest(kind, fp, session.registry, options)
            expected = (
                cache_dir
                / f"v{CACHE_FORMAT_VERSION}"
                / fp[:2]
                / fp
                / f"{kind}-{digest}.bin"
            )
            assert expected.is_file(), f"{kind} entry not at the legacy path"

    def test_entry_header_is_pinned_byte_for_byte(self, tmp_path):
        """Magic ``NCKC``, big-endian format version, blake2b-128 payload
        checksum — asserted against raw bytes, not the codec's own
        constants, so a silent format change fails loudly here."""
        backend = LocalDirBackend(tmp_path / "cache")
        scan_with(backend)
        blob = backend.get(next(iter(unique_keys(backend)))).blob
        assert blob[:4] == b"NCKC"
        (version,) = struct.unpack(">I", blob[4:8])
        assert version == CACHE_FORMAT_VERSION
        assert blob[8:24] == hashlib.blake2b(blob[24:], digest_size=16).digest()

    def test_local_backend_reads_a_transplanted_legacy_cache(self, tmp_path):
        """Simulate inheriting a cache directory an earlier release wrote:
        entry files placed by hand at the legacy path formula (bypassing
        ``LocalDirBackend.put``) must give a build-free warm scan."""
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(tmp_path / "writer"))
        writer = NChecker(options=options).open_session(apk)
        cold_result = writer.scan()

        fp = app_content_fingerprint(apk)
        legacy_root = tmp_path / "legacy"
        for kind in PERSISTED_KINDS:
            name = f"{kind}-{entry_digest(kind, fp, writer.registry, options)}.bin"
            src = (
                tmp_path / "writer" / f"v{CACHE_FORMAT_VERSION}" / fp[:2] / fp / name
            )
            dst = legacy_root / f"v{CACHE_FORMAT_VERSION}" / fp[:2] / fp / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())

        result, session = scan_with(
            LocalDirBackend(legacy_root), loads_apk(dumps_apk(apk))
        )
        assert app_builds(session) == dict.fromkeys(APP_KINDS, 0)
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
