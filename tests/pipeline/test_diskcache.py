"""Persistent cross-run artifact cache over its local-directory backend
(`repro.pipeline.cachestore`: `CacheStore` over `LocalDirBackend`).

The contract under test: a warm re-scan of an unchanged app performs
zero app-scoped artifact builds, scan output is byte-identical with the
cache cold, warm, or disabled (including ``--jobs``), corrupted entries
degrade to rebuilds, and a patched app rebuilds only the invalidation
cone.  The backend seam itself (protocol conformance, codec, options
addressing) is covered in ``test_cachestore.py``.
"""

import json
import struct

import pytest

from repro.app import save_apk
from repro.app.loader import dumps_apk, loads_apk
from repro.callgraph.entrypoints import method_key
from repro.cli import main
from repro.core import NChecker
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from repro.core.patcher import Patcher
from repro.corpus.snippets import Connectivity, Notification, RequestSpec
from repro.ir.statements import NopStmt
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    CacheStore,
    LocalDirBackend,
    app_content_fingerprint,
    fingerprints,
    format_size,
    parse_size,
    registry_fingerprint,
)

from tests.conftest import single_request_app

#: The five app-scoped artifact kinds the cache persists.
APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")


def fresh_apk():
    apk, _ = single_request_app(RequestSpec())
    return apk


def finding_sigs(result) -> list[tuple]:
    """A stable projection of the findings, comparable across distinct
    APK instances (Finding embeds live IRMethod objects via the request,
    which compare by identity)."""
    return [
        (f.kind, f.method_key, f.stmt_index, f.message)
        for f in result.findings
    ]


def app_builds(session) -> dict[str, int]:
    """The session's app-scoped build counts (method-scoped kinds are
    rebuilt per process by design and excluded here)."""
    return {
        kind: session.store.counters.builds_of(kind) for kind in APP_KINDS
    }


def scan_once(cache_dir, apk=None):
    """One fresh-process-equivalent scan: new checker, new session."""
    options = NCheckerOptions(cache_dir=str(cache_dir) if cache_dir else None)
    checker = NChecker(options=options)
    session = checker.open_session(apk if apk is not None else fresh_apk())
    result = session.scan()
    return result, session


class TestFingerprints:
    def test_stable_across_serialization(self):
        apk = fresh_apk()
        clone = loads_apk(dumps_apk(apk))
        assert app_content_fingerprint(apk) == app_content_fingerprint(clone)

    def test_statement_change_changes_fingerprint(self):
        apk = fresh_apk()
        before = app_content_fingerprint(apk)
        method = next(iter(apk.methods()))
        method.statements.insert(0, NopStmt())
        assert app_content_fingerprint(apk) != before

    def test_registry_fingerprint_folds_model_version(self, monkeypatch):
        from repro.libmodels import default_registry

        registry = default_registry()
        before = registry_fingerprint(registry)
        monkeypatch.setattr(fingerprints, "LIBMODELS_VERSION", 9999)
        assert registry_fingerprint(registry) != before


class TestSizes:
    @pytest.mark.parametrize(
        "text,expected",
        [("4096", 4096), ("1K", 1024), ("1.5M", 1536 * 1024),
         ("2G", 2 << 30), (" 512m ", 512 << 20), ("0", 0),
         ("1.5G", 3 << 29), ("512m", 512 << 20), ("0.5k", 512),
         ("2.5t", int(2.5 * (1 << 40))), ("100B", 100), ("3.25", 3)],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "garbage", "-1", "1X5", "-2G",
                                     "G", "1.2.3M", "inf", "nan", "5MB"])
    def test_parse_size_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    @pytest.mark.parametrize("bad", ["5MB", "inf", "1e400", "1X5"])
    def test_parse_size_error_quotes_the_whole_input(self, bad):
        with pytest.raises(ValueError, match=f"unparsable size: '{bad}'"):
            parse_size(bad)

    def test_format_size(self):
        assert format_size(512) == "512B"
        assert format_size(2048) == "2.0K"
        assert format_size(3 << 20) == "3.0M"

    @pytest.mark.parametrize(
        "n", [0, 1, 512, 1024, 1536, 2048, 1 << 20, 3 << 29, 5 << 30]
    )
    def test_format_size_round_trips_exactly(self, n):
        """Any byte count whose rendering carries no rounding loss comes
        back exactly through parse_size."""
        assert parse_size(format_size(n)) == n

    @pytest.mark.parametrize("n", [999, 1025, 1536 * 1024 + 7, (1 << 30) + 123])
    def test_format_size_round_trips_within_rendered_precision(self, n):
        """The general guarantee: rendering keeps one decimal, so the
        round-trip lands within half a rendered decimal of the input."""
        text = format_size(n)
        unit = {"B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[text[-1]]
        assert abs(parse_size(text) - n) <= unit * 0.05 + 1


class TestWarmScan:
    def test_cold_builds_then_warm_adopts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        r1, s1 = scan_once(cache_dir)
        cold = app_builds(s1)
        assert cold["callgraph"] == 1 and cold["requests"] == 1

        r2, s2 = scan_once(cache_dir)
        assert app_builds(s2) == dict.fromkeys(APP_KINDS, 0)
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert s2.store.metrics.counter_value(f"cache.local.{kind}.hits") == 1
        assert finding_sigs(r2) == finding_sigs(r1)
        assert [req.location() for req in r2.requests] == [
            req.location() for req in r1.requests
        ]

    def test_disabled_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert CacheStore.from_options(NCheckerOptions()) is None
        _r, _s = scan_once(None)
        assert not cache_dir.exists()
        assert LocalDirBackend(cache_dir)._entry_files() == []

    def test_repeat_scan_rewrites_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _r, session = scan_once(cache_dir)
        entries = {p: p.stat().st_mtime_ns for p in LocalDirBackend(cache_dir)._entry_files()}
        assert entries
        session.scan()  # same session, same fingerprint: already synced
        after = {p: p.stat().st_mtime_ns for p in LocalDirBackend(cache_dir)._entry_files()}
        assert after == entries

    def test_format_version_bump_is_cold(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        monkeypatch.setattr(
            fingerprints, "CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION + 1
        )
        _r, session = scan_once(cache_dir)
        assert app_builds(session)["callgraph"] == 1  # old entries unusable

    def test_library_model_bump_is_cold(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        monkeypatch.setattr(fingerprints, "LIBMODELS_VERSION", 9999)
        _r, session = scan_once(cache_dir)
        assert app_builds(session)["callgraph"] == 1


class TestCorruption:
    def entry(self, cache_dir, kind) -> "list":
        return [p for p in LocalDirBackend(cache_dir)._entry_files()
                if p.name.startswith(f"{kind}-")]

    def corrupt_and_rescan(self, tmp_path, mutate, kind="summaries"):
        cache_dir = tmp_path / "cache"
        r1, _ = scan_once(cache_dir)
        (path,) = self.entry(cache_dir, kind)
        mutate(path)
        r2, session = scan_once(cache_dir)
        assert finding_sigs(r2) == finding_sigs(r1)
        return session, path

    def test_truncated_entry_is_a_miss_and_rebuilds(self, tmp_path):
        def truncate(path):
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        session, path = self.corrupt_and_rescan(tmp_path, truncate)
        m = session.store.metrics
        # One miss for the unreadable entry, one for the write-back of
        # the rebuilt artifact (every write counts as a miss).
        assert m.counter_value("cache.local.summaries.misses") == 2
        assert m.counter_value("cache.local.errors") == 1
        assert app_builds(session)["summaries"] == 1
        assert app_builds(session)["callgraph"] == 0  # others still warm
        # The rebuilt artifact overwrote the bad entry: next scan is clean.
        _r3, s3 = scan_once(tmp_path / "cache")
        assert app_builds(s3) == dict.fromkeys(APP_KINDS, 0)
        assert s3.store.metrics.counter_value("cache.local.errors") == 0

    def test_truncated_below_header_is_a_miss(self, tmp_path):
        session, _ = self.corrupt_and_rescan(
            tmp_path, lambda p: p.write_bytes(b"NC")
        )
        assert session.store.metrics.counter_value("cache.local.errors") == 1

    def test_bad_magic_is_a_miss(self, tmp_path):
        def stamp(path):
            data = bytearray(path.read_bytes())
            data[:4] = b"XXXX"
            path.write_bytes(bytes(data))

        session, _ = self.corrupt_and_rescan(tmp_path, stamp)
        assert session.store.metrics.counter_value("cache.local.errors") == 1

    def test_header_version_mismatch_is_a_miss(self, tmp_path):
        def bump_version(path):
            data = bytearray(path.read_bytes())
            struct.pack_into(">I", data, 4, CACHE_FORMAT_VERSION + 7)
            path.write_bytes(bytes(data))

        session, _ = self.corrupt_and_rescan(tmp_path, bump_version)
        assert session.store.metrics.counter_value("cache.local.errors") == 1

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        def flip(path):
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))

        session, _ = self.corrupt_and_rescan(tmp_path, flip)
        assert session.store.metrics.counter_value("cache.local.errors") == 1


class TestPatchWarmStart:
    def test_patch_rebuilds_only_the_dirty_cone(self, tmp_path):
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        scan_once(cache_dir, apk)  # populate the cache

        _r, session = scan_once(cache_dir, loads_apk(dumps_apk(apk)))
        assert app_builds(session) == dict.fromkeys(APP_KINDS, 0)

        method = next(iter(session.apk.methods()))
        method.statements.insert(0, NopStmt())
        method.validate()
        session.invalidate_methods({method_key(method)})
        session.scan()
        builds = app_builds(session)
        # Call graph and summary engine stay warm in the store; only the
        # whole-app extraction artifacts rebuild (statement indices shift).
        assert builds["callgraph"] == 0
        assert builds["summaries"] == 0
        assert builds["requests"] == 1
        assert builds["retry-loops"] == 1

    def test_patch_until_clean_matches_without_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        scan_once(cache_dir, apk)  # warm the cache first

        cached = NChecker(options=NCheckerOptions(cache_dir=str(cache_dir)))
        plain = NChecker()
        fixed_cached, applied_cached = Patcher().patch_until_clean(
            loads_apk(dumps_apk(apk)), cached
        )
        fixed_plain, applied_plain = Patcher().patch_until_clean(
            loads_apk(dumps_apk(apk)), plain
        )
        assert dumps_apk(fixed_cached) == dumps_apk(fixed_plain)
        assert len(applied_cached) == len(applied_plain)


class TestManagement:
    def populated(self, tmp_path):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        return LocalDirBackend(cache_dir)

    def test_stats(self, tmp_path):
        cache = self.populated(tmp_path)
        stats = cache.stats()
        assert stats.apps == 1
        assert stats.entries == len(cache._entry_files()) > 0
        assert stats.total_bytes == sum(
            p.stat().st_size for p in cache._entry_files()
        )
        assert set(stats.by_kind) <= set(APP_KINDS)
        assert str(stats.entries) in stats.render()

    def test_gc_drops_oldest_until_under_budget(self, tmp_path):
        cache = self.populated(tmp_path)
        total = cache.stats().total_bytes
        keep = max(p.stat().st_size for p in cache._entry_files())
        removed, freed = cache.gc(keep, grace_seconds=0)
        assert removed > 0 and freed > 0
        assert cache.stats().total_bytes <= keep
        assert freed == total - cache.stats().total_bytes

    def test_gc_noop_when_under_budget(self, tmp_path):
        cache = self.populated(tmp_path)
        assert cache.gc(1 << 30, grace_seconds=0) == (0, 0)

    def test_gc_spares_entries_inside_the_grace_window(self, tmp_path):
        """A freshly written entry survives gc regardless of the budget:
        a collection racing a concurrent scanner must not drop an
        in-flight entry (default 60s mtime grace)."""
        import os
        import time

        cache = self.populated(tmp_path)
        files = cache._entry_files()
        assert files
        # Age every entry but one out of the grace window.
        old = time.time() - 3600
        fresh = files[0]
        for path in files[1:]:
            os.utime(path, (old, old))
        removed, _freed = cache.gc(0)  # default grace window
        assert removed == len(files) - 1
        assert cache._entry_files() == [fresh]
        # Once it ages out, the same budget takes it too.
        os.utime(fresh, (old, old))
        assert cache.gc(0)[0] == 1
        assert cache._entry_files() == []

    def test_clear_empties_everything(self, tmp_path):
        cache = self.populated(tmp_path)
        removed = cache.clear()
        assert removed > 0
        assert cache._entry_files() == []
        assert cache.stats().entries == 0

    def test_stats_on_missing_root(self, tmp_path):
        cache = LocalDirBackend(tmp_path / "never-created")
        assert cache.stats().entries == 0
        assert cache.gc(0) == (0, 0)
        assert cache.clear() == 0


class TestCLIByteIdentity:
    """Scan output must be byte-identical with the cache disabled, cold,
    and warm — the driver-facing acceptance criterion."""

    @pytest.fixture()
    def app_files(self, tmp_path):
        buggy, _ = single_request_app(RequestSpec())
        clean, _ = single_request_app(
            RequestSpec(
                connectivity=Connectivity.GUARDED,
                with_timeout=True,
                with_retry=True,
                retry_value=2,
                with_notification=Notification.TOAST,
                with_response_check=True,
            ),
            package="com.test.clean",
        )
        paths = [tmp_path / "buggy.apkt", tmp_path / "clean.apkt"]
        save_apk(buggy, paths[0])
        save_apk(clean, paths[1])
        return [str(p) for p in paths]

    @pytest.fixture()
    def cache(self, tmp_path):
        return ["--cache-dir", str(tmp_path / "cache")]

    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_report_mode(self, app_files, cache, capsys):
        disabled = self.run(["scan", *app_files], capsys)
        cold = self.run(["scan", *cache, *app_files], capsys)
        warm = self.run(["scan", *cache, *app_files], capsys)
        warm_jobs = self.run(["scan", "--jobs", "2", *cache, *app_files], capsys)
        assert disabled == cold == warm == warm_jobs

    def test_json_mode(self, app_files, cache, capsys):
        disabled = self.run(["scan", "--json", *app_files], capsys)
        cold = self.run(["scan", "--json", *cache, *app_files], capsys)
        warm = self.run(["scan", "--json", *cache, *app_files], capsys)
        assert disabled == cold == warm

    def test_sarif_output(self, app_files, cache, tmp_path, capsys):
        logs = []
        for name, extra in (
            ("disabled", []), ("cold", cache), ("warm", cache),
            ("jobs", ["--jobs", "2", *cache]),
        ):
            path = tmp_path / f"{name}.sarif"
            main(["scan", "--sarif", str(path), *extra, *app_files])
            capsys.readouterr()
            logs.append(path.read_bytes())
        assert len(set(logs)) == 1

    def test_warm_run_has_zero_app_builds(self, app_files, cache, tmp_path, capsys):
        cold_metrics = tmp_path / "cold.json"
        warm_metrics = tmp_path / "warm.json"
        main(["scan", *cache, "--metrics", str(cold_metrics), *app_files])
        main(["scan", *cache, "--metrics", str(warm_metrics), *app_files])
        capsys.readouterr()
        cold = json.loads(cold_metrics.read_text())["counters"]
        warm = json.loads(warm_metrics.read_text())["counters"]
        assert cold.get("artifact.callgraph.builds", 0) == 2  # two apps
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert warm.get(f"cache.local.{kind}.hits", 0) == 2

    def test_warm_jobs_run_has_zero_app_builds(
        self, app_files, cache, tmp_path, capsys
    ):
        warm_metrics = tmp_path / "warm-jobs.json"
        main(["scan", *cache, *app_files])  # cold, populate
        main(["scan", "--jobs", "2", *cache, "--metrics", str(warm_metrics),
              *app_files])
        capsys.readouterr()
        warm = json.loads(warm_metrics.read_text())["counters"]
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0

    def test_default_scan_and_patch_leave_every_cache_location_empty(
        self, app_files, tmp_path, capsys, monkeypatch
    ):
        """The cache is opt-in: without ``--cache-dir`` neither command
        writes under any location an older default could have used."""
        homes = {
            var: tmp_path / var.lower()
            for var in ("HOME", "XDG_CACHE_HOME", "NCHECKER_CACHE_DIR")
        }
        for var, path in homes.items():
            path.mkdir()
            monkeypatch.setenv(var, str(path))
        assert main(["scan", *app_files]) == 1
        assert main(["patch", app_files[0]]) == 0
        capsys.readouterr()
        for path in homes.values():
            assert list(path.iterdir()) == []


class TestExtendedChecksCache:
    """The threadcontext artifact (built only for the extended checks)
    rides the same persistent cache: one cold build per app, zero on any
    warm re-scan, and byte-identical `--extended-checks` output."""

    def scan_extended(self, cache_dir, apk=None):
        options = NCheckerOptions(
            cache_dir=str(cache_dir),
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS,
        )
        checker = NChecker(options=options)
        session = checker.open_session(apk if apk is not None else fresh_apk())
        return session.scan(), session

    def test_warm_rescan_builds_zero_threadcontexts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        r1, s1 = self.scan_extended(cache_dir)
        assert s1.store.counters.builds_of("threadcontext") == 1

        r2, s2 = self.scan_extended(cache_dir)
        assert s2.store.counters.builds_of("threadcontext") == 0
        assert (
            s2.store.metrics.counter_value("cache.local.threadcontext.hits") == 1
        )
        assert app_builds(s2) == dict.fromkeys(APP_KINDS, 0)
        assert finding_sigs(r2) == finding_sigs(r1)

    def test_default_scan_never_persists_threadcontext(self, tmp_path):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        entries = LocalDirBackend(cache_dir)._entry_files()
        assert entries
        assert not [p for p in entries if p.name.startswith("threadcontext-")]

    @pytest.fixture()
    def lifecycle_files(self, tmp_path):
        from repro.corpus.lifecycle import build_lifecycle_corpus

        paths = []
        for apk, _truth in build_lifecycle_corpus()[:4]:
            path = tmp_path / f"{apk.package}.apkt"
            save_apk(apk, path)
            paths.append(str(path))
        return paths

    def test_cli_byte_identity(self, lifecycle_files, tmp_path, capsys):
        def run(extra):
            code = main(["scan", "--extended-checks", *extra, *lifecycle_files])
            return code, capsys.readouterr().out

        cache = ["--cache-dir", str(tmp_path / "cache")]
        disabled = run([])
        cold = run(cache)
        warm = run(cache)
        warm_jobs = run(["--jobs", "2", *cache])
        assert disabled == cold == warm == warm_jobs
        assert "main (UI) thread" in disabled[1]

    def test_cli_warm_run_has_zero_threadcontext_builds(
        self, lifecycle_files, tmp_path, capsys
    ):
        warm_metrics = tmp_path / "warm.json"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        main(["scan", "--extended-checks", *cache, *lifecycle_files])
        main(
            [
                "scan",
                "--extended-checks",
                *cache,
                "--metrics",
                str(warm_metrics),
                *lifecycle_files,
            ]
        )
        capsys.readouterr()
        warm = json.loads(warm_metrics.read_text())["counters"]
        assert warm.get("artifact.threadcontext.builds", 0) == 0
        assert warm.get("cache.local.threadcontext.hits", 0) == len(
            lifecycle_files
        )


class TestCacheSubcommand:
    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def populate(self, tmp_path, capsys) -> list[str]:
        """Scan one app into ``tmp_path/cache``; returns the ``--cache-dir``
        arguments naming it."""
        apk, _ = single_request_app(RequestSpec())
        path = tmp_path / "app.apkt"
        save_apk(apk, path)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        main(["scan", *cache, str(path)])
        capsys.readouterr()
        return cache

    def test_stats_and_clear(self, tmp_path, capsys):
        cache = self.populate(tmp_path, capsys)
        code, out, _ = self.run(["cache", "stats", *cache], capsys)
        assert code == 0 and "entries for 1 app(s)" in out
        # Per-kind breakdown: every persisted kind gets its own row with
        # an entry count and a size, so cache growth is attributable.
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert any(
                line.split()[0] == kind and len(line.split()) == 3
                for line in out.splitlines()
            ), f"no per-kind row for {kind}:\n{out}"
        code, out, _ = self.run(["cache", "clear", *cache], capsys)
        assert code == 0 and out.startswith("removed ")
        code, out, _ = self.run(["cache", "stats", *cache], capsys)
        assert "0 entries" in out

    def test_gc_spares_fresh_entries_by_default(self, tmp_path, capsys):
        cache = self.populate(tmp_path, capsys)
        code, out, _ = self.run(
            ["cache", "gc", *cache, "--max-size", "0"], capsys
        )
        assert code == 0 and out.startswith("removed 0 ")
        _code, out, _ = self.run(["cache", "stats", *cache], capsys)
        assert "0 entries" not in out  # just-written entries survive

    def test_gc_min_age_zero_collects_everything(self, tmp_path, capsys):
        cache = self.populate(tmp_path, capsys)
        code, out, _ = self.run(
            ["cache", "gc", *cache, "--max-size", "0", "--min-age", "0"], capsys
        )
        assert code == 0 and "freed" in out
        _code, out, _ = self.run(["cache", "stats", *cache], capsys)
        assert "0 entries" in out

    def test_gc_rejects_bad_size(self, tmp_path, capsys):
        code, _out, err = self.run(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-size", "lots"],
            capsys,
        )
        assert code == 2 and "unparsable size" in err

    @pytest.mark.parametrize("size", ["inf", "nan", "5MB"])
    def test_gc_rejects_non_finite_and_suffixed_sizes(self, tmp_path, capsys, size):
        code, _out, err = self.run(
            ["cache", "gc", "--cache-dir", str(tmp_path), "--max-size", size],
            capsys,
        )
        assert code == 2 and f"unparsable size: {size!r}" in err

    def test_explicit_cache_dir_flag(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        code, out, _ = self.run(["cache", "stats", "--cache-dir", str(other)], capsys)
        assert code == 0 and str(other) in out

    @pytest.mark.parametrize(
        "argv",
        [["stats"], ["gc", "--max-size", "1G"], ["clear"]],
        ids=["stats", "gc", "clear"],
    )
    def test_cache_dir_is_required(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--cache-dir" in captured.err
