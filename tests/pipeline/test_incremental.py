"""Incremental re-scan: session reuse, dirty-region invalidation, and
patcher parity with the full-rescan loop."""

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.patcher import Patcher
from repro.corpus.generator import CorpusGenerator
from repro.corpus.profiles import PAPER_PROFILE
from repro.corpus.snippets import RequestSpec

from tests.conftest import newsreader_texts, single_request_app


class TestSessionCache:
    def test_repeat_scan_hits_the_session(self):
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker()
        checker.scan(apk)
        assert (checker.sessions.misses, checker.sessions.hits) == (1, 0)
        checker.scan(apk)
        assert (checker.sessions.misses, checker.sessions.hits) == (1, 1)

    def test_structural_change_misses(self):
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker()
        checker.scan(apk)
        mutated = loads_apk(dumps_apk(apk))
        method = next(iter(mutated.methods()))
        from repro.ir.statements import NopStmt

        method.statements.insert(0, NopStmt())
        method.validate()
        checker.scan(mutated)
        assert checker.sessions.misses == 2

    def test_content_edit_with_the_same_shape_misses(self):
        """An edit that keeps every method's statement count must still
        miss: the second scan gets the edited app's own findings."""
        original, edited = newsreader_texts()
        checker = NChecker()
        checker.scan(loads_apk(original))
        rescanned = checker.scan(loads_apk(edited))
        fresh = NChecker().scan(loads_apk(edited))
        assert rescanned.to_dict() == fresh.to_dict()
        assert len(rescanned.findings) == 6
        assert checker.sessions.misses == 2

    def test_lru_bound(self):
        checker = NChecker()
        checker.sessions.max_entries = 2
        for i in range(4):
            apk, _ = single_request_app(RequestSpec(), package=f"com.lru.a{i}")
            checker.scan(apk)
        assert len(checker.sessions._sessions) == 2


class TestIncrementalPatching:
    def apps(self, n=8):
        return [apk for apk, _ in CorpusGenerator(PAPER_PROFILE.scaled(n)).iter_apps()]

    def test_incremental_matches_full_rescan(self):
        patcher = Patcher()
        for apk in self.apps():
            fixed_inc, applied_inc = patcher.patch_until_clean(apk, NChecker())
            fixed_full, applied_full = patcher.patch_until_clean(
                apk, NChecker(), incremental=False
            )
            assert dumps_apk(fixed_inc) == dumps_apk(fixed_full)
            assert len(applied_inc) == len(applied_full)

    def test_incremental_leaves_input_untouched(self):
        apk = self.apps(1)[0]
        before = dumps_apk(apk)
        Patcher().patch_until_clean(apk, NChecker())
        assert dumps_apk(apk) == before

    def test_patch_reports_touched_methods(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        checker = NChecker()
        result = checker.scan(apk)
        patcher = Patcher()
        clone = loads_apk(dumps_apk(apk))
        outcome = patcher.patch_in_place(clone, checker.scan(clone))
        assert outcome.applied
        assert outcome.touched
        assert {f.method_key for f in result.findings} & outcome.touched

    def test_dirty_region_rebuild_is_partial(self):
        apk = self.apps(4)[3]
        checker = NChecker()
        session = checker.open_session(apk)
        result = session.scan()
        assert result.findings
        cfgs_after_first = session.store.counters.builds_of("cfg")
        total_methods = len(list(apk.methods()))
        outcome = Patcher().patch_in_place(apk, result)
        session.invalidate_methods(outcome.touched)
        session.scan()
        rebuilt = session.store.counters.builds_of("cfg") - cfgs_after_first
        # Only the dirty region rebuilds, not every method's CFG.
        assert 0 < rebuilt < total_methods
        assert session.store.counters.invalidated_methods == len(outcome.touched)
