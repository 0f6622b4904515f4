"""Re-scan: session reuse across repeat scans, and the patch loop's use
of the session cache."""

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.patcher import Patcher
from repro.corpus.generator import CorpusGenerator
from repro.corpus.profiles import PAPER_PROFILE
from repro.corpus.snippets import RequestSpec
from repro.obs import use_metrics

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

    def test_incremental_leaves_input_untouched(self):
        apk = self.apps(1)[0]
        before = dumps_apk(apk)
        Patcher().patch_until_clean(apk, NChecker())
        assert dumps_apk(apk) == before

    def test_clean_result_is_a_session_hit_for_the_closing_scan(self):
        """``nchecker patch`` scans the fixed app once more to count what
        remains; when the loop ended clean, that scan builds nothing."""
        checker = NChecker()
        fixed, applied = Patcher().patch_until_clean(self.apps(1)[0], checker)
        assert applied
        hits = checker.sessions.hits
        with use_metrics() as registry:
            result = checker.scan(fixed)
        assert not result.findings
        assert checker.sessions.hits == hits + 1
        builds = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("artifact.") and name.endswith(".builds")
        }
        assert not any(builds.values()), builds

    def test_no_cached_session_outlives_a_patch(self):
        """A loop cut off right after a patch leaves no session keyed by
        the pre-patch content over the patched app: a later scan of the
        original still sees the original's findings."""
        apk = self.apps(1)[0]
        checker = NChecker()
        Patcher().patch_until_clean(apk, checker, max_rounds=1)
        rescanned = checker.scan(apk)
        assert rescanned.apk is apk
        assert rescanned.to_dict() == NChecker().scan(apk).to_dict()
