"""Corpus generator tests: determinism, validity, checker agreement."""

import pytest

from repro.app import dumps_apk
from repro.core import NChecker
from repro.corpus import (
    CorpusGenerator,
    PAPER_PROFILE,
    TABLE9_ROWS,
    confusion_for_app,
)


class TestDeterminism:
    def test_same_seed_same_apps(self):
        g1 = CorpusGenerator(PAPER_PROFILE.scaled(5))
        g2 = CorpusGenerator(PAPER_PROFILE.scaled(5))
        for (a1, _), (a2, _) in zip(g1.iter_apps(), g2.iter_apps()):
            assert dumps_apk(a1) == dumps_apk(a2)

    def test_per_index_independence(self):
        """App N is identical regardless of whether 0..N-1 were generated."""
        gen = CorpusGenerator(PAPER_PROFILE.scaled(10))
        direct = gen.generate_app(7)[0]
        gen2 = CorpusGenerator(PAPER_PROFILE.scaled(10))
        streamed = list(gen2.iter_apps())[7][0]
        assert dumps_apk(direct) == dumps_apk(streamed)

    def test_different_seed_differs(self):
        from repro.corpus.profiles import CorpusProfile

        p1 = PAPER_PROFILE.scaled(3)
        p2 = CorpusProfile(mix=p1.mix, rates=p1.rates, seed=999)
        a1 = CorpusGenerator(p1).generate_app(0)[0]
        a2 = CorpusGenerator(p2).generate_app(0)[0]
        assert dumps_apk(a1) != dumps_apk(a2)


class TestValidity:
    def test_all_apps_validate(self, small_corpus):
        for apk, _ in small_corpus:
            apk.validate()

    def test_every_app_has_requests(self, small_corpus):
        checker = NChecker()
        for apk, truth in small_corpus:
            result = checker.scan(apk)
            assert len(result.requests) == len(truth.requests)

    def test_every_request_reachable(self, small_corpus):
        """Context inference requires every request to be reachable from
        an entry point."""
        checker = NChecker()
        for apk, _ in small_corpus:
            result = checker.scan(apk)
            for request in result.requests:
                assert request.chains, request.location()

    def test_one_request_per_method(self, small_corpus):
        for _apk, truth in small_corpus:
            hosts = [(r.host_class, r.host_method) for r in truth.requests]
            assert len(hosts) == len(set(hosts))


class TestCheckerAgreement:
    def test_zero_divergence_on_statistical_corpus(self, small_corpus):
        """The statistical corpus contains no trap shapes, so tool output
        must equal ground truth exactly."""
        checker = NChecker()
        for apk, truth in small_corpus:
            result = checker.scan(apk)
            for label, kinds in TABLE9_ROWS:
                confusion = confusion_for_app(truth, result, kinds)
                assert confusion.false_positives == 0, (apk.package, label)
                assert confusion.false_negatives == 0, (apk.package, label)


class TestScaling:
    def test_scaled_profile_counts(self):
        profile = PAPER_PROFILE.scaled(57)
        assert profile.mix.n_apps == 57
        assert profile.mix.native == round(270 * 57 / 285)

    def test_corpus_size_matches_profile(self):
        gen = CorpusGenerator(PAPER_PROFILE.scaled(4))
        assert len(gen.generate()) == 4
