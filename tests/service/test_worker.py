"""The daemon's scan function, called in-process: its long-lived
per-options checkers must never serve one upload's findings for
another."""

import pytest

from repro.core.checker import NCheckerOptions
from repro.service import worker
from repro.service.worker import execute_scan

from ..conftest import newsreader_texts


@pytest.fixture()
def fresh_checkers():
    """Start and end with no warm checkers, as a new worker would."""
    worker._CHECKERS.clear()
    yield
    worker._CHECKERS.clear()


def scan(text):
    return execute_scan(text, "newsreader.apkt", NCheckerOptions())


class TestResubmission:
    def test_edited_resubmission_gets_its_own_findings(self, fresh_checkers):
        original, edited = newsreader_texts()
        assert scan(original).n_findings == 5
        resubmitted = scan(edited)
        assert resubmitted.n_findings == 6
        worker._CHECKERS.clear()
        assert resubmitted.json_dict == scan(edited).json_dict

    def test_unchanged_resubmission_reuses_the_session(self, fresh_checkers):
        original, _edited = newsreader_texts()
        first = scan(original)
        second = scan(original)
        assert second.json_dict == first.json_dict
        [checker] = worker._CHECKERS.values()
        assert (checker.sessions.misses, checker.sessions.hits) == (1, 1)
