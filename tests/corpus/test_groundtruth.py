"""Ground-truth ledger and confusion-arithmetic tests."""

import pytest

from repro.core import DefectKind, NChecker
from repro.corpus.groundtruth import (
    AppGroundTruth,
    Confusion,
    OVER_RETRY_KINDS,
    TABLE9_ROWS,
    confusion_for_app,
    overall_accuracy,
    table9_confusions,
)
from repro.corpus.snippets import Connectivity, RequestSpec

from tests.conftest import single_request_app


class TestConfusion:
    def test_addition(self):
        total = Confusion(1, 2, 3) + Confusion(4, 5, 6)
        assert (total.correct, total.false_positives, total.false_negatives) == (
            5, 7, 9,
        )

    def test_reported(self):
        assert Confusion(10, 2, 1).reported == 12

    def test_overall_accuracy(self):
        table = {"a": Confusion(9, 1, 0), "b": Confusion(0, 0, 5)}
        assert overall_accuracy(table) == pytest.approx(0.9)

    def test_accuracy_with_no_reports_is_one(self):
        assert overall_accuracy({"a": Confusion(0, 0, 3)}) == 1.0


class TestConfusionForApp:
    def _scan(self, spec):
        apk, record = single_request_app(spec)
        truth = AppGroundTruth(apk.package, [record])
        return truth, NChecker().scan(apk)

    def test_perfect_agreement(self):
        truth, result = self._scan(RequestSpec())
        kinds = frozenset({DefectKind.MISSED_CONNECTIVITY_CHECK})
        confusion = confusion_for_app(truth, result, kinds)
        assert (confusion.correct, confusion.false_positives,
                confusion.false_negatives) == (1, 0, 0)

    def test_known_false_negative(self):
        truth, result = self._scan(
            RequestSpec(connectivity=Connectivity.UNGUARDED)
        )
        kinds = frozenset({DefectKind.MISSED_CONNECTIVITY_CHECK})
        confusion = confusion_for_app(truth, result, kinds)
        assert confusion.false_negatives == 1
        assert confusion.correct == 0

    def test_clean_kind_counts_nothing(self):
        truth, result = self._scan(RequestSpec(connectivity=Connectivity.GUARDED))
        kinds = frozenset({DefectKind.MISSED_CONNECTIVITY_CHECK})
        confusion = confusion_for_app(truth, result, kinds)
        assert confusion == Confusion(0, 0, 0)

    def test_over_retry_group_aggregates_three_kinds(self):
        assert OVER_RETRY_KINDS == {
            DefectKind.NO_RETRY_TIME_SENSITIVE,
            DefectKind.OVER_RETRY_SERVICE,
            DefectKind.OVER_RETRY_POST,
        }


class TestTable9Machinery:
    def test_rows_match_paper_layout(self):
        labels = [label for label, _ in TABLE9_ROWS]
        assert labels == [
            "Missed conn. checks",
            "Missed timeout APIs",
            "Missed retry APIs",
            "Over retries",
            "Missed failure notifications",
            "Missed response checks",
        ]

    def test_unmatched_package_skipped(self):
        truth = AppGroundTruth("com.ghost.app", [])
        table = table9_confusions([truth], [])
        assert all(c == Confusion(0, 0, 0) for c in table.values())

    def test_expected_counts(self):
        apk, record = single_request_app(RequestSpec())
        truth = AppGroundTruth(apk.package, [record])
        [request] = truth.requests
        assert DefectKind.MISSED_CONNECTIVITY_CHECK in request.expected
