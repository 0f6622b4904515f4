"""Scan-diff tests."""

import pytest

from repro.core import NChecker, diff_scans
from repro.core.patcher import Patcher
from repro.corpus.snippets import Connectivity, Notification, RequestSpec

from tests.conftest import single_request_app


@pytest.fixture(scope="module")
def checker():
    return NChecker()


class TestDiffScans:
    def test_identical_scans_all_persist(self, checker):
        apk, _ = single_request_app(RequestSpec())
        result = checker.scan(apk)
        diff = diff_scans(result, checker.scan(apk))
        assert diff.fixed == [] and diff.introduced == []
        assert len(diff.persisting) == len(result.findings)

    def test_patch_shows_as_all_fixed(self, checker):
        apk, _ = single_request_app(RequestSpec(library="volley"))
        before = checker.scan(apk)
        fixed_apk, _ = Patcher().patch_until_clean(apk, checker)
        diff = diff_scans(before, checker.scan(fixed_apk))
        assert len(diff.fixed) == len(before.findings)
        assert diff.introduced == [] and diff.persisting == []

    def test_regression_detected(self, checker):
        good, _ = single_request_app(
            RequestSpec(
                connectivity=Connectivity.GUARDED,
                with_timeout=True,
                with_retry=True,
                retry_value=2,
                with_notification=Notification.TOAST,
                with_response_check=True,
            )
        )
        bad, _ = single_request_app(RequestSpec())
        diff = diff_scans(checker.scan(good), checker.scan(bad))
        assert diff.introduced and not diff.fixed

    def test_multiplicity_matching(self, checker):
        """Two same-kind findings in one method match one-for-one."""
        from repro.corpus.appbuilder import AppBuilder

        def build(n_requests):
            app = AppBuilder("com.diff.multi")
            activity = app.activity("MainActivity")
            body = activity.method("onClick", params=[("android.view.View", "v")])
            for i in range(n_requests):
                client = body.new("java.net.HttpURLConnection", f"c{i}")
                body.call(client, "getInputStream", ret=f"in{i}")
            body.ret()
            activity.add(body)
            return app.build()

        two = checker.scan(build(2))
        one = checker.scan(build(1))
        diff = diff_scans(two, one)
        # One of each finding kind fixed, one persists.
        kinds_fixed = sorted(f.kind.value for f in diff.fixed)
        kinds_persist = sorted(f.kind.value for f in diff.persisting)
        assert kinds_fixed == kinds_persist

    def test_render(self, checker):
        apk, _ = single_request_app(RequestSpec())
        diff = diff_scans(checker.scan(apk), checker.scan(apk))
        text = diff.render()
        assert "persisting" in text and "fixed," in text


class TestDiffCLI:
    def test_diff_exit_codes(self, tmp_path, capsys):
        from repro.app import save_apk
        from repro.cli import main

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
        buggy_path = tmp_path / "buggy.apkt"
        clean_path = tmp_path / "clean.apkt"
        save_apk(buggy, buggy_path)
        save_apk(clean, clean_path)

        assert main(["diff", str(buggy_path), str(clean_path)]) == 0  # improved
        out = capsys.readouterr().out
        assert "fixed" in out
        assert main(["diff", str(clean_path), str(buggy_path)]) == 1  # regressed
