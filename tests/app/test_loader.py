"""``.apkt`` loader/saver tests."""

import pytest

from repro.app import dumps_apk, load_apk, loads_apk, save_apk
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import RequestSpec, inject_request
from repro.ir import ParseError

MINIMAL = """\
apk com.example.mini

manifest {
  permission android.permission.INTERNET
  activity com.example.mini.Main
}

class com.example.mini.Main extends android.app.Activity {
  method void onClick(android.view.View v) {
    c = new com.turbomanage.httpclient.BasicHttpClient
    invoke special c:com.turbomanage.httpclient.BasicHttpClient#<init>()
    r = invoke virtual c:com.turbomanage.httpclient.BasicHttpClient#get('http://x')
    return
  }
}
"""


class TestLoads:
    def test_minimal_document(self):
        apk = loads_apk(MINIMAL)
        assert apk.package == "com.example.mini"
        assert "android.permission.INTERNET" in apk.manifest.permissions
        assert apk.get_class("com.example.mini.Main") is not None

    def test_missing_apk_header_rejected(self):
        with pytest.raises(ParseError, match="missing apk header"):
            loads_apk("class com.x.A {\n}")

    def test_manifest_before_header_rejected(self):
        with pytest.raises(ParseError):
            loads_apk("manifest {\n}\napk com.x")

    def test_malformed_manifest_entry_rejected(self):
        with pytest.raises(ParseError, match="malformed manifest"):
            loads_apk("apk com.x\nmanifest {\n  widget com.x.W\n}")

    def test_manifest_class_missing_is_an_error_at_its_line(self):
        text = MINIMAL.replace("activity com.example.mini.Main",
                               "activity com.example.mini.Gone")
        with pytest.raises(ParseError) as excinfo:
            loads_apk(text)
        assert excinfo.value.line_no == 5
        assert str(excinfo.value) == (
            "line 5: manifest declares missing class: "
            "'activity com.example.mini.Gone'"
        )

    def test_round_trip(self):
        apk = loads_apk(MINIMAL)
        again = loads_apk(dumps_apk(apk))
        assert dumps_apk(again) == dumps_apk(apk)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        app = AppBuilder("com.example.filed")
        activity = app.activity("Main")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        inject_request(app, body, RequestSpec(), user_initiated=True)
        body.ret()
        activity.add(body)
        apk = app.build()

        path = tmp_path / "app.apkt"
        save_apk(apk, path)
        loaded = load_apk(path)
        assert loaded.package == apk.package
        assert dumps_apk(loaded) == dumps_apk(apk)

    def test_generated_corpus_apps_round_trip(self, small_corpus):
        """Every generated app survives serialise → parse → serialise."""
        for apk, _truth in small_corpus[:5]:
            text = dumps_apk(apk)
            again = loads_apk(text)
            assert dumps_apk(again) == text
