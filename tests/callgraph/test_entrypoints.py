"""Entry-point discovery tests."""

from repro.app import APK, ComponentKind, Manifest
from repro.callgraph import discover_entry_points
from repro.ir import ClassBuilder


def _app():
    manifest = Manifest(
        "com.x", activities=["com.x.Main"], services=["com.x.Sync"]
    )
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    for name, params in (
        ("onCreate", [("android.os.Bundle", "b")]),
        ("onClick", [("android.view.View", "v")]),
        ("helper", []),
    ):
        b = main.method(name, params=params)
        b.ret()
        main.add(b)
    sync = ClassBuilder("com.x.Sync", "android.app.Service")
    b = sync.method(
        "onStartCommand",
        params=[("android.content.Intent", "i"), ("int", "f")],
        return_type="int",
    )
    b.ret(0)
    sync.add(b)
    listener = ClassBuilder("com.x.Listener", interfaces=["android.view.View$OnClickListener"])
    b = listener.method("onClick", params=[("android.view.View", "v")])
    b.ret()
    listener.add(b)
    return APK(manifest, [main.build(), sync.build(), listener.build()])


def entry_points_by_key(apk):
    return {entry.key: entry for entry in discover_entry_points(apk)}


class TestDiscovery:
    def test_lifecycle_methods_are_entries(self):
        entries = entry_points_by_key(_app())
        assert ("com.x.Main", "onCreate", 1) in entries
        assert ("com.x.Sync", "onStartCommand", 2) in entries

    def test_ui_callbacks_are_entries(self):
        entries = entry_points_by_key(_app())
        assert ("com.x.Main", "onClick", 1) in entries
        assert ("com.x.Listener", "onClick", 1) in entries

    def test_plain_helpers_are_not_entries(self):
        entries = entry_points_by_key(_app())
        assert ("com.x.Main", "helper", 0) not in entries

    def test_activity_entries_are_user_initiated(self):
        entries = entry_points_by_key(_app())
        assert entries[("com.x.Main", "onCreate", 1)].user_initiated
        assert entries[("com.x.Main", "onClick", 1)].user_initiated

    def test_service_entries_are_background(self):
        entries = entry_points_by_key(_app())
        entry = entries[("com.x.Sync", "onStartCommand", 2)]
        assert entry.background and not entry.user_initiated

    def test_listener_outside_component_assumed_user(self):
        entries = entry_points_by_key(_app())
        assert entries[("com.x.Listener", "onClick", 1)].user_initiated

    def test_no_duplicates(self):
        entries = discover_entry_points(_app())
        keys = [e.key for e in entries]
        assert len(keys) == len(set(keys))
