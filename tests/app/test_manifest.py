"""Manifest model tests."""

from repro.app import ComponentKind, Manifest


class TestManifest:
    def test_component_kind_lookup(self):
        m = Manifest("com.x", activities=["com.x.Main"], services=["com.x.Sync"])
        assert m.component_kind("com.x.Main") is ComponentKind.ACTIVITY
        assert m.component_kind("com.x.Sync") is ComponentKind.SERVICE
        assert m.component_kind("com.x.Helper") is None

    def test_declare_idempotent(self):
        m = Manifest("com.x")
        m.declare(ComponentKind.ACTIVITY, "com.x.Main")
        m.declare(ComponentKind.ACTIVITY, "com.x.Main")
        assert m.activities == ["com.x.Main"]

    def test_components_iteration_order(self):
        m = Manifest(
            "com.x",
            activities=["com.x.A"],
            services=["com.x.S"],
            receivers=["com.x.R"],
        )
        kinds = [k for k, _ in m.components()]
        assert kinds == [
            ComponentKind.ACTIVITY,
            ComponentKind.SERVICE,
            ComponentKind.RECEIVER,
        ]

    def test_internet_permission(self):
        m = Manifest("com.x", permissions=["android.permission.INTERNET"])
        assert "android.permission.INTERNET" in m.permissions
        assert "android.permission.INTERNET" not in Manifest("com.y").permissions
