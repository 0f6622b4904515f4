"""Origin-class resolution and field-type collection tests."""

from repro.app import APK, Manifest
from repro.callgraph import collect_field_types, origin_classes
from repro.ir import ClassBuilder, Local, MethodBuilder
from repro.libmodels import default_registry
from repro.pipeline import ArtifactStore


def _store():
    """A store over an empty app: its per-method analyses take any method."""
    return ArtifactStore(APK(Manifest("com.x"), []), default_registry())


class TestOriginClasses:
    def test_direct_allocation(self):
        b = MethodBuilder("com.x.C", "m")
        obj = b.new("com.x.Task", "t")
        b.call(obj, "execute")
        b.ret()
        method = b.build()
        idx = [i for i, _ in method.invoke_sites()][-1]
        assert origin_classes(method, idx, Local("t"), _store()) == {"com.x.Task"}

    def test_through_copy(self):
        b = MethodBuilder("com.x.C", "m")
        obj = b.new("com.x.Task", "t")
        b.assign("alias", obj)
        b.call(Local("alias"), "execute", cls="?")
        b.ret()
        method = b.build()
        idx = [i for i, _ in method.invoke_sites()][-1]
        assert origin_classes(method, idx, Local("alias"), _store()) == {"com.x.Task"}

    def test_parameter_uses_type_hint(self):
        b = MethodBuilder(
            "com.x.C", "m", params=[("com.x.Task", "t")]
        )
        b.call(Local("t"), "execute", cls="?")
        b.ret()
        method = b.build()
        assert origin_classes(method, 0, Local("t"), _store()) == {"com.x.Task"}

    def test_typed_call_result(self):
        b = MethodBuilder("com.x.C", "m")
        c = b.new("com.lib.Client", "c")
        b.call(c, "newCall", ret="call", return_type="com.lib.Call")
        b.call(Local("call"), "execute", cls="?")
        b.ret()
        method = b.build()
        idx = [i for i, _ in method.invoke_sites()][-1]
        assert origin_classes(method, idx, Local("call"), _store()) == {"com.lib.Call"}

    def test_field_load_with_field_types(self):
        store_b = MethodBuilder("com.x.C", "setup")
        task = store_b.new("com.x.Task", "t")
        store_b.set_field(Local("this"), "com.x.C", "task", task)
        store_b.ret()
        setup = store_b.build()

        use_b = MethodBuilder("com.x.C", "go")
        t = use_b.get_field(Local("this"), "com.x.C", "task", "t")
        use_b.call(t, "execute", cls="?")
        use_b.ret()
        go = use_b.build()

        field_types = collect_field_types([setup, go])
        assert field_types[("com.x.C", "task")] == "com.x.Task"
        idx = [i for i, _ in go.invoke_sites()][-1]
        assert origin_classes(go, idx, Local("t"), _store(), field_types) == {
            "com.x.Task"
        }

    def test_conflicting_field_stores_dropped(self):
        b1 = MethodBuilder("com.x.C", "a")
        t = b1.new("com.x.T1", "t")
        b1.set_field(Local("this"), "com.x.C", "f", t)
        b1.ret()
        b2 = MethodBuilder("com.x.C", "b")
        t = b2.new("com.x.T2", "t")
        b2.set_field(Local("this"), "com.x.C", "f", t)
        b2.ret()
        field_types = collect_field_types([b1.build(), b2.build()])
        assert ("com.x.C", "f") not in field_types


class TestCache:
    def test_cfg_cached_by_identity(self):
        b = MethodBuilder("com.x.C", "m")
        b.ret()
        method = b.build()
        cache = _store()
        assert cache.cfg(method) is cache.cfg(method)
        assert cache.defuse(method) is cache.defuse(method)
