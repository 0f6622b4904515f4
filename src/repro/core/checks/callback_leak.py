"""Callback-lifecycle typestate analysis (extended taxonomy).

Connectivity callbacks are registered imperatively —
``Context.registerReceiver``, ``ConnectivityManager.
registerNetworkCallback`` — and leak unless the component unregisters
them on its lifecycle exit paths: a receiver registered in ``onResume``
must be released by an ``unregisterReceiver`` reachable from ``onPause``
(or ``onStop``/``onDestroy``); a Service must release in ``onDestroy``.
A leaked callback keeps firing after the component is gone, holds its
reference alive, and drains the battery on every network switch.

The pairing is a typestate over the component class: every registration
site (the :data:`~repro.libmodels.android.CALLBACK_REGISTRATION_APIS`
model) must have a matching unregistration (per
:data:`~repro.libmodels.android.UNREGISTER_FOR`) invoked somewhere in
the call-graph cone of the class's lifecycle exit methods — helper
methods count, exactly like app wrappers count for connectivity checks.
"""

from __future__ import annotations

from ...app.components import ComponentKind
from ...callgraph.entrypoints import MethodKey, method_key
from ...libmodels.android import UNREGISTER_FOR, registration_name, unregistration_name
from ...obs import metrics
from ..defects import DefectKind
from ..findings import Finding
from ..requests import AnalysisContext, NetworkRequest

#: Lifecycle methods on whose cone an unregistration counts as pairing —
#: the paths the framework guarantees to run when the component leaves
#: the foreground or dies.
EXIT_LIFECYCLE_METHODS: dict[ComponentKind, tuple[str, ...]] = {
    ComponentKind.ACTIVITY: ("onPause", "onStop", "onDestroy"),
    ComponentKind.SERVICE: ("onDestroy",),
    # Receivers and providers have no exit lifecycle: a registration
    # inside them can never be paired and is always a leak.
    ComponentKind.RECEIVER: (),
    ComponentKind.PROVIDER: (),
}


class CallbackLeakCheck:
    name = "callback-leak"

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        registry = metrics()
        findings: list[Finding] = []
        for cls in ctx.apk.classes():
            kind = ctx.apk.component_kind_of(cls.name)
            if kind is None:
                continue
            released = self._released_on_exit(ctx, cls, kind)
            for method in cls.methods():
                for idx, invoke in method.invoke_sites():
                    name = registration_name(invoke)
                    if name is None:
                        continue
                    registry.inc("check.callback_leak.registrations")
                    if UNREGISTER_FOR[name] & released:
                        continue
                    key = method_key(method)
                    findings.append(
                        Finding(
                            DefectKind.CALLBACK_LEAK,
                            ctx.apk.package,
                            key,
                            idx,
                            f"{name} in {cls.name}.{method.name} has no "
                            f"pairing unregistration on any lifecycle exit "
                            f"path",
                            context="user"
                            if kind is ComponentKind.ACTIVITY
                            else "background",
                            details={
                                "registration": name,
                                "expected_unregister": sorted(
                                    UNREGISTER_FOR[name]
                                ),
                                "component_kind": kind.value,
                            },
                        )
                    )
                    registry.inc("check.callback_leak.findings")
        return findings

    def _released_on_exit(self, ctx: AnalysisContext, cls, kind) -> set[str]:
        """Unregistration method names invoked anywhere in the call-graph
        cone of the class's lifecycle exit methods."""
        graph = ctx.callgraph
        exits = EXIT_LIFECYCLE_METHODS.get(kind, ())
        cone: set[MethodKey] = set()
        for method in cls.methods():
            if method.name in exits:
                cone |= graph.reachable_from(method_key(method))
        released: set[str] = set()
        for key in cone:
            method = graph.methods.get(key)
            if method is None:
                continue
            for _idx, invoke in method.invoke_sites():
                name = unregistration_name(invoke)
                if name is not None:
                    released.add(name)
        return released
