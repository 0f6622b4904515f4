"""Call-graph substrate: CHA + Android async pseudo-edges + entry points."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "icc": ("BroadcastSite", "ICCModel", "LaunchSite", "build_icc_model"),
    "cha": (
        "CallEdge",
        "CallGraph",
        "EDGE_ASYNC_TASK",
        "EDGE_DIRECT",
        "EDGE_LIB_CALLBACK",
        "EDGE_RUNNABLE",
    ),
    "entrypoints": (
        "EntryPoint",
        "MethodKey",
        "discover_entry_points",
        "method_key",
    ),
    "reachability": ("CallChain", "chains_to_method"),
    "resolve": ("collect_field_types", "origin_classes"),
})

__all__ = [
    "BroadcastSite",
    "CallChain",
    "CallEdge",
    "CallGraph",
    "EDGE_ASYNC_TASK",
    "EDGE_DIRECT",
    "EDGE_LIB_CALLBACK",
    "EDGE_RUNNABLE",
    "EntryPoint",
    "ICCModel",
    "LaunchSite",
    "build_icc_model",
    "MethodKey",
    "chains_to_method",
    "collect_field_types",
    "discover_entry_points",
    "method_key",
    "origin_classes",
]
