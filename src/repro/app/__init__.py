"""Android application model: manifests, components, APK containers."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "apk": ("APK",),
    "components": (
        "ASYNC_TASK_CALLBACKS",
        "ASYNC_TASK_CLASS",
        "ASYNC_TASK_EXECUTE_METHODS",
        "COMPONENT_BASE_CLASSES",
        "ComponentKind",
        "FRAMEWORK_HIERARCHY",
        "LIFECYCLE_METHODS",
        "UI_CALLBACK_METHODS",
    ),
    "loader": ("dumps_apk", "load_apk", "loads_apk", "save_apk"),
    "manifest": ("Manifest",),
})

__all__ = [
    "APK",
    "ASYNC_TASK_CALLBACKS",
    "ASYNC_TASK_CLASS",
    "ASYNC_TASK_EXECUTE_METHODS",
    "COMPONENT_BASE_CLASSES",
    "ComponentKind",
    "FRAMEWORK_HIERARCHY",
    "LIFECYCLE_METHODS",
    "Manifest",
    "UI_CALLBACK_METHODS",
    "dumps_apk",
    "load_apk",
    "loads_apk",
    "save_apk",
]
