"""Android component kinds, lifecycle methods, and UI callbacks.

NChecker classifies a network request by which component the call chain
starts in (paper §4.4.2): requests reached from an **Activity** entry
point are user-initiated and time-sensitive; requests reached from a
**Service** entry point are background and should not be retried
aggressively.  This module centralises the framework knowledge needed for
that classification.
"""

from __future__ import annotations

from enum import Enum


class ComponentKind(Enum):
    ACTIVITY = "activity"
    SERVICE = "service"
    RECEIVER = "receiver"
    PROVIDER = "provider"


#: Framework base classes per component kind.
COMPONENT_BASE_CLASSES: dict[ComponentKind, tuple[str, ...]] = {
    ComponentKind.ACTIVITY: (
        "android.app.Activity",
        "android.support.v7.app.AppCompatActivity",
        "android.app.ListActivity",
        "android.app.FragmentActivity",
    ),
    ComponentKind.SERVICE: (
        "android.app.Service",
        "android.app.IntentService",
        "android.app.job.JobService",
    ),
    ComponentKind.RECEIVER: ("android.content.BroadcastReceiver",),
    ComponentKind.PROVIDER: ("android.content.ContentProvider",),
}

#: Lifecycle entry points per component kind (called by the framework).
LIFECYCLE_METHODS: dict[ComponentKind, tuple[str, ...]] = {
    ComponentKind.ACTIVITY: (
        "onCreate",
        "onStart",
        "onResume",
        "onPause",
        "onStop",
        "onDestroy",
        "onRestart",
    ),
    ComponentKind.SERVICE: (
        "onCreate",
        "onStartCommand",
        "onHandleIntent",
        "onBind",
        "onDestroy",
    ),
    ComponentKind.RECEIVER: ("onReceive",),
    ComponentKind.PROVIDER: ("onCreate", "query", "insert", "update", "delete"),
}

#: UI-event callbacks: entry points triggered by direct user interaction.
#: A request reachable from one of these is *user-initiated* even when the
#: declaring class is a listener object rather than the Activity itself.
UI_CALLBACK_METHODS: frozenset[str] = frozenset(
    {
        "onClick",
        "onLongClick",
        "onItemClick",
        "onItemSelected",
        "onMenuItemClick",
        "onOptionsItemSelected",
        "onEditorAction",
        "onRefresh",
        "onQueryTextSubmit",
        "onTouch",
        "onKey",
    }
)

#: Framework superclass edges registered into every app's class hierarchy
#: so `is_subtype` works across the application/framework boundary.
FRAMEWORK_HIERARCHY: tuple[tuple[str, str], ...] = (
    ("android.app.Activity", "android.content.Context"),
    ("android.app.Service", "android.content.Context"),
    ("android.app.IntentService", "android.app.Service"),
    ("android.app.job.JobService", "android.app.Service"),
    ("android.app.ListActivity", "android.app.Activity"),
    ("android.app.FragmentActivity", "android.app.Activity"),
    ("android.support.v7.app.AppCompatActivity", "android.app.Activity"),
    ("android.os.AsyncTask", "java.lang.Object"),
)

#: AsyncTask pseudo-lifecycle: `execute()` leads the framework to call
#: these on the task object (doInBackground off the UI thread, the rest on
#: the UI thread).
ASYNC_TASK_CLASS = "android.os.AsyncTask"
ASYNC_TASK_EXECUTE_METHODS = ("execute", "executeOnExecutor")
ASYNC_TASK_CALLBACKS = (
    "onPreExecute",
    "doInBackground",
    "onProgressUpdate",
    "onPostExecute",
    "onCancelled",
)

#: Runnable/Thread dispatch.
THREAD_CLASS = "java.lang.Thread"
HANDLER_POST_METHODS = ("post", "postDelayed", "postAtTime")
THREAD_START_METHODS = ("start",)
EXECUTOR_SUBMIT_METHODS = ("execute", "submit", "scheduleTask", "schedule")
