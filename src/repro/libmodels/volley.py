"""Model of Google's Volley library.

Asynchronous API: requests are constructed with success and error
listeners and submitted via ``RequestQueue.add``.  Volley's
``DefaultRetryPolicy`` gives every request a 2500 ms timeout and one
retry (backoff ×1) — the defaults Figure 3 of the paper measures — and it
is the only studied library that routes invalid responses into the error
callback automatically and exposes typed errors (``NoConnectionError``,
``TimeoutError``, ``ServerError``...) to it.
"""

from __future__ import annotations

from .annotations import (
    CallbackRole,
    CallbackSpec,
    ConfigAPI,
    ConfigKind,
    HttpMethod,
    LibraryDefaults,
    LibraryModel,
    TargetAPI,
)

_QUEUE = "com.android.volley.RequestQueue"
_REQUEST = "com.android.volley.Request"
_POLICY = "com.android.volley.DefaultRetryPolicy"
_ERROR_LISTENER = "com.android.volley.Response$ErrorListener"
_LISTENER = "com.android.volley.Response$Listener"

#: Volley request classes whose constructor's first argument selects the
#: HTTP method (Request.Method.GET = 0, POST = 1, PUT = 2, DELETE = 3).
VOLLEY_METHOD_CODES = {0: HttpMethod.GET, 1: HttpMethod.POST, 2: HttpMethod.PUT, 3: HttpMethod.DELETE}
VOLLEY_REQUEST_CLASSES = frozenset(
    {
        "com.android.volley.toolbox.StringRequest",
        "com.android.volley.toolbox.JsonObjectRequest",
        "com.android.volley.toolbox.JsonArrayRequest",
        "com.android.volley.toolbox.ImageRequest",
    }
)

VOLLEY = LibraryModel(
    key="volley",
    name="Volley Library",
    client_classes=frozenset({_QUEUE, _REQUEST}) | VOLLEY_REQUEST_CLASSES,
    target_apis=(
        TargetAPI(
            _QUEUE,
            "add",
            HttpMethod.ANY,
            is_async=True,
            callback_param_indices=(0,),
            config_object_param=0,
        ),
    ),
    config_apis=(
        ConfigAPI(
            _REQUEST,
            "setRetryPolicy",
            ConfigKind.RETRY,
            also_satisfies=(ConfigKind.TIMEOUT,),
        ),
        ConfigAPI(_POLICY, "<init>", ConfigKind.TIMEOUT, param_index=0),
        ConfigAPI(_REQUEST, "setShouldCache", ConfigKind.OTHER),
        ConfigAPI(_REQUEST, "setTag", ConfigKind.OTHER),
        ConfigAPI(_REQUEST, "setPriority", ConfigKind.OTHER),
        ConfigAPI(_REQUEST, "setSequence", ConfigKind.OTHER),
        ConfigAPI(_REQUEST, "setRequestQueue", ConfigKind.OTHER),
        ConfigAPI(_QUEUE, "start", ConfigKind.OTHER),
        ConfigAPI(_QUEUE, "stop", ConfigKind.OTHER),
        ConfigAPI(_QUEUE, "cancelAll", ConfigKind.OTHER),
    ),
    callbacks=(
        CallbackSpec(_ERROR_LISTENER, "onErrorResponse", CallbackRole.ERROR, 0),
        CallbackSpec(_LISTENER, "onResponse", CallbackRole.SUCCESS),
    ),
    defaults=LibraryDefaults(
        timeout_ms=2500,
        retries=1,
        retries_apply_to_post=True,  # DefaultRetryPolicy is method-agnostic
        auto_response_check=True,
        backoff_multiplier=1.0,
    ),
    exposes_error_types=True,
)
