"""Network library models: the annotated API knowledge NChecker runs on.

``default_registry()`` assembles the six libraries studied in the paper
(§3, Table 4) into a :class:`LibraryRegistry`; §4.3's counts — 14 target
APIs, 77 config APIs, 2 response-checking APIs — hold for this registry
and are asserted in the test suite.
"""

from .android import (
    CACHE_READ_APIS,
    CACHE_WRITE_APIS,
    CALLBACK_REGISTRATION_APIS,
    CALLBACK_UNREGISTRATION_APIS,
    CONNECTIVITY_CHECK_APIS,
    HANDLER_CLASSES,
    HANDLER_NOTIFY_METHODS,
    LOG_CLASSES,
    UI_NOTIFICATION_CLASSES,
    UNREGISTER_FOR,
    is_cache_api,
    is_cache_read,
    is_cache_write,
    is_connectivity_check,
    is_handler_notification,
    is_logging,
    is_ui_notification,
    registration_name,
    unregistration_name,
)
from .annotations import (
    CallbackRole,
    CallbackSpec,
    ConfigAPI,
    ConfigKind,
    HttpMethod,
    LibraryDefaults,
    LibraryModel,
    LibraryRegistry,
    ResponseCheckAPI,
    TargetAPI,
)
from .apache import APACHE_HTTPCLIENT
from .asmack import ASMACK, LONG_LIVED_CONNECTION_CLASSES, is_connectivity_monitor
from .asynchttp import ASYNC_HTTP
from .basichttp import BASIC_HTTP
from .capabilities import (
    CAPABILITY_MATRIX,
    EXTENDED_CAPABILITY_MATRIX,
    LIBRARY_COLUMNS,
    NPD_CAUSE_ROWS,
    Tolerance,
    render_table4,
    tolerance,
    tolerates_automatically,
)
from .httpurlconnection import HTTPURLCONNECTION
from .okhttp import OKHTTP
from .volley import VOLLEY, VOLLEY_METHOD_CODES, VOLLEY_REQUEST_CLASSES

ALL_LIBRARIES = (
    HTTPURLCONNECTION,
    APACHE_HTTPCLIENT,
    VOLLEY,
    OKHTTP,
    ASYNC_HTTP,
    BASIC_HTTP,
)

#: Version of the library annotation models.  Bump whenever any model's
#: annotations change (target/config/response APIs, callbacks, defaults):
#: the persistent artifact cache (`repro.pipeline.cachestore`) folds this
#: into every cache key, so stale artifacts derived under older
#: annotations are invalidated instead of silently reused.
LIBMODELS_VERSION = 2  # v2: callbacks_on_main_thread on LibraryModel


def default_registry() -> LibraryRegistry:
    """The registry of all six studied libraries."""
    return LibraryRegistry(ALL_LIBRARIES)


def extended_registry() -> LibraryRegistry:
    """The studied libraries plus the aSmack XMPP model (enables the
    experimental network-switch analysis; changes the §4.3 annotation
    counts, so it is opt-in)."""
    return LibraryRegistry((*ALL_LIBRARIES, ASMACK))


__all__ = [
    "ALL_LIBRARIES",
    "APACHE_HTTPCLIENT",
    "ASMACK",
    "LONG_LIVED_CONNECTION_CLASSES",
    "ASYNC_HTTP",
    "BASIC_HTTP",
    "CACHE_READ_APIS",
    "CACHE_WRITE_APIS",
    "CALLBACK_REGISTRATION_APIS",
    "CALLBACK_UNREGISTRATION_APIS",
    "CAPABILITY_MATRIX",
    "CONNECTIVITY_CHECK_APIS",
    "EXTENDED_CAPABILITY_MATRIX",
    "CallbackRole",
    "CallbackSpec",
    "ConfigAPI",
    "ConfigKind",
    "HANDLER_CLASSES",
    "HANDLER_NOTIFY_METHODS",
    "HTTPURLCONNECTION",
    "HttpMethod",
    "LIBMODELS_VERSION",
    "LIBRARY_COLUMNS",
    "LOG_CLASSES",
    "LibraryDefaults",
    "LibraryModel",
    "LibraryRegistry",
    "NPD_CAUSE_ROWS",
    "OKHTTP",
    "ResponseCheckAPI",
    "TargetAPI",
    "Tolerance",
    "UI_NOTIFICATION_CLASSES",
    "UNREGISTER_FOR",
    "VOLLEY",
    "VOLLEY_METHOD_CODES",
    "VOLLEY_REQUEST_CLASSES",
    "default_registry",
    "extended_registry",
    "is_cache_api",
    "is_cache_read",
    "is_cache_write",
    "is_connectivity_monitor",
    "is_connectivity_check",
    "is_handler_notification",
    "is_logging",
    "is_ui_notification",
    "registration_name",
    "render_table4",
    "tolerance",
    "tolerates_automatically",
    "unregistration_name",
]
