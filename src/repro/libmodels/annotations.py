"""API annotations for mobile network libraries (paper §4.3).

NChecker is driven by three kinds of annotated APIs:

* **Target APIs** submit a network request (14 across the six libraries);
* **Config APIs** configure a request/client — timeouts, retry policies,
  and other knobs (77 annotated);
* **Response-checking APIs** test the validity of a response (2).

Each library also declares its *defaults* (what happens when the app
never calls the config APIs) and its callback shapes, which the failure
notification check needs.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional

from .._record import field, record
from ..ir.values import InvokeExpr


class ConfigKind(Enum):
    TIMEOUT = "timeout"
    RETRY = "retry"
    RETRY_EXCEPTION = "retry_exception"
    OTHER = "other"


class HttpMethod(Enum):
    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"
    ANY = "ANY"  # determined by a parameter or unknown


@record(frozen=True)
class TargetAPI:
    """An API that submits a network request."""

    class_name: str
    method: str
    http_method: HttpMethod = HttpMethod.ANY
    #: Argument index holding the HTTP method (Volley's Request ctor style),
    #: or None when `http_method` is fixed by the API name.
    method_param_index: Optional[int] = None
    #: True when the call returns immediately and delivers the response via
    #: callbacks; False for blocking calls.
    is_async: bool = False
    #: Argument indices that may carry listener/callback objects.
    callback_param_indices: tuple[int, ...] = ()
    #: Which object carries the request configuration: None = the call
    #: receiver (the HTTP client); an int = that argument (Volley's
    #: ``queue.add(request)`` configures the *request*, argument 0).
    config_object_param: Optional[int] = None

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.method}"


@record(frozen=True)
class ConfigAPI:
    """An API that configures a client/request object."""

    class_name: str
    method: str
    kind: ConfigKind = ConfigKind.OTHER
    #: Index of the interesting parameter (timeout value, retry count).
    param_index: int = 0
    #: Config kinds this call satisfies beyond its own (Volley's
    #: ``setRetryPolicy`` installs a policy that carries both the timeout
    #: and the retry count).
    also_satisfies: tuple[ConfigKind, ...] = ()

    @property
    def satisfies(self) -> tuple[ConfigKind, ...]:
        return (self.kind, *self.also_satisfies)

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.method}"


@record(frozen=True)
class ResponseCheckAPI:
    """An API that checks response validity before the body is used."""

    class_name: str
    method: str

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.method}"


class CallbackRole(Enum):
    SUCCESS = "success"
    ERROR = "error"
    COMBINED = "combined"  # one callback carries both outcomes


@record(frozen=True)
class CallbackSpec:
    """A library callback interface method (e.g. Volley's
    ``Response.ErrorListener.onErrorResponse``)."""

    interface: str
    method: str
    role: CallbackRole
    #: Parameter index of the error object passed in (for the error-type
    #: usage check), or None.
    error_param_index: Optional[int] = None
    #: Parameter index of the response object passed to success callbacks
    #: (for the invalid-response check on async APIs), or None.
    response_param_index: Optional[int] = None


@record(frozen=True)
class LibraryDefaults:
    """Behaviour when the app never calls the config APIs."""

    #: Default request timeout in milliseconds; None = no timeout
    #: (blocking until TCP gives up — the paper's Cause 3.1).
    timeout_ms: Optional[int] = None
    #: Default automatic retry count applied to every request.
    retries: int = 0
    #: Whether the default retries also apply to POST (non-idempotent)
    #: requests — the paper's Cause 2.2(b).
    retries_apply_to_post: bool = True
    #: Whether the library automatically routes invalid responses into the
    #: error callback (Volley's behaviour — ⋆ in Table 4).
    auto_response_check: bool = False
    #: Default retry backoff multiplier (1.0 = constant interval).
    backoff_multiplier: float = 1.0


@record
class LibraryModel:
    """Everything NChecker knows about one network library."""

    key: str  # short identifier, e.g. "volley"
    name: str  # display name, e.g. "Volley Library"
    client_classes: frozenset[str] = frozenset()
    target_apis: tuple[TargetAPI, ...] = ()
    config_apis: tuple[ConfigAPI, ...] = ()
    response_check_apis: tuple[ResponseCheckAPI, ...] = ()
    callbacks: tuple[CallbackSpec, ...] = ()
    defaults: LibraryDefaults = field(default_factory=LibraryDefaults)
    #: Whether the library exposes error *types* to its error callbacks
    #: (only Volley in the studied set — paper §4.4.3).
    exposes_error_types: bool = False
    #: Which thread the library delivers its callbacks on: ``True`` for
    #: main-thread delivery (Volley, loopj post to the UI thread),
    #: ``False`` for a library worker thread (OkHttp's dispatcher) — the
    #: seed the thread-context analysis uses for ``lib_callback`` edges.
    callbacks_on_main_thread: bool = True

    @property
    def has_timeout_api(self) -> bool:
        return any(c.kind is ConfigKind.TIMEOUT for c in self.config_apis)

    @property
    def has_retry_api(self) -> bool:
        return any(
            c.kind in (ConfigKind.RETRY, ConfigKind.RETRY_EXCEPTION)
            for c in self.config_apis
        )

    @property
    def has_response_check_api(self) -> bool:
        return bool(self.response_check_apis)

    def config_apis_of_kind(self, kind: ConfigKind) -> tuple[ConfigAPI, ...]:
        return tuple(c for c in self.config_apis if c.kind is kind)


class LibraryRegistry:
    """Index of all annotated APIs across the registered libraries.

    Lookup is by ``(class_name, method_name)``; when a call site's declared
    class is unknown (``?``), fallback matching by method name alone is
    used for names that are unambiguous across the registry — this mirrors
    how the original tool resolved call sites against annotations after
    CHA devirtualisation.
    """

    def __init__(self, libraries: Iterable[LibraryModel] = ()) -> None:
        self.libraries: dict[str, LibraryModel] = {}
        self._targets: dict[tuple[str, str], tuple[LibraryModel, TargetAPI]] = {}
        self._configs: dict[tuple[str, str], tuple[LibraryModel, ConfigAPI]] = {}
        self._resp_checks: dict[tuple[str, str], tuple[LibraryModel, ResponseCheckAPI]] = {}
        self._targets_by_name: dict[str, list[tuple[LibraryModel, TargetAPI]]] = {}
        self._configs_by_name: dict[str, list[tuple[LibraryModel, ConfigAPI]]] = {}
        self._resp_by_name: dict[str, list[tuple[LibraryModel, ResponseCheckAPI]]] = {}
        self._callback_methods: dict[tuple[str, str], tuple[LibraryModel, CallbackSpec]] = {}
        for lib in libraries:
            self.register(lib)

    def register(self, lib: LibraryModel) -> None:
        if lib.key in self.libraries:
            raise ValueError(f"duplicate library key {lib.key!r}")
        self.libraries[lib.key] = lib
        for target in lib.target_apis:
            self._targets[(target.class_name, target.method)] = (lib, target)
            self._targets_by_name.setdefault(target.method, []).append((lib, target))
        for config in lib.config_apis:
            self._configs[(config.class_name, config.method)] = (lib, config)
            self._configs_by_name.setdefault(config.method, []).append((lib, config))
        for check in lib.response_check_apis:
            self._resp_checks[(check.class_name, check.method)] = (lib, check)
            self._resp_by_name.setdefault(check.method, []).append((lib, check))
        for callback in lib.callbacks:
            self._callback_methods[(callback.interface, callback.method)] = (lib, callback)

    # -- lookups -------------------------------------------------------------

    def _lookup(self, exact: dict, by_name: dict, invoke: InvokeExpr):
        found = exact.get((invoke.sig.class_name, invoke.sig.name))
        if found is not None:
            return found
        if invoke.sig.class_name != "?":
            # A qualified call site that did not match exactly is some other
            # class's method (e.g. AsyncTask.execute vs HttpClient.execute).
            return None
        candidates = by_name.get(invoke.sig.name, ())
        if len(candidates) >= 1:
            # Unqualified call sites resolve by method name; ambiguity across
            # libraries is tolerated by returning the first registrant (the
            # checks only need *a* consistent library attribution).
            return candidates[0]
        return None

    def find_target(self, invoke: InvokeExpr) -> Optional[tuple[LibraryModel, TargetAPI]]:
        return self._lookup(self._targets, self._targets_by_name, invoke)

    def find_config(self, invoke: InvokeExpr) -> Optional[tuple[LibraryModel, ConfigAPI]]:
        return self._lookup(self._configs, self._configs_by_name, invoke)

    def find_response_check(
        self, invoke: InvokeExpr
    ) -> Optional[tuple[LibraryModel, ResponseCheckAPI]]:
        return self._lookup(self._resp_checks, self._resp_by_name, invoke)

    def find_callback_spec(
        self, interface: str, method: str
    ) -> Optional[tuple[LibraryModel, CallbackSpec]]:
        return self._callback_methods.get((interface, method))

    def callback_interfaces(self) -> set[str]:
        return {iface for iface, _ in self._callback_methods}

    # -- aggregate stats (sanity-checked against the paper's §4.3 counts) ----

    def counts(self) -> dict[str, int]:
        return {
            "target_apis": sum(len(l.target_apis) for l in self.libraries.values()),
            "config_apis": sum(len(l.config_apis) for l in self.libraries.values()),
            "response_check_apis": sum(
                len(l.response_check_apis) for l in self.libraries.values()
            ),
            "libraries": len(self.libraries),
        }
