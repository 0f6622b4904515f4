"""Automated NPD fixing: apply NChecker's fix suggestions at the IR level.

The paper's user study (§5.4) shows the warning reports let inexperienced
developers fix NPDs in under two minutes; this module goes one step
further and applies the suggested fixes mechanically:

* **missed timeout / retry** — insert the library's config call (with the
  policy/handler-object indirection where the library needs one) before
  the request;
* **improper retry parameters** — append a corrected config call
  (0 retries for background/POST, 2 for user requests);
* **missed connectivity check** — guard the request's method with
  ``getActiveNetworkInfo()`` and an early return;
* **missed failure notification** — insert a Toast into the error path
  (catch block, error callback, or ``onPostExecute``);
* **missed response check** — wrap the unchecked use in a null guard;
* **aggressive retry loop** — add an inter-attempt ``Thread.sleep``;
* **missed error-type check** — inspect the error object's type in the
  callback;
* **UI-thread network** — transplant the blocking method body into a
  fresh ``AsyncTask`` subclass's ``doInBackground`` and dispatch it with
  ``execute()`` (the paper's canonical move-off-main-thread fix);
* **callback leak** — inject the pairing unregistration into the
  component's lifecycle exit method, creating the exit method when the
  class has none;
* **missed offline cache** — install an ``LruCache`` write next to the
  guarded request, giving the offline branch a copy to serve.

``Patcher.patch`` never mutates the input app: it works on a clone (via
the ``.apkt`` round trip) and returns it with a ledger of applied and
skipped fixes.  ``Patcher.patch_in_place`` is the mutating core that
``patch_until_clean`` drives: one clone up front, then each round scans
the clone and patches it in place.  ``scan → patch → rescan`` is
expected to converge to zero findings — the property the tests assert
per library and defect kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..app.apk import APK
from ..app.loader import dumps_apk, loads_apk
from ..callgraph.entrypoints import MethodKey
from ..obs import metrics as obs_metrics
from ..obs import span
from ..ir.method import IRMethod
from ..ir.statements import (
    AssignStmt,
    GotoStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
)
from ..ir.transform import fresh_label, insert_statements
from ..ir.values import (
    ConditionExpr,
    Const,
    InstanceOfExpr,
    InvokeExpr,
    KIND_SPECIAL,
    KIND_STATIC,
    KIND_VIRTUAL,
    Local,
    MethodSig,
    NewExpr,
)
from .checker import NChecker, ScanResult
from .defects import DefectKind
from .findings import Finding

_CONN_MGR = "android.net.ConnectivityManager"
_TOAST = "android.widget.Toast"
_LRU_CACHE = "android.util.LruCache"


@dataclass
class AppliedPatch:
    kind: DefectKind
    method: MethodKey
    description: str

    def __str__(self) -> str:
        cls, name, _ = self.method
        return f"[{self.kind.value}] {cls}.{name}: {self.description}"


@dataclass
class PatchResult:
    apk: APK
    applied: list[AppliedPatch] = field(default_factory=list)
    skipped: list[tuple[Finding, str]] = field(default_factory=list)


class Patcher:
    """Applies fix suggestions to a copy of the app."""

    #: Defect kinds this patcher can fix.
    SUPPORTED = frozenset(
        {
            DefectKind.MISSED_CONNECTIVITY_CHECK,
            DefectKind.MISSED_TIMEOUT,
            DefectKind.MISSED_RETRY,
            DefectKind.NO_RETRY_TIME_SENSITIVE,
            DefectKind.OVER_RETRY_SERVICE,
            DefectKind.OVER_RETRY_POST,
            DefectKind.MISSED_NOTIFICATION,
            DefectKind.MISSED_ERROR_TYPE_CHECK,
            DefectKind.MISSED_RESPONSE_CHECK,
            DefectKind.AGGRESSIVE_RETRY_LOOP,
            DefectKind.UI_THREAD_NETWORK,
            DefectKind.CALLBACK_LEAK,
            DefectKind.MISSED_OFFLINE_CACHE,
        }
    )

    def __init__(self, default_timeout_ms: int = 10_000, user_retries: int = 2) -> None:
        self.default_timeout_ms = default_timeout_ms
        self.user_retries = user_retries
        self._label_hint = "npdfix"

    # ------------------------------------------------------------------

    def patch(self, apk: APK, result: ScanResult) -> PatchResult:
        """Apply fixes for ``result``'s findings to a clone of ``apk``."""
        clone = loads_apk(dumps_apk(apk))
        return self.patch_in_place(clone, result)

    def patch_in_place(self, apk: APK, result: ScanResult) -> PatchResult:
        """Apply fixes directly to ``apk``, mutating its methods."""
        outcome = PatchResult(apk)

        with span("patch-round", package=apk.package):
            # Group by target method and apply bottom-up so earlier statement
            # indices stay valid across insertions.
            per_method: dict[MethodKey, list[Finding]] = {}
            for finding in result.findings:
                per_method.setdefault(
                    self._target_method_key(finding), []
                ).append(finding)

            for key, findings in per_method.items():
                method = self._resolve(apk, key)
                if method is None:
                    for finding in findings:
                        outcome.skipped.append((finding, f"method {key} not found"))
                    continue
                for finding in sorted(
                    findings, key=lambda f: self._anchor_index(f), reverse=True
                ):
                    self._apply_one(apk, method, finding, outcome)
                method.validate()
        registry = obs_metrics()
        registry.inc("patcher.rounds")
        registry.inc("patcher.patches_applied", len(outcome.applied))
        return outcome

    def patch_until_clean(
        self,
        apk: APK,
        checker: Optional[NChecker] = None,
        max_rounds: int = 3,
    ) -> tuple[APK, list[AppliedPatch]]:
        """Iterate scan → patch until no findings remain (or give up).

        The input is cloned once; each round scans the clone through the
        checker and patches it in place.  Scan sessions are keyed by the
        app's content, so every patched round gets a fresh session, and a
        clean result stays cached for the caller's next ``scan`` of it.
        """
        checker = checker or NChecker()
        applied: list[AppliedPatch] = []
        working = loads_apk(dumps_apk(apk))
        for _round in range(max_rounds):
            result = checker.scan(working)
            if not result.findings:
                break
            # Drop the session before its app changes under it: it is
            # keyed by the pre-patch content.
            checker.sessions.evict(working.package)
            outcome = self.patch_in_place(working, result)
            applied.extend(outcome.applied)
            if not outcome.applied:
                break  # nothing more we can do
        return working, applied

    # -- dispatch -------------------------------------------------------

    def _apply_one(
        self, apk: APK, method: IRMethod, finding: Finding, outcome: PatchResult
    ) -> None:
        kind = finding.kind
        if kind not in self.SUPPORTED:
            outcome.skipped.append((finding, "unsupported defect kind"))
            return
        try:
            handler = {
                DefectKind.MISSED_CONNECTIVITY_CHECK: self._fix_connectivity,
                DefectKind.MISSED_TIMEOUT: self._fix_timeout,
                DefectKind.MISSED_RETRY: self._fix_retry,
                DefectKind.NO_RETRY_TIME_SENSITIVE: self._fix_retry_value,
                DefectKind.OVER_RETRY_SERVICE: self._fix_retry_value,
                DefectKind.OVER_RETRY_POST: self._fix_retry_value,
                DefectKind.MISSED_NOTIFICATION: self._fix_notification,
                DefectKind.MISSED_ERROR_TYPE_CHECK: self._fix_error_types,
                DefectKind.MISSED_RESPONSE_CHECK: self._fix_response_check,
                DefectKind.AGGRESSIVE_RETRY_LOOP: self._fix_backoff,
                DefectKind.UI_THREAD_NETWORK: self._fix_ui_thread,
                DefectKind.CALLBACK_LEAK: self._fix_callback_leak,
                DefectKind.MISSED_OFFLINE_CACHE: self._fix_offline_cache,
            }[kind]
            description = handler(apk, method, finding)
        except _Unfixable as exc:
            outcome.skipped.append((finding, str(exc)))
            return
        outcome.applied.append(
            AppliedPatch(kind, self._target_method_key(finding), description)
        )

    def _target_method_key(self, finding: Finding) -> MethodKey:
        # Response-check findings anchor at the use site and aggressive-loop
        # findings at the loop's own method — both may differ from the
        # request's method (async callbacks, Fig 6(d) caller loops).
        if finding.request is not None and finding.kind not in (
            DefectKind.MISSED_RESPONSE_CHECK,
            DefectKind.AGGRESSIVE_RETRY_LOOP,
        ):
            return finding.request.key
        return finding.method_key

    def _anchor_index(self, finding: Finding) -> int:
        if finding.kind is DefectKind.MISSED_CONNECTIVITY_CHECK:
            return 0  # method-entry guard: apply after body patches
        if finding.kind is DefectKind.UI_THREAD_NETWORK:
            # Whole-body transplant: apply after every in-body patch so
            # the worker inherits the already-fixed statements.
            return -1
        return finding.stmt_index

    @staticmethod
    def _resolve(apk: APK, key: MethodKey) -> Optional[IRMethod]:
        cls = apk.get_class(key[0])
        if cls is None:
            return None
        return cls.get_method(key[1], key[2])

    # -- concrete fixes ------------------------------------------------------

    def _fix_connectivity(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        """Method-entry guard: bail out early when offline."""
        cont = fresh_label(method, self._label_hint)
        cm = Local("$npd_cm", _CONN_MGR)
        ni = Local("$npd_ni")
        stmts: list[Stmt] = [
            AssignStmt(cm, NewExpr(_CONN_MGR)),
            InvokeStmt(InvokeExpr(KIND_SPECIAL, cm, MethodSig(_CONN_MGR, "<init>"))),
            AssignStmt(
                ni,
                InvokeExpr(
                    KIND_VIRTUAL, cm,
                    MethodSig(_CONN_MGR, "getActiveNetworkInfo", (), "android.net.NetworkInfo"),
                ),
            ),
            IfStmt(ConditionExpr("!=", ni, Const(None)), cont),
            self._default_return(method),
        ]
        insert_statements(method, 0, stmts, new_labels={cont: len(stmts)})
        return "guarded method entry with getActiveNetworkInfo()"

    @staticmethod
    def _default_return(method: IRMethod) -> ReturnStmt:
        rt = method.sig.return_type
        if rt == "void":
            return ReturnStmt()
        if rt in ("int", "long", "short", "byte"):
            return ReturnStmt(Const(0))
        if rt == "boolean":
            return ReturnStmt(Const(False))
        if rt in ("float", "double"):
            return ReturnStmt(Const(0.0))
        return ReturnStmt(Const(None))

    def _fix_timeout(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        request = self._require_request(finding)
        lib_key = request.library.key
        target = self._client_local(method, finding)
        site = self._current_index_of(method, finding)
        if lib_key == "httpurlconnection":
            stmts = [
                _vcall(target, "java.net.HttpURLConnection", "setConnectTimeout",
                       Const(self.default_timeout_ms)),
                _vcall(target, "java.net.HttpURLConnection", "setReadTimeout",
                       Const(self.default_timeout_ms)),
            ]
        elif lib_key == "apache":
            params = Local("$npd_params")
            stmts = [
                AssignStmt(
                    params,
                    InvokeExpr(
                        KIND_VIRTUAL, target,
                        MethodSig(
                            "org.apache.http.impl.client.DefaultHttpClient",
                            "getParams", (), "org.apache.http.params.HttpParams",
                        ),
                    ),
                ),
                InvokeStmt(
                    InvokeExpr(
                        KIND_STATIC, None,
                        MethodSig(
                            "org.apache.http.params.HttpConnectionParams",
                            "setConnectionTimeout", ("?", "?"),
                        ),
                        (params, Const(self.default_timeout_ms)),
                    )
                ),
            ]
        elif lib_key == "volley":
            return self._install_volley_policy(
                method, finding, retries=1, reason="timeout"
            )
        elif lib_key == "okhttp":
            stmts = [
                _vcall(target, "com.squareup.okhttp.OkHttpClient", "setReadTimeout",
                       Const(self.default_timeout_ms)),
            ]
        elif lib_key == "asynchttp":
            stmts = [
                _vcall(target, "com.loopj.android.http.AsyncHttpClient", "setTimeout",
                       Const(self.default_timeout_ms)),
            ]
        else:  # basichttp
            stmts = [
                _vcall(
                    target, "com.turbomanage.httpclient.BasicHttpClient",
                    "setReadWriteTimeout", Const(self.default_timeout_ms),
                ),
            ]
        insert_statements(method, site, stmts, retarget_labels_at_index=True)
        return f"set a {self.default_timeout_ms} ms timeout"

    def _fix_retry(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        request = self._require_request(finding)
        # Retry counts follow the request context (paper §6.1): POSTs and
        # background-only requests get 0 retries, user requests a couple.
        value = self.user_retries
        if request.is_post or (request.background and not request.user_initiated):
            value = 0
        return self._set_retries(method, finding, value)

    def _fix_retry_value(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        request = self._require_request(finding)
        value = self.user_retries
        if finding.kind in (DefectKind.OVER_RETRY_SERVICE, DefectKind.OVER_RETRY_POST):
            value = 0
        return self._set_retries(method, finding, value)

    def _set_retries(self, method: IRMethod, finding: Finding, value: int) -> str:
        request = self._require_request(finding)
        lib_key = request.library.key
        target = self._client_local(method, finding)
        site = self._current_index_of(method, finding)
        if lib_key == "volley":
            return self._install_volley_policy(
                method, finding, retries=value, reason="retries"
            )
        if lib_key == "apache":
            handler = Local("$npd_rh")
            stmts = [
                AssignStmt(
                    handler,
                    NewExpr("org.apache.http.impl.client.DefaultHttpRequestRetryHandler"),
                ),
                InvokeStmt(
                    InvokeExpr(
                        KIND_SPECIAL, handler,
                        MethodSig(
                            "org.apache.http.impl.client.DefaultHttpRequestRetryHandler",
                            "<init>", ("?", "?"),
                        ),
                        (Const(value), Const(False)),
                    )
                ),
                _vcall(
                    target, "org.apache.http.impl.client.DefaultHttpClient",
                    "setHttpRequestRetryHandler", handler,
                ),
            ]
        elif lib_key == "okhttp":
            stmts = [
                _vcall(
                    target, "com.squareup.okhttp.OkHttpClient",
                    "setRetryOnConnectionFailure", Const(value > 0),
                ),
            ]
        elif lib_key == "asynchttp":
            stmts = [
                _vcall(
                    target, "com.loopj.android.http.AsyncHttpClient",
                    "setMaxRetriesAndTimeout", Const(value), Const(1000),
                ),
            ]
        elif lib_key == "basichttp":
            stmts = [
                _vcall(
                    target, "com.turbomanage.httpclient.BasicHttpClient",
                    "setMaxRetries", Const(value),
                ),
            ]
        else:
            raise _Unfixable(f"no retry API for {lib_key}")
        insert_statements(method, site, stmts, retarget_labels_at_index=True)
        return f"set retries to {value}"

    def _install_volley_policy(
        self, method: IRMethod, finding: Finding, retries: int, reason: str
    ) -> str:
        request_local = self._client_local(method, finding)
        site = self._current_index_of(method, finding)
        policy = Local("$npd_policy")
        stmts = [
            AssignStmt(policy, NewExpr("com.android.volley.DefaultRetryPolicy")),
            InvokeStmt(
                InvokeExpr(
                    KIND_SPECIAL, policy,
                    MethodSig(
                        "com.android.volley.DefaultRetryPolicy", "<init>",
                        ("?", "?", "?"),
                    ),
                    (Const(self.default_timeout_ms), Const(retries), Const(1)),
                )
            ),
            _vcall(
                request_local, "com.android.volley.Request", "setRetryPolicy", policy
            ),
        ]
        insert_statements(method, site, stmts, retarget_labels_at_index=True)
        return f"installed DefaultRetryPolicy({self.default_timeout_ms}, {retries}, 1)"

    def _fix_notification(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        request = finding.request
        site = self._current_index_of(method, finding)
        # Preferred spot: the catch block covering the request.
        traps = method.traps_covering(site) if site < len(method.statements) else []
        if traps:
            handler_index = method.label_index(traps[0].handler) + 1  # after bind
            insert_statements(method, handler_index, _toast_statements())
            return "added a Toast to the catch block"
        # Async library: the registered error callback.
        callback = self._error_callback_method(apk, finding)
        if callback is not None:
            insert_statements(callback, 0, _toast_statements())
            return f"added a Toast to {callback.sig.qualified_name}"
        # AsyncTask: onPostExecute.
        cls = apk.get_class(method.class_name)
        if cls is not None and method.name == "doInBackground":
            for name, arity in cls.method_keys():
                if name == "onPostExecute":
                    post = cls.get_method(name, arity)
                    insert_statements(post, 0, _toast_statements())
                    return "added a Toast to onPostExecute"
        raise _Unfixable("no error path to attach a notification to")

    def _fix_error_types(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        callback = self._error_callback_method(apk, finding)
        if callback is None or not callback.params:
            raise _Unfixable("error callback not found")
        error_param = callback.params[0]
        check = AssignStmt(
            Local("$npd_isconn"),
            InstanceOfExpr(error_param, "com.android.volley.NoConnectionError"),
        )
        insert_statements(callback, 0, [check])
        return "inspect the error type (instanceof NoConnectionError)"

    def _fix_response_check(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        # The finding anchors at the *use* site (not the request call), and
        # response-check patches are applied before lower-index insertions,
        # so the recorded index is still valid in the clone.
        site = min(finding.stmt_index, len(method.statements) - 1)
        use = method.statements[site]
        invoke = use.invoke()
        if invoke is None or invoke.base is None:
            # Defensive: find the nearest receiver-call if indices drifted.
            candidates = [
                idx
                for idx, iv in method.invoke_sites()
                if iv.base is not None
            ]
            if not candidates:
                raise _Unfixable("unchecked use is not a method call on the response")
            site = min(candidates, key=lambda idx: abs(idx - finding.stmt_index))
            invoke = method.statements[site].invoke()
        # Emit:  if resp != null goto use; <toast>; goto skip; use: <use>; skip:
        # — the §6.1 guideline shape: an invalid response both skips the
        # dereference *and* tells the user something went wrong.
        use_label = fresh_label(method, self._label_hint)
        skip = fresh_label(method, f"{self._label_hint}skip")
        block: list[Stmt] = [
            IfStmt(ConditionExpr("!=", invoke.base, Const(None)), use_label),
            *_toast_statements(),
            GotoStmt(skip),
        ]
        insert_statements(method, site, block, new_labels={use_label: len(block)})
        # The skip label lands just after the (now shifted) use statement.
        method.labels[skip] = site + len(block) + 1
        return "null-guarded the response dereference (with an error message)"

    def _error_callback_method(self, apk: APK, finding: Finding) -> Optional[IRMethod]:
        """The registered error-callback method for an async request: the
        first class allocated in the request's method that implements a
        known error-callback interface."""
        from ..libmodels import default_registry
        from ..libmodels.annotations import CallbackRole

        registry = default_registry()
        method = self._resolve(apk, self._target_method_key(finding))
        if method is None:
            return None
        for stmt in method.statements:
            if not (isinstance(stmt, AssignStmt) and isinstance(stmt.value, NewExpr)):
                continue
            cls = apk.get_class(stmt.value.class_name)
            if cls is None:
                continue
            interfaces = apk.hierarchy.supertypes(cls.name) | set(cls.interfaces)
            for iface in interfaces:
                for name, arity in cls.method_keys():
                    found = registry.find_callback_spec(iface, name)
                    if found is None:
                        continue
                    _lib, spec = found
                    if spec.role in (CallbackRole.ERROR, CallbackRole.COMBINED):
                        return cls.get_method(name, arity)
        return None

    def _fix_backoff(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        header = finding.details.get("loop_header")
        if header is None:
            raise _Unfixable("loop header unknown")
        sleep = InvokeStmt(
            InvokeExpr(
                KIND_STATIC, None,
                MethodSig("java.lang.Thread", "sleep", ("?",)),
                (Const(5000),),
            )
        )
        insert_statements(method, int(header) + 1, [sleep])
        return "added a 5 s inter-attempt delay"

    # -- extended-taxonomy fixes ---------------------------------------------

    def _fix_ui_thread(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        """Move-off-main-thread: transplant the whole blocking method body
        into a fresh ``AsyncTask`` subclass's ``doInBackground`` and leave
        an ``execute()`` dispatch behind."""
        from ..app.components import ASYNC_TASK_CLASS
        from ..ir.classes import IRClass

        worker_name = f"{method.class_name}$NpdWorker_{method.name}"
        if apk.get_class(worker_name) is not None:
            raise _Unfixable(f"worker class {worker_name} already exists")
        work = IRMethod(
            MethodSig(worker_name, "doInBackground", ("?",), "java.lang.Object"),
            params=[Local("params")],
            statements=list(method.statements),
            labels=dict(method.labels),
            traps=list(method.traps),
        )
        if work.statements and isinstance(work.statements[-1], ReturnStmt):
            # The original return carries the host's return type;
            # normalise to the callback's reference return.
            work.statements[-1] = ReturnStmt(Const(None))
        else:
            work.statements.append(ReturnStmt(Const(None)))
        worker = IRClass(name=worker_name, superclass=ASYNC_TASK_CLASS)
        worker.add_method(work)
        apk.add_class(worker)
        work.validate()

        task = Local("$npd_task", worker_name)
        method.statements = [
            AssignStmt(task, NewExpr(worker_name)),
            InvokeStmt(
                InvokeExpr(KIND_SPECIAL, task, MethodSig(worker_name, "<init>"))
            ),
            InvokeStmt(
                InvokeExpr(KIND_VIRTUAL, task, MethodSig(worker_name, "execute"))
            ),
            self._default_return(method),
        ]
        method.labels = {}
        method.traps = []
        return f"moved the blocking body to {worker_name}.doInBackground"

    def _fix_callback_leak(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        """Inject the pairing unregistration into the component's first
        lifecycle exit method, creating the method if the class has none."""
        from ..app.components import ComponentKind
        from .checks.callback_leak import EXIT_LIFECYCLE_METHODS

        expected = finding.details.get("expected_unregister") or []
        if not expected:
            raise _Unfixable("no known unregistration API for this registration")
        kind_value = finding.details.get("component_kind")
        try:
            component = ComponentKind(kind_value)
        except ValueError:
            raise _Unfixable(f"unknown component kind {kind_value!r}") from None
        exits = EXIT_LIFECYCLE_METHODS.get(component, ())
        if not exits:
            raise _Unfixable(f"{component.value} has no lifecycle exit method")
        cls = apk.get_class(method.class_name)
        if cls is None:
            raise _Unfixable(f"class {method.class_name} not found")
        exit_method = None
        for name in exits:
            for mname, arity in cls.method_keys():
                if mname == name:
                    exit_method = cls.get_method(mname, arity)
                    break
            if exit_method is not None:
                break
        if exit_method is None:
            exit_method = IRMethod(
                MethodSig(method.class_name, exits[0], (), "void"),
                params=[],
                statements=[ReturnStmt()],
            )
            cls.add_method(exit_method)
        insert_statements(exit_method, 0, self._unregister_statements(expected[0]))
        exit_method.validate()
        return f"unregister the callback in {exit_method.name}()"

    @staticmethod
    def _unregister_statements(unregister: str) -> list[Stmt]:
        if unregister == "unregisterReceiver":
            recv = Local("$npd_recv")
            return [
                AssignStmt(recv, NewExpr("android.content.BroadcastReceiver")),
                InvokeStmt(
                    InvokeExpr(
                        KIND_SPECIAL, recv,
                        MethodSig("android.content.BroadcastReceiver", "<init>"),
                    )
                ),
                InvokeStmt(
                    InvokeExpr(
                        KIND_VIRTUAL, Local("this"),
                        MethodSig("android.content.Context", "unregisterReceiver", ("?",)),
                        (recv,),
                    )
                ),
            ]
        cm = Local("$npd_cm", _CONN_MGR)
        cb = Local("$npd_cb")
        callback_cls = "android.net.ConnectivityManager$NetworkCallback"
        return [
            AssignStmt(cm, NewExpr(_CONN_MGR)),
            InvokeStmt(InvokeExpr(KIND_SPECIAL, cm, MethodSig(_CONN_MGR, "<init>"))),
            AssignStmt(cb, NewExpr(callback_cls)),
            InvokeStmt(InvokeExpr(KIND_SPECIAL, cb, MethodSig(callback_cls, "<init>"))),
            InvokeStmt(
                InvokeExpr(
                    KIND_VIRTUAL, cm,
                    MethodSig(_CONN_MGR, unregister, ("?",)),
                    (cb,),
                )
            ),
        ]

    def _fix_offline_cache(self, apk: APK, method: IRMethod, finding: Finding) -> str:
        """Give the guarded request's offline branch something to serve:
        write the response into an ``LruCache`` next to the request."""
        site = self._current_index_of(method, finding)
        cache = Local("$npd_cache", _LRU_CACHE)
        stmts: list[Stmt] = [
            AssignStmt(cache, NewExpr(_LRU_CACHE)),
            InvokeStmt(
                InvokeExpr(KIND_SPECIAL, cache, MethodSig(_LRU_CACHE, "<init>"))
            ),
            _vcall(cache, _LRU_CACHE, "put", Const("latest"), Const("data")),
        ]
        insert_statements(method, site, stmts, retarget_labels_at_index=True)
        return "cache the response for the offline branch (LruCache.put)"

    # -- helpers -------------------------------------------------------------

    def _require_request(self, finding: Finding):
        if finding.request is None:
            raise _Unfixable("finding has no associated request")
        return finding.request

    def _current_index_of(self, method: IRMethod, finding: Finding) -> int:
        """The request statement's index in the (possibly already patched)
        clone: matched by the target API invoke closest to the recorded
        index."""
        request = finding.request
        wanted_name = None
        if request is not None:
            wanted_name = request.invoke.sig.name
        candidates = [
            idx
            for idx, invoke in method.invoke_sites()
            if wanted_name is None or invoke.sig.name == wanted_name
        ]
        if not candidates:
            return min(finding.stmt_index, len(method.statements) - 1)
        return min(candidates, key=lambda idx: abs(idx - finding.stmt_index))

    def _client_local(self, method: IRMethod, finding: Finding) -> Local:
        """The local to configure: the request's config object, following
        OkHttp's call→client indirection one hop back."""
        request = self._require_request(finding)
        site = self._current_index_of(method, finding)
        invoke = method.statements[site].invoke()
        if invoke is None:
            raise _Unfixable("request call site not found in patched method")
        if request.target.config_object_param is not None:
            arg = invoke.args[request.target.config_object_param]
            if isinstance(arg, Local):
                return arg
            raise _Unfixable("config object argument is not a local")
        base = invoke.base
        if base is None:
            raise _Unfixable("static request without a client object")
        if request.library.key == "okhttp":
            # call = client.newCall(...): configure the client.
            for idx in range(site - 1, -1, -1):
                stmt = method.statements[idx]
                if (
                    isinstance(stmt, AssignStmt)
                    and isinstance(stmt.target, Local)
                    and stmt.target == base
                    and isinstance(stmt.value, InvokeExpr)
                    and stmt.value.base is not None
                ):
                    return stmt.value.base
        return base


class _Unfixable(Exception):
    """Raised when a finding cannot be patched mechanically."""


def _vcall(base: Local, cls: str, name: str, *args) -> InvokeStmt:
    return InvokeStmt(
        InvokeExpr(
            KIND_VIRTUAL, base,
            MethodSig(cls, name, tuple("?" for _ in args)),
            tuple(args),
        )
    )


def _toast_statements() -> list[Stmt]:
    toast = Local("$npd_toast")
    return [
        AssignStmt(
            toast,
            InvokeExpr(
                KIND_STATIC, None,
                MethodSig(_TOAST, "makeText", ("?", "?", "?"), _TOAST),
                (Const("ctx"), Const("Network error"), Const(0)),
            ),
        ),
        InvokeStmt(InvokeExpr(KIND_VIRTUAL, toast, MethodSig(_TOAST, "show"))),
    ]
