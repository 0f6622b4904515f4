"""IR runtime: execute synthetic apps against the simulated network.

The paper classifies NPDs by the user-visible symptom they cause (Fig 4:
dysfunction, unfriendly UI, crash/freeze, battery drain).  This module
closes the loop: it *runs* an app method from our IR on a virtual clock,
routing its network-library calls through :mod:`repro.netsim.http`, and
records what a user would experience — so integration tests can show
that, e.g., a request without a response check really crashes with a
null dereference when the link is lossy, and a backoff-free reconnect
loop really spins.

Library semantics implemented:

* blocking targets raise ``SimulatedIOException`` on failure — except
  Basic HTTP, which returns null (its real API surfaces errors through
  the response object), exercising the invalid-response crash path;
* config APIs accumulate a :class:`RequestPolicy` on the client/request;
* Volley requests are asynchronous: completion fires the registered
  listener / error listener on the event loop;
* ``Thread.sleep`` advances the virtual clock;
* Toast/dialog/Handler calls are recorded as user notifications.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from .._record import field, record
from ..app.apk import APK
from ..ir.method import IRMethod
from ..ir.statements import (
    AssignStmt,
    GotoStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)
from ..ir.values import (
    ArrayRef,
    BinaryExpr,
    CastExpr,
    CaughtExceptionExpr,
    ConditionExpr,
    Const,
    FieldRef,
    InstanceOfExpr,
    InvokeExpr,
    LengthExpr,
    Local,
    NewArrayExpr,
    NewExpr,
    UnaryExpr,
    Value,
)
from ..libmodels import default_registry
from ..libmodels.android import (
    is_connectivity_check,
    is_handler_notification,
    is_ui_notification,
)
from ..libmodels.annotations import ConfigKind, LibraryRegistry
from .events import EventLoop
from .http import HttpClientSim, RequestPolicy, RequestResult
from .link import LinkProfile


class SimulatedIOException(Exception):
    """java.io.IOException stand-in."""

    java_type = "java.io.IOException"


class SimulatedNullPointer(Exception):
    """java.lang.NullPointerException stand-in (never an IOException, so
    ordinary catch-IOException blocks do not save the app)."""

    java_type = "java.lang.NullPointerException"


class BudgetExceeded(Exception):
    """The statement budget ran out (spinning loop)."""


@record
class SimObject:
    """A heap object."""

    class_name: str
    fields: dict[str, Any] = field(default_factory=dict)
    ctor_args: tuple = ()
    policy: Optional[RequestPolicy] = None


@record
class RunReport:
    """What the user experienced during one entry-point execution."""

    crashed: bool = False
    crash_type: Optional[str] = None
    notifications: int = 0
    handler_messages: int = 0
    network_attempts: int = 0
    network_failures: int = 0
    requests_succeeded: int = 0
    #: Total time the radio spent actively transmitting/waiting (ms) —
    #: the energy model's main input.
    radio_active_ms: float = 0.0
    sim_time_ms: float = 0.0
    statements_executed: int = 0
    budget_exhausted: bool = False

    @property
    def user_notified_of_failure(self) -> bool:
        return self.notifications > 0 or self.handler_messages > 0

    @property
    def silent_failure(self) -> bool:
        return (
            self.network_failures > 0
            and not self.crashed
            and not self.user_notified_of_failure
        )

    @property
    def attempts_per_minute(self) -> float:
        return 60_000.0 * self.network_attempts / max(self.sim_time_ms, 1.0)

    @property
    def battery_drain(self) -> bool:
        """The Telegram symptom: an unbounded, *rapid* stream of reconnect
        attempts.  A loop with exponential backoff also never terminates
        offline, but its attempt rate collapses, which is exactly the fix
        the paper prescribes — so rate is the discriminating metric."""
        return (
            self.budget_exhausted
            and self.network_attempts >= 25
            and self.attempts_per_minute > 3.0
        )


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _JavaThrow(Exception):
    def __init__(self, exc_type: str, payload: Any = None) -> None:
        self.exc_type = exc_type
        self.payload = payload


class Runtime:
    """Interprets app methods over the simulated network environment."""

    def __init__(
        self,
        apk: APK,
        link,
        registry: Optional[LibraryRegistry] = None,
        seed: int = 0,
        statement_budget: int = 20_000,
        request_size_bytes: int = 16 * 1024,
        invalid_response_rate: float = 0.0,
    ) -> None:
        from .link import LinkSchedule

        self.apk = apk
        self.schedule = (
            link if isinstance(link, LinkSchedule) else LinkSchedule.constant(link)
        )
        #: Probability that a *completed* request carries an HTTP error
        #: (5xx) whose body is invalid — the crash mechanism behind the
        #: paper's Cause 3.3 when the transport itself survives.
        self.invalid_response_rate = invalid_response_rate
        self.registry = registry or default_registry()
        self.rng = random.Random(seed)
        self.loop = EventLoop()
        self.report = RunReport()
        self.statement_budget = statement_budget
        self.request_size_bytes = request_size_bytes
        self._budget = statement_budget
        self._depth = 0
        #: App-frame depth cap: exceeding it raises the Java
        #: StackOverflowError (and protects the host interpreter's stack).
        self.max_call_depth = 128

    @property
    def link(self) -> LinkProfile:
        """The network the device is on at the current virtual time."""
        return self.schedule.link_at(self.loop.now)

    @property
    def network_epoch(self) -> int:
        """The current network incarnation (changes on every switch)."""
        return self.schedule.segment_index(self.loop.now)

    # -- public API -----------------------------------------------------------

    def run_entry(self, class_name: str, method_name: str) -> RunReport:
        """Execute one entry point to completion (plus any async work)."""
        cls = self.apk.get_class(class_name)
        if cls is None:
            raise KeyError(f"no class {class_name}")
        method = next(
            (m for m in cls.methods() if m.name == method_name), None
        )
        if method is None:
            raise KeyError(f"no method {class_name}.{method_name}")
        receiver = SimObject(class_name)
        args = [SimObject("android.stub.Arg") for _ in method.params]
        try:
            self.invoke_method(method, receiver, args)
            self.loop.run(max_events=1000)
        except _JavaThrow as exc:
            self.report.crashed = True
            self.report.crash_type = exc.exc_type
        except BudgetExceeded:
            self.report.budget_exhausted = True
        self.report.sim_time_ms = self.loop.now
        self.report.statements_executed = self.statement_budget - self._budget
        return self.report

    # -- interpretation ---------------------------------------------------------

    def invoke_method(
        self, method: IRMethod, receiver: Any, args: list[Any]
    ) -> Any:
        self._depth += 1
        try:
            if self._depth > self.max_call_depth:
                raise _JavaThrow("java.lang.StackOverflowError")
            return self._invoke_method_body(method, receiver, args)
        finally:
            self._depth -= 1

    def _invoke_method_body(
        self, method: IRMethod, receiver: Any, args: list[Any]
    ) -> Any:
        env: dict[str, Any] = {"this": receiver}
        for param, value in zip(method.params, args):
            env[param.name] = value
        pc = 0
        statements = method.statements
        while True:
            if self._budget <= 0:
                raise BudgetExceeded()
            self._budget -= 1
            if pc >= len(statements):
                return None
            stmt = statements[pc]
            try:
                next_pc = self._step(method, env, pc, stmt)
            except _Return as ret:
                return ret.value
            except _JavaThrow as exc:
                handler = self._find_handler(method, pc, exc.exc_type)
                if handler is None:
                    raise
                env["@caught"] = exc
                next_pc = handler
            pc = next_pc

    def _step(self, method: IRMethod, env: dict, pc: int, stmt: Stmt) -> int:
        if isinstance(stmt, NopStmt):
            return pc + 1
        if isinstance(stmt, GotoStmt):
            return method.label_index(stmt.target)
        if isinstance(stmt, ReturnStmt):
            value = self._eval(env, stmt.value) if stmt.value is not None else None
            raise _Return(value)
        if isinstance(stmt, ThrowStmt):
            payload = self._eval(env, stmt.value)
            exc_type = (
                payload.class_name if isinstance(payload, SimObject) else
                "java.lang.Exception"
            )
            raise _JavaThrow(exc_type, payload)
        if isinstance(stmt, IfStmt):
            if self._truth(env, stmt.condition):
                return method.label_index(stmt.target)
            return pc + 1
        if isinstance(stmt, InvokeStmt):
            self._invoke(method, env, stmt.expr)
            return pc + 1
        if isinstance(stmt, AssignStmt):
            self._assign(method, env, stmt)
            return pc + 1
        raise TypeError(f"cannot interpret {stmt!r}")

    def _assign(self, method: IRMethod, env: dict, stmt: AssignStmt) -> None:
        value = stmt.value
        if isinstance(value, CaughtExceptionExpr):
            result = env.get("@caught")
        elif isinstance(value, InvokeExpr):
            result = self._invoke(method, env, value)
        else:
            result = self._eval(env, value)
        target = stmt.target
        if isinstance(target, Local):
            env[target.name] = result
        elif isinstance(target, FieldRef):
            base = self._eval(env, target.base) if target.base else None
            if isinstance(base, SimObject):
                base.fields[target.sig.name] = result
        elif isinstance(target, ArrayRef):
            base = env.get(target.base.name)
            index = self._eval(env, target.index)
            if isinstance(base, list) and isinstance(index, int):
                base[index] = result

    def _eval(self, env: dict, value: Optional[Value]) -> Any:
        if value is None:
            return None
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Local):
            return env.get(value.name)
        if isinstance(value, NewExpr):
            return SimObject(value.class_name)
        if isinstance(value, NewArrayExpr):
            size = self._eval(env, value.size)
            return [None] * int(size or 0)
        if isinstance(value, FieldRef):
            base = self._eval(env, value.base) if value.base else None
            if base is None and value.base is not None:
                raise _JavaThrow(SimulatedNullPointer.java_type)
            if isinstance(base, SimObject):
                return base.fields.get(value.sig.name)
            return None
        if isinstance(value, ArrayRef):
            base = env.get(value.base.name)
            index = self._eval(env, value.index)
            if isinstance(base, list):
                return base[int(index or 0)]
            return None
        if isinstance(value, BinaryExpr):
            return _binop(
                value.op, self._eval(env, value.left), self._eval(env, value.right)
            )
        if isinstance(value, UnaryExpr):
            operand = self._eval(env, value.operand)
            return -operand if value.op == "neg" else not operand
        if isinstance(value, CastExpr):
            return self._eval(env, value.value)
        if isinstance(value, InstanceOfExpr):
            inner = self._eval(env, value.value)
            return (
                isinstance(inner, SimObject)
                and self.apk.hierarchy.is_subtype(inner.class_name, value.type_name)
            )
        if isinstance(value, LengthExpr):
            inner = self._eval(env, value.value)
            return len(inner) if isinstance(inner, list) else 0
        if isinstance(value, CaughtExceptionExpr):
            return env.get("@caught")
        raise TypeError(f"cannot evaluate {value!r}")

    def _truth(self, env: dict, cond: ConditionExpr) -> bool:
        left = self._eval(env, cond.left)
        right = self._eval(env, cond.right)
        if cond.op == "==":
            if isinstance(left, SimObject) or isinstance(right, SimObject):
                return left is right
            return left == right
        if cond.op == "!=":
            return not self._truth(env, ConditionExpr("==", cond.left, cond.right))
        try:
            if cond.op == "<":
                return left < right
            if cond.op == "<=":
                return left <= right
            if cond.op == ">":
                return left > right
            if cond.op == ">=":
                return left >= right
        except TypeError:
            return False
        raise ValueError(f"unknown condition {cond.op}")

    def _find_handler(self, method: IRMethod, pc: int, exc_type: str) -> Optional[int]:
        for trap in method.traps_covering(pc):
            if _catches(trap.exc_type, exc_type):
                return method.label_index(trap.handler)
        return None

    # -- invocation dispatch -----------------------------------------------------

    def _invoke(self, method: IRMethod, env: dict, expr: InvokeExpr) -> Any:
        base = self._eval(env, expr.base) if expr.base is not None else None
        args = [self._eval(env, a) for a in expr.args]
        name = expr.sig.name

        # Null receiver on an instance call: NullPointerException — the
        # missed-response-check crash (paper Cause 3.3).
        if expr.base is not None and base is None and not expr.is_constructor:
            raise _JavaThrow(SimulatedNullPointer.java_type)

        # Response-object semantics: validity checks read the status;
        # reading the *body* of an HTTP-error response blows up downstream
        # (the invalid-payload parse crash of Cause 3.3).
        if isinstance(base, SimObject) and "status" in base.fields:
            status = base.fields["status"]
            if self.registry.find_response_check(expr) is not None:
                return status if name == "getStatus" else status < 400
            if (
                status >= 400
                and base.fields.get("fragile")
                and name not in ("toString",)
            ):
                raise _JavaThrow(SimulatedNullPointer.java_type)

        # Constructors: remember arguments (listeners, policy values).
        if expr.is_constructor:
            if isinstance(base, SimObject):
                base.ctor_args = tuple(args)
            return None

        # App-defined methods: interpret recursively.
        app_method = self._resolve_app_method(method, expr, base)
        if app_method is not None:
            return self.invoke_method(app_method, base, args)

        # Android async dispatch: task.execute() runs doInBackground and
        # hands its result to onPostExecute; thread.start()/handler.post(r)
        # run the runnable.
        dispatched = self._dispatch_android_async(expr, base, args)
        if dispatched is not _UNHANDLED:
            return dispatched

        # Android framework bits.
        if is_connectivity_check(expr):
            if name in ("getActiveNetworkInfo", "getNetworkInfo"):
                return SimObject("android.net.NetworkInfo") if self.link.connected else None
            return self.link.connected
        if is_ui_notification(expr):
            if name != "makeText":  # showing, not constructing
                self.report.notifications += 1
            return SimObject(expr.sig.class_name)
        if is_handler_notification(expr):
            self.report.handler_messages += 1
            return None
        if expr.sig.class_name == "java.lang.Thread" and name == "sleep":
            delay = args[0] if isinstance(args[0], (int, float)) else 0
            # Clamp runaway backoff values (2^n ms grows past float range
            # long before the statement budget runs out).
            self.loop.advance(float(min(delay, 3_600_000)))
            return None
        if name == "random" and expr.sig.class_name == "java.lang.Math":
            # The corpus uses Math.random() as a shouldRetry() stand-in.
            return self.rng.random() < 0.5

        # Network library APIs.
        result = self._library_call(expr, base, args)
        if result is not _UNHANDLED:
            return result

        # Unknown library call: return an opaque object.  Objects derived
        # from a configured client (OkHttp's `client.newCall(...)`) carry
        # the client's policy forward.
        opaque = SimObject(f"opaque.{expr.sig.class_name}.{name}")
        if isinstance(base, SimObject) and base.policy is not None:
            opaque.policy = base.policy
        return opaque

    def _dispatch_android_async(self, expr: InvokeExpr, base: Any, args: list[Any]):
        """AsyncTask / Thread / Handler semantics, executed on the virtual
        clock (synchronously in program order — single-threaded model)."""
        from ..app.components import (
            ASYNC_TASK_EXECUTE_METHODS,
            HANDLER_POST_METHODS,
            THREAD_START_METHODS,
        )

        name = expr.sig.name
        if (
            name in ASYNC_TASK_EXECUTE_METHODS
            and isinstance(base, SimObject)
        ):
            cls = self.apk.get_class(base.class_name)
            if cls is not None:
                background = next(
                    (m for m in cls.methods() if m.name == "doInBackground"), None
                )
                if background is not None:
                    result = self.invoke_method(
                        background, base, [None] * len(background.params)
                    )
                    post = next(
                        (m for m in cls.methods() if m.name == "onPostExecute"), None
                    )
                    if post is not None:
                        call_args = [result] * len(post.params)
                        self.loop.schedule(
                            0.0,
                            lambda: self.invoke_method(post, base, call_args),
                        )
                    return None
        if name in THREAD_START_METHODS or name in HANDLER_POST_METHODS:
            candidates = [base] if name in THREAD_START_METHODS else []
            candidates.extend(a for a in args if isinstance(a, SimObject))
            for candidate in candidates:
                if not isinstance(candidate, SimObject):
                    continue
                cls = self.apk.get_class(candidate.class_name)
                if cls is None:
                    continue
                run = cls.get_method("run", 0)
                if run is not None:
                    self.loop.schedule(
                        0.0, lambda r=run, c=candidate: self.invoke_method(r, c, [])
                    )
                    return None
        return _UNHANDLED

    def _resolve_app_method(
        self, caller: IRMethod, expr: InvokeExpr, base: Any
    ) -> Optional[IRMethod]:
        cls_name = expr.sig.class_name
        if cls_name == "?" and isinstance(base, SimObject):
            cls_name = base.class_name
        if cls_name == "?" and expr.base is not None and expr.base.name == "this":
            cls_name = caller.class_name
        if cls_name not in self.apk.hierarchy:
            return None
        return self.apk.hierarchy.resolve_method(
            cls_name, expr.sig.name, expr.sig.arity
        )

    # -- network library semantics -------------------------------------------------

    def _library_call(self, expr: InvokeExpr, base: Any, args: list[Any]) -> Any:
        config = self.registry.find_config(expr)
        if config is not None and isinstance(base, SimObject):
            self._apply_config(base, config[1], args)
            return None
        if config is not None and base is None:
            # Static config (Apache HttpConnectionParams): attach to the
            # params object argument.
            for arg in args:
                if isinstance(arg, SimObject):
                    self._apply_config(arg, config[1], args[1:])
                    break
            return None

        target = self.registry.find_target(expr)
        if target is not None:
            return self._perform_request(expr, target[0], target[1], base, args)
        return _UNHANDLED

    def _apply_config(self, obj: SimObject, config, args: list[Any]) -> None:
        policy = obj.policy or RequestPolicy(timeout_ms=None, max_retries=0)
        if ConfigKind.TIMEOUT in config.satisfies:
            value = args[config.param_index] if config.param_index < len(args) else None
            if isinstance(value, (int, float)):
                policy = RequestPolicy(
                    float(value), policy.max_retries, policy.backoff_multiplier
                )
        if ConfigKind.RETRY in config.satisfies:
            retries = None
            value = args[0] if args else None
            if isinstance(value, bool):
                retries = 1 if value else 0
            elif isinstance(value, (int, float)):
                retries = int(value)
            elif isinstance(value, SimObject) and value.ctor_args:
                # Retry policy object: (timeout, retries, backoff).
                ctor = value.ctor_args
                if len(ctor) >= 1 and isinstance(ctor[0], (int, float)):
                    policy = RequestPolicy(
                        float(ctor[0]), policy.max_retries, policy.backoff_multiplier
                    )
                if len(ctor) >= 2 and isinstance(ctor[1], (int, float)):
                    retries = int(ctor[1])
            if retries is not None:
                policy = RequestPolicy(
                    policy.timeout_ms, retries, policy.backoff_multiplier
                )
        obj.policy = policy

    def _effective_policy(self, library, config_obj: Any) -> RequestPolicy:
        if isinstance(config_obj, SimObject) and config_obj.policy is not None:
            base = config_obj.policy
            timeout = base.timeout_ms
            if timeout is None:
                timeout = library.defaults.timeout_ms
            return RequestPolicy(
                timeout, base.max_retries, library.defaults.backoff_multiplier
            )
        return RequestPolicy.from_defaults(library.defaults)

    def _perform_request(self, expr, library, target, base, args: list[Any]) -> Any:
        config_obj = base
        if target.config_object_param is not None and target.config_object_param < len(args):
            config_obj = args[target.config_object_param]
        policy = self._effective_policy(library, config_obj)

        # Long-lived connections (XMPP): operations on a connection
        # established before a network switch hit a *stale* socket (paper
        # Cause 4.1).  Apps that enabled the reconnection manager recover
        # transparently; others get an IOException.
        if library.key == "asmack" and isinstance(base, SimObject):
            if expr.sig.name == "connect":
                pass  # establishing (or re-establishing) is always allowed
            else:
                epoch = base.fields.get("_epoch")
                if epoch is not None and epoch != self.network_epoch:
                    if policy.max_retries > 0 and self.link.connected:
                        base.fields["_epoch"] = self.network_epoch  # auto-reconnect
                        self.report.network_attempts += 1
                        self.loop.advance(self.link.rtt_ms)
                    else:
                        self.report.network_failures += 1
                        raise _JavaThrow(SimulatedIOException.java_type)
        client = HttpClientSim(policy, self.rng)
        result = client.request(self.link, self.request_size_bytes)
        self.report.network_attempts += result.attempts
        self.report.radio_active_ms += result.total_ms
        self.loop.advance(result.total_ms)
        if result.success:
            self.report.requests_succeeded += 1
            if library.key == "asmack" and isinstance(base, SimObject):
                base.fields["_epoch"] = self.network_epoch
        else:
            self.report.network_failures += 1

        # HTTP-level errors on an otherwise-successful transport: each
        # library surfaces them differently (the Table 4 ⋆/© distinction
        # for invalid responses, executed).
        http_error = result.success and self.rng.random() < self.invalid_response_rate

        if target.is_async:
            if http_error:
                # Volley/loopj deliver error statuses to the error callback.
                result = RequestResult(False, result.total_ms, result.attempts, "http-error")
                self.report.requests_succeeded -= 1
                self.report.network_failures += 1
            self._dispatch_async(library, target, config_obj, args, result)
            return None
        if result.success:
            if http_error and library.key == "httpurlconnection":
                # getInputStream() throws on HTTP error statuses.
                self.report.network_failures += 1
                raise _JavaThrow(SimulatedIOException.java_type)
            status = 500 if http_error else 200
            return SimObject(
                f"{library.key}.Response",
                fields={
                    "status": status,
                    # Only the libraries whose responses must be manually
                    # validity-checked hand fragile bodies to user code.
                    "fragile": library.key in ("okhttp", "basichttp"),
                },
            )
        if library.key == "basichttp" and result.failure != "offline":
            # Basic HTTP surfaces mid-transfer failures as a null/invalid
            # response object; only connection-level failures throw.
            return None
        raise _JavaThrow(SimulatedIOException.java_type)

    def _dispatch_async(self, library, target, config_obj, args, result: RequestResult) -> None:
        """Schedule the success/error callback on the registered listener."""
        listeners: list[SimObject] = []
        for arg in args:
            if isinstance(arg, SimObject):
                listeners.append(arg)
                listeners.extend(
                    a for a in arg.ctor_args if isinstance(a, SimObject)
                )
        for listener in listeners:
            cls = self.apk.get_class(listener.class_name)
            if cls is None:
                continue
            supers = self.apk.hierarchy.supertypes(listener.class_name) | set(
                cls.interfaces
            )
            for iface in supers:
                for (reg_iface, reg_name), (lib, spec) in list(
                    self.registry._callback_methods.items()
                ):
                    if reg_iface != iface:
                        continue
                    from ..libmodels.annotations import CallbackRole

                    want_error = not result.success
                    is_error_cb = spec.role is CallbackRole.ERROR
                    if want_error != is_error_cb:
                        continue
                    callback = next(
                        (m for m in cls.methods() if m.name == reg_name), None
                    )
                    if callback is None:
                        continue
                    payload = (
                        SimObject("com.android.volley.NoConnectionError")
                        if want_error
                        else SimObject(f"{library.key}.Response")
                    )
                    call_args = [payload] * len(callback.params)
                    self.loop.schedule(
                        0.0,
                        lambda cb=callback, l=listener, a=call_args: self.invoke_method(
                            cb, l, a
                        ),
                    )


_UNHANDLED = object()


def _binop(op: str, left: Any, right: Any) -> Any:
    left = 0 if left is None else left
    right = 0 if right is None else right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left // right if isinstance(left, int) and isinstance(right, int) else left / right
    if op == "%":
        return left % right
    if op == "cmp":
        return (left > right) - (left < right)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << right
    if op == ">>":
        return left >> right
    raise ValueError(f"unknown operator {op}")


_EXCEPTION_HIERARCHY = {
    "java.io.IOException": ("java.lang.Exception", "java.lang.Throwable"),
    "java.lang.NullPointerException": (
        "java.lang.RuntimeException",
        "java.lang.Exception",
        "java.lang.Throwable",
    ),
    "java.lang.Exception": ("java.lang.Throwable",),
    "java.lang.RuntimeException": ("java.lang.Exception", "java.lang.Throwable"),
    "java.lang.StackOverflowError": ("java.lang.Error", "java.lang.Throwable"),
    "java.lang.Error": ("java.lang.Throwable",),
}


def _catches(declared: str, thrown: str) -> bool:
    if declared == thrown:
        return True
    return declared in _EXCEPTION_HIERARCHY.get(thrown, ())
