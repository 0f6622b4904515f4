"""Resolving the *values* passed to retry/timeout config APIs.

Shared by the config-API check (`core/checks/config_apis.py`) and the
interprocedural summary engine (`dataflow/summaries.py`): both observe
config calls — the check in the request's own frames, the engine inside
callees the config object is passed to — and both must turn the call
into effective retry counts and timeouts via constant propagation
(paper §4.4.2), including the policy/handler-object indirection Volley
and Apache use (``setRetryPolicy(new DefaultRetryPolicy(t, r, b))``).
"""

from __future__ import annotations

from typing import Optional

from .._record import record
from ..cfg.graph import CFG
from ..ir.method import IRMethod
from ..ir.statements import AssignStmt
from ..ir.values import InvokeExpr, Local, NewExpr
from ..libmodels.annotations import ConfigAPI, ConfigKind
from .constants import ConstantPropagation
from .reaching import DefUseChains
from .taint import trace_origins


@record(frozen=True)
class ConfigCallValues:
    """Constants a single config call pins down (None = not resolvable)."""

    retries: Optional[int] = None
    timeout_ms: Optional[int] = None


def config_call_values(
    method: IRMethod,
    idx: int,
    invoke: InvokeExpr,
    config: ConfigAPI,
    cfg: CFG,
    defuse: DefUseChains,
    constants: ConstantPropagation,
) -> ConfigCallValues:
    """Resolve the retry count / timeout a config call establishes."""
    retries: Optional[int] = None
    timeout_ms: Optional[int] = None
    if ConfigKind.RETRY in config.satisfies:
        retries, policy_timeout = _retry_value(
            method, idx, invoke, cfg, defuse, constants
        )
        if policy_timeout is not None:
            timeout_ms = policy_timeout
    if (
        ConfigKind.TIMEOUT in config.satisfies
        and config.kind is ConfigKind.TIMEOUT
        and config.param_index < len(invoke.args)
    ):
        value = constants.constant_argument(idx, invoke.args[config.param_index])
        if isinstance(value, int):
            timeout_ms = value
    return ConfigCallValues(retries, timeout_ms)


def _retry_value(
    method: IRMethod,
    idx: int,
    invoke: InvokeExpr,
    cfg: CFG,
    defuse: DefUseChains,
    constants: ConstantPropagation,
) -> tuple[Optional[int], Optional[int]]:
    """(retries, timeout) established by a retry-kind config call."""
    name = invoke.sig.name
    if name in ("setMaxRetries", "setMaxRetriesAndTimeout"):
        if invoke.args:
            value = constants.constant_argument(idx, invoke.args[0])
            if isinstance(value, int):
                return value, None
        return None, None
    if name == "setRetryOnConnectionFailure":
        if invoke.args:
            value = constants.constant_argument(idx, invoke.args[0])
            if isinstance(value, bool):
                return (1 if value else 0), None
        return None, None
    if name == "setRetryPolicy":
        # Volley: setRetryPolicy(new DefaultRetryPolicy(timeout, retries,
        # backoff)) — the ctor's argument 0 is the timeout, 1 the retries.
        timeout = ctor_constant(method, idx, invoke, cfg, defuse, constants, 0)
        retries = ctor_constant(method, idx, invoke, cfg, defuse, constants, 1)
        return retries, timeout
    if name == "setHttpRequestRetryHandler":
        handler = ctor_constant(method, idx, invoke, cfg, defuse, constants, 0)
        # Apache's DefaultHttpRequestRetryHandler() retries 3 times when
        # installed without an explicit count.
        return (handler if handler is not None else 3), None
    return None, None


def ctor_constant(
    method: IRMethod,
    idx: int,
    invoke: InvokeExpr,
    cfg: CFG,
    defuse: DefUseChains,
    constants: ConstantPropagation,
    ctor_arg_index: int,
) -> Optional[int]:
    """Argument ``ctor_arg_index`` of the constructor of the object passed
    as the config call's first argument (the policy/handler-object
    indirection)."""
    if not invoke.args or not isinstance(invoke.args[0], Local):
        return None
    for origin in trace_origins(cfg, idx, invoke.args[0].name, defuse):
        if origin < 0:
            continue
        stmt = method.statements[origin]
        if not (isinstance(stmt, AssignStmt) and isinstance(stmt.value, NewExpr)):
            continue
        for ctor_idx in range(origin + 1, len(method.statements)):
            ctor = method.statements[ctor_idx].invoke()
            if ctor is not None and ctor.is_constructor and ctor.base == stmt.target:
                if len(ctor.args) > ctor_arg_index:
                    value = constants.constant_argument(
                        ctor_idx, ctor.args[ctor_arg_index]
                    )
                    if isinstance(value, int):
                        return value
                break
    return None
