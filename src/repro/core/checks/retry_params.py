"""Improper-API-parameter analysis (paper §4.4.2, Table 8).

With the request context (user vs. background vs. POST — §4.4.2) and the
effective retry count (explicit constant or library default — the config
analysis resolves both), three rules fire:

* **No retry for time-sensitive requests** — user-initiated request with
  zero retries (paper Cause 2.1);
* **Over-retry in Services** — background request with retries > 0
  (Cause 2.2a);
* **Over-retry on POST** — non-idempotent request with automatic retries
  (Cause 2.2b, per HTTP/1.1's MUST NOT).

Each over-retry finding records whether a library *default* caused it
(Table 8 column 3) — the paper found 76–98 % of over-retries are defaults
the developer never touched.

Additionally, customized retry loops without backoff are reported as
aggressive (the Telegram bug, Fig 2).
"""

from __future__ import annotations

from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest
from .config_apis import ConfigAPICheck, RequestConfigInfo


class RetryParameterCheck:
    name = "retry-parameters"

    def __init__(self, config_check: ConfigAPICheck) -> None:
        #: Runs earlier in the same scan (catalog order); its per-request
        #: info is empty when the config check is disabled.
        self._config_check = config_check

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for request in requests:
            info = self._config_check.info_by_request.get(request.loc)
            if info is None:
                continue
            if request.library.has_retry_api:
                findings.extend(self._parameter_findings(ctx, request, info))
        findings.extend(self._aggressive_loop_findings(ctx, requests))
        return findings

    def _parameter_findings(
        self, ctx: AnalysisContext, request: NetworkRequest, info: RequestConfigInfo
    ) -> list[Finding]:
        findings: list[Finding] = []
        retries = info.retries
        if info.custom_retry_loop is not None:
            # A hand-rolled loop supersedes the library policy for the
            # time-sensitivity rule (the app does retry).
            retries = max(retries, 1)

        # POSTs are exempt from the time-sensitivity rule: HTTP/1.1's
        # MUST-NOT-retry dominates (a user POST with 0 retries is correct).
        if request.user_initiated and retries == 0 and not request.is_post:
            findings.append(
                self._finding(
                    ctx,
                    request,
                    DefectKind.NO_RETRY_TIME_SENSITIVE,
                    "User-initiated request never retries on transient errors",
                    default_caused=info.retries_from_default,
                )
            )
        if request.background and info.retries > 0:
            findings.append(
                self._finding(
                    ctx,
                    request,
                    DefectKind.OVER_RETRY_SERVICE,
                    f"Background request retries {info.retries}x, wasting "
                    f"energy and mobile data",
                    default_caused=info.retries_from_default,
                )
            )
        if request.is_post and info.retries > 0:
            post_retried = info.retries_from_default and not (
                request.library.defaults.retries_apply_to_post
            )
            if not post_retried:  # defaults that skip POST are safe
                findings.append(
                    self._finding(
                        ctx,
                        request,
                        DefectKind.OVER_RETRY_POST,
                        f"Non-idempotent POST request auto-retries "
                        f"{info.retries}x",
                        default_caused=info.retries_from_default,
                    )
                )
        return findings

    def _aggressive_loop_findings(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        """One finding per aggressive customized retry loop (the Telegram
        shape), attributed to a covering request when one exists."""
        findings: list[Finding] = []
        for loop in ctx.retry_loops:
            if not loop.aggressive:
                continue
            covering = next(
                (
                    r
                    for r in requests
                    if (r.method is loop.method and r.stmt_index in loop.loop.body)
                    or r.key in loop.retried_callees
                ),
                None,
            )
            findings.append(
                Finding(
                    DefectKind.AGGRESSIVE_RETRY_LOOP,
                    ctx.apk.package,
                    (loop.method.class_name, loop.method.name, loop.method.sig.arity),
                    loop.loop.header,
                    "Customized retry loop reconnects without backoff "
                    f"(kind: {loop.kind})",
                    request=covering,
                    context=context_of(covering) if covering else "unknown",
                    details={"loop_header": loop.loop.header, "loop_kind": loop.kind},
                )
            )
        return findings

    def _finding(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        kind: DefectKind,
        message: str,
        default_caused: bool,
    ) -> Finding:
        return Finding(
            kind,
            ctx.apk.package,
            request.key,
            request.stmt_index,
            message + (" (library default behaviour)" if default_caused else ""),
            request=request,
            context=context_of(request),
            default_caused=default_caused,
        )
