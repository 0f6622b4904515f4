"""Connectivity-check analysis (paper §4.4.1, control-flow part).

For each path from an entry point to a network request, NChecker checks
whether a connectivity-checking API (``getActiveNetworkInfo`` & co., or
an app helper wrapping one) is invoked on the path; requests not guarded
by any check are reported.

The default mode is **path-insensitive**, like the paper's: a check that
*precedes* the request on the path counts even if its result does not
actually guard the request.  That choice is what produced the paper's 5
known false negatives (Table 9); the ``guard_aware`` ablation flag makes
the analysis require the request to be control-dependent on a branch
derived from the check, eliminating that FN class at extra cost.

Conversely the paper's connectivity FPs come from checks performed in a
*different component* (before starting the Activity that issues the
request) — invisible without inter-component analysis.  Our corpus
injects that pattern, and this check exhibits the same FP behaviour.
"""

from __future__ import annotations

from ...callgraph.entrypoints import MethodKey
from ...dataflow.slicing import Slicer
from ...ir.values import InvokeExpr
from ...libmodels.android import is_connectivity_check
from ..defects import DefectKind
from ..findings import Finding, context_of
from ..requests import AnalysisContext, NetworkRequest
from .base import request_frames

#: (method name, arity) -> classes declaring an app method of that
#: signature that transitively performs a connectivity check.
CheckerIndex = dict[tuple[str, int], set[str]]


class ConnectivityCheck:
    name = "connectivity"

    def __init__(
        self,
        guard_aware: bool = False,
        interprocedural: bool = True,
        icc_model=None,
    ) -> None:
        self.guard_aware = guard_aware
        self.interprocedural = interprocedural
        #: Optional :class:`repro.callgraph.icc.ICCModel`: when present,
        #: a connectivity check performed in a *launcher* component before
        #: starting the request's component also guards the request —
        #: closing the paper's inter-component FP class (§4.7).
        self.icc_model = icc_model

    def run(
        self, ctx: AnalysisContext, requests: list[NetworkRequest]
    ) -> list[Finding]:
        checkers: CheckerIndex = {}
        if self.interprocedural:
            # The engine's memoized transitive fact, computed once per app
            # and shared across checks and repeat scans; indexed by call
            # signature for the per-invoke-site lookup.
            for cls, name, arity in ctx.summaries.connectivity_methods():
                checkers.setdefault((name, arity), set()).add(cls)
        findings: list[Finding] = []
        for request in requests:
            unguarded = self._unguarded_chains(ctx, request, checkers)
            if unguarded == 0:
                continue
            findings.append(
                Finding(
                    DefectKind.MISSED_CONNECTIVITY_CHECK,
                    ctx.apk.package,
                    request.key,
                    request.stmt_index,
                    f"Missing network connectivity check before "
                    f"{request.target.qualified}",
                    request=request,
                    context=context_of(request),
                    details={"unguarded_chains": unguarded},
                )
            )
        return findings

    # ------------------------------------------------------------------

    def _unguarded_chains(
        self,
        ctx: AnalysisContext,
        request: NetworkRequest,
        checkers: CheckerIndex,
    ) -> int:
        """Number of entry→request chains with no connectivity check."""
        unguarded = 0
        for frames in request_frames(request):
            if not self._chain_checked(ctx, frames, checkers):
                unguarded += 1
        return unguarded

    def _chain_checked(
        self,
        ctx: AnalysisContext,
        frames: list[tuple[MethodKey, int]],
        checkers: CheckerIndex,
    ) -> bool:
        if not self.interprocedural:
            frames = frames[-1:]
        for key, site in frames:
            method = ctx.callgraph.methods.get(key)
            if method is None:
                continue
            if self._checked_in_method(ctx, method, site, checkers):
                return True
        if self.icc_model is not None and frames:
            return self._checked_by_launcher(ctx, frames[0][0], checkers)
        return False

    def _checked_by_launcher(
        self, ctx: AnalysisContext, entry_key: MethodKey, checkers: CheckerIndex
    ) -> bool:
        """ICC extension: a check preceding the ``startActivity`` that
        launches this component counts as guarding its requests."""
        component_class = entry_key[0]
        for site in self.icc_model.launchers_of(component_class):
            launcher = ctx.callgraph.methods.get(site.caller)
            if launcher is None:
                continue
            if self._checked_in_method(
                ctx, launcher, site.stmt_index, checkers
            ):
                return True
        return False

    def _checked_in_method(
        self, ctx, method, before_site: int, checkers: CheckerIndex
    ) -> bool:
        cfg = ctx.cache.cfg(method)
        check_sites = []
        for idx, invoke in method.invoke_sites():
            if idx == before_site:
                continue
            if self._is_check_invoke(ctx, invoke, checkers):
                if cfg.reaches(idx, before_site):
                    check_sites.append(idx)
        if not check_sites:
            return False
        if not self.guard_aware:
            return True
        # Guard-aware: the call site must be control-dependent (transitively)
        # on a branch whose condition derives from a check's result.
        slicer = Slicer(cfg, ctx.cache.defuse(method))
        guard_slice = slicer.backward_slice(before_site, locals_of_interest=set())
        return any(site in guard_slice for site in check_sites)

    def _is_check_invoke(
        self, ctx, invoke: InvokeExpr, checkers: CheckerIndex
    ) -> bool:
        if is_connectivity_check(invoke):
            return True
        if not self.interprocedural:
            return False
        # A call into an app helper that performs the check.
        classes = checkers.get((invoke.sig.name, invoke.sig.arity))
        if not classes:
            return False
        return invoke.sig.class_name == "?" or invoke.sig.class_name in classes
