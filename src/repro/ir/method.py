"""Method bodies: statement lists, labels, and exception traps."""

from __future__ import annotations

from typing import Iterator, Optional

from .._record import record
from .statements import GotoStmt, IfStmt, ReturnStmt, Stmt, ThrowStmt
from .values import InvokeExpr, Local, MethodSig, THROWABLE


@record(frozen=True, slots=True)
class Trap:
    """A protected region: statements in ``[begin, end)`` (by label) whose
    exceptions of ``exc_type`` are routed to the handler at ``handler``.

    This is the Jimple/DEX ``try/catch`` encoding: ranges over the flat
    statement list rather than nested syntax.
    """

    begin: str
    end: str
    handler: str
    exc_type: str = THROWABLE


class IRMethod:
    """A method body in the IR.

    Parameters are ordinary locals listed in ``params``; instance methods
    additionally have the implicit local ``this``.  ``labels`` maps a label
    name to the index of the statement it precedes.
    """

    __slots__ = (
        "sig",
        "params",
        "statements",
        "labels",
        "traps",
        "is_static",
        "modifiers",
        "_cached_key",
        "_validated",
    )

    def __init__(
        self,
        sig: MethodSig,
        params: list[Local],
        statements: list[Stmt],
        labels: Optional[dict[str, int]] = None,
        traps: Optional[list[Trap]] = None,
        is_static: bool = False,
        modifiers: frozenset[str] = frozenset(),
    ) -> None:
        self.sig = sig
        self.params = list(params)
        self.statements = list(statements)
        self.labels = dict(labels or {})
        self.traps = list(traps or [])
        self.is_static = is_static
        self.modifiers = modifiers
        # Interned (class, name, arity) key; the signature is immutable
        # (the patcher mutates bodies, never signatures), so the key is
        # computed once and shared by every call-graph/artifact lookup.
        self._cached_key: Optional[tuple[str, str, int]] = None
        # Set by validate() on success.  Calling validate() always runs
        # the full structural check (mutators re-validate explicitly after
        # editing a body); the flag lets *consumers* — APK validation and
        # CFG construction — skip re-checking an unchanged body.
        self._validated = False

    # ------------------------------------------------------------------
    # Introspection helpers used pervasively by the analyses.
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.sig.name

    @property
    def class_name(self) -> str:
        return self.sig.class_name

    def label_index(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(
                f"undefined label {label!r} in {self.sig.qualified_name}"
            ) from None

    def invoke_sites(self) -> Iterator[tuple[int, InvokeExpr]]:
        """Yield ``(statement_index, invoke_expr)`` for every call site."""
        for idx, stmt in enumerate(self.statements):
            expr = stmt.invoke()
            if expr is not None:
                yield idx, expr

    def trap_handlers(self) -> set[int]:
        """Statement indices that begin an exception handler."""
        return {self.label_index(t.handler) for t in self.traps}

    def traps_covering(self, index: int) -> list[Trap]:
        """Traps whose protected range contains statement ``index``."""
        covering = []
        for trap in self.traps:
            begin = self.label_index(trap.begin)
            end = self.label_index(trap.end)
            if begin <= index < end:
                covering.append(trap)
        return covering

    def validate(self) -> None:
        """Raise ``ValueError`` on structural problems (dangling labels,
        out-of-range traps, fall-through off the end of the body)."""
        n = len(self.statements)
        if n == 0:
            raise ValueError(f"{self.sig.qualified_name}: empty body")
        for name, idx in self.labels.items():
            if not 0 <= idx <= n:
                raise ValueError(
                    f"{self.sig.qualified_name}: label {name!r} -> {idx} "
                    f"out of range (body has {n} statements)"
                )
        for idx, stmt in enumerate(self.statements):
            target = None
            if isinstance(stmt, (GotoStmt, IfStmt)):
                target = stmt.target
            if target is not None and target not in self.labels:
                raise ValueError(
                    f"{self.sig.qualified_name}: statement {idx} branches to "
                    f"undefined label {target!r}"
                )
        for trap in self.traps:
            for label in (trap.begin, trap.end, trap.handler):
                if label not in self.labels:
                    raise ValueError(
                        f"{self.sig.qualified_name}: trap references undefined "
                        f"label {label!r}"
                    )
            if self.label_index(trap.begin) >= self.label_index(trap.end):
                raise ValueError(
                    f"{self.sig.qualified_name}: empty or inverted trap range "
                    f"{trap.begin}..{trap.end}"
                )
        last = self.statements[-1]
        if not isinstance(last, (ReturnStmt, GotoStmt, ThrowStmt)):
            raise ValueError(
                f"{self.sig.qualified_name}: control falls off the end of the "
                f"body (last statement is {last})"
            )
        self._validated = True

    def __repr__(self) -> str:
        return f"<IRMethod {self.sig} ({len(self.statements)} stmts)>"
