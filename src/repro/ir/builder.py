"""Fluent builders for constructing IR methods and classes in Python.

The corpus generator and the test suite construct thousands of method
bodies; doing that with raw statement lists would be unreadable.  The
builder offers three layers:

* atomic emission (``emit``, ``label``, ``goto``, ``if_goto``);
* expression helpers (``new``, ``call``, ``static_call``, ``assign``);
* structured control flow (``if_then`` / ``loop`` context managers and an
  explicit ``begin_try``/``begin_catch``/``end_try`` protocol for
  exception handlers, which is what hand-rolled retry loops need).

Every structured helper lowers to plain labels and gotos, so analyses see
exactly what a compiler frontend would produce.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Sequence, Union

from .classes import IRClass
from .method import IRMethod, Trap
from .statements import (
    AssignStmt,
    GotoStmt,
    IfStmt,
    InvokeStmt,
    NopStmt,
    ReturnStmt,
    Stmt,
    ThrowStmt,
)
from .values import (
    CaughtExceptionExpr,
    ConditionExpr,
    Const,
    FieldRef,
    FieldSig,
    InvokeExpr,
    KIND_SPECIAL,
    KIND_STATIC,
    KIND_VIRTUAL,
    Local,
    MethodSig,
    NewExpr,
    THIS,
    Value,
)

#: Things accepted wherever a value is expected; plain Python literals are
#: wrapped into :class:`Const` automatically.
ValueLike = Union[Value, int, float, bool, str, None]


def as_value(value: ValueLike) -> Value:
    if isinstance(value, Value):
        return value
    return Const(value)


class TryRegion:
    """Book-keeping handle returned by :meth:`MethodBuilder.begin_try`."""

    def __init__(self, begin_label: str, after_label: str) -> None:
        self.begin_label = begin_label
        self.after_label = after_label
        self.end_label: Optional[str] = None
        self.catches: list[tuple[str, str]] = []  # (exc_type, handler_label)


class LoopHandle:
    """Handle exposed by :meth:`MethodBuilder.loop` for ``break``."""

    def __init__(self, builder: "MethodBuilder", exit_: str) -> None:
        self._builder = builder
        self.exit_label = exit_

    def break_(self) -> None:
        self._builder.goto(self.exit_label)


class MethodBuilder:
    """Builds a single :class:`IRMethod`."""

    def __init__(
        self,
        class_name: str,
        name: str,
        params: Sequence[tuple[str, str]] = (),
        return_type: str = "void",
        is_static: bool = False,
        modifiers: Sequence[str] = (),
    ) -> None:
        self.sig = MethodSig(
            class_name, name, tuple(t for t, _ in params), return_type
        )
        self.params = [Local(n, t) for t, n in params]
        self.is_static = is_static
        self.modifiers = frozenset(modifiers)
        self._stmts: list[Stmt] = []
        self._labels: dict[str, int] = {}
        self._traps: list[Trap] = []
        self._fresh_label = 0
        self._fresh_local = 0

    # -- atomic layer ---------------------------------------------------

    def emit(self, stmt: Stmt) -> None:
        self._stmts.append(stmt)

    def fresh_label(self, hint: str = "L") -> str:
        self._fresh_label += 1
        return f"{hint}{self._fresh_label}"

    def fresh_local(self, hint: str = "t") -> Local:
        self._fresh_local += 1
        return Local(f"${hint}{self._fresh_local}")

    def label(self, name: str) -> str:
        """Bind ``name`` to the *next* statement index."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._stmts)
        return name

    def goto(self, target: str) -> None:
        self.emit(GotoStmt(target))

    def if_goto(self, op: str, left: ValueLike, right: ValueLike, target: str) -> None:
        self.emit(IfStmt(ConditionExpr(op, as_value(left), as_value(right)), target))

    def nop(self) -> None:
        self.emit(NopStmt())

    def ret(self, value: ValueLike = None) -> None:
        self.emit(ReturnStmt(None if value is None else as_value(value)))

    def throw(self, value: ValueLike) -> None:
        self.emit(ThrowStmt(as_value(value)))

    # -- expression layer -----------------------------------------------

    def assign(self, target: Union[str, Local, FieldRef], value: ValueLike) -> Local:
        if isinstance(target, str):
            target = Local(target)
        self.emit(AssignStmt(target, as_value(value)))
        return target if isinstance(target, Local) else THIS

    def new(
        self,
        class_name: str,
        name: Optional[str] = None,
        args: Sequence[ValueLike] = (),
    ) -> Local:
        """Allocate an object and invoke its constructor; returns the local
        (carrying the class as its type hint, so later ``call``s on it
        resolve without an explicit ``cls``)."""
        local = Local(name, class_name) if name else Local(
            self.fresh_local("obj").name, class_name
        )
        self.emit(AssignStmt(local, NewExpr(class_name)))
        ctor = MethodSig(class_name, "<init>", tuple("?" for _ in args))
        self.emit(
            InvokeStmt(
                InvokeExpr(KIND_SPECIAL, local, ctor, tuple(as_value(a) for a in args))
            )
        )
        return local

    def call(
        self,
        base: Local,
        method: str,
        *args: ValueLike,
        ret: Optional[str] = None,
        cls: Optional[str] = None,
        return_type: str = "java.lang.Object",
    ) -> Optional[Local]:
        """Virtual call on ``base``; assigns the result when ``ret`` given.

        ``cls`` is the static receiver type written at the call site; when
        omitted it defaults to the local's type hint (or "?" if unknown,
        in which case resolution happens by method name alone).
        """
        declared = cls or base.type_hint or "?"
        sig = MethodSig(declared, method, tuple("?" for _ in args), return_type)
        expr = InvokeExpr(KIND_VIRTUAL, base, sig, tuple(as_value(a) for a in args))
        return self._finish_call(expr, ret)

    def static_call(
        self,
        class_name: str,
        method: str,
        *args: ValueLike,
        ret: Optional[str] = None,
        return_type: str = "java.lang.Object",
    ) -> Optional[Local]:
        sig = MethodSig(class_name, method, tuple("?" for _ in args), return_type)
        expr = InvokeExpr(KIND_STATIC, None, sig, tuple(as_value(a) for a in args))
        return self._finish_call(expr, ret)

    def _finish_call(self, expr: InvokeExpr, ret: Optional[str]) -> Optional[Local]:
        if ret is None:
            self.emit(InvokeStmt(expr))
            return None
        target = Local(ret)
        self.emit(AssignStmt(target, expr))
        return target

    def get_field(self, base: Optional[Local], cls: str, field: str, ret: str) -> Local:
        target = Local(ret)
        self.emit(AssignStmt(target, FieldRef(base, FieldSig(cls, field))))
        return target

    def set_field(self, base: Optional[Local], cls: str, field: str, value: ValueLike) -> None:
        self.emit(AssignStmt(FieldRef(base, FieldSig(cls, field)), as_value(value)))

    # -- structured control flow ------------------------------------------

    @contextlib.contextmanager
    def if_then(self, op: str, left: ValueLike, right: ValueLike) -> Iterator[None]:
        """Execute the body when ``left op right`` holds."""
        end = self.fresh_label("endif")
        cond = ConditionExpr(op, as_value(left), as_value(right)).negate()
        self.emit(IfStmt(cond, end))
        yield
        self.label(end)
        self.nop()

    @contextlib.contextmanager
    def if_else(
        self, op: str, left: ValueLike, right: ValueLike
    ) -> Iterator["ElseMarker"]:
        """``with b.if_else(...) as orelse: ...; orelse.start(); ...``"""
        else_label = self.fresh_label("else")
        end = self.fresh_label("endif")
        cond = ConditionExpr(op, as_value(left), as_value(right)).negate()
        self.emit(IfStmt(cond, else_label))
        marker = ElseMarker(self, else_label, end)
        yield marker
        if not marker.started:
            # No else branch was opened: the else label aliases the end.
            self.label(else_label)
        else:
            self.label(end)
        self.nop()

    @contextlib.contextmanager
    def loop(self) -> Iterator[LoopHandle]:
        """An unconditional loop; exit via ``handle.break_()`` or return."""
        head = self.fresh_label("loop")
        exit_ = self.fresh_label("endloop")
        self.label(head)
        self.nop()
        handle = LoopHandle(self, exit_)
        yield handle
        self.goto(head)
        self.label(exit_)
        self.nop()

    @contextlib.contextmanager
    def while_loop(self, op: str, left: ValueLike, right: ValueLike) -> Iterator[LoopHandle]:
        """Loop while ``left op right`` holds (condition tested at the head)."""
        head = self.fresh_label("while")
        exit_ = self.fresh_label("endwhile")
        self.label(head)
        cond = ConditionExpr(op, as_value(left), as_value(right)).negate()
        self.emit(IfStmt(cond, exit_))
        handle = LoopHandle(self, exit_)
        yield handle
        self.goto(head)
        self.label(exit_)
        self.nop()

    # -- exception handling -----------------------------------------------

    def begin_try(self) -> TryRegion:
        region = TryRegion(self.fresh_label("try"), self.fresh_label("after"))
        self.label(region.begin_label)
        return region

    def begin_catch(
        self, region: TryRegion, exc_type: str = "java.lang.Exception",
        exc_name: Optional[str] = None,
    ) -> Local:
        """Close the protected range (first call only) and open a handler.

        Emits the fall-through ``goto after`` for the preceding block and
        binds the caught exception to a local, which is returned.
        """
        self.goto(region.after_label)
        if region.end_label is None:
            # The protected range ends just before the goto emitted above
            # (the goto itself cannot throw, but excluding it keeps the
            # range tight and matches how dexers emit try items).
            region.end_label = self.fresh_label("endtry")
            self._labels[region.end_label] = len(self._stmts) - 1
        handler_label = self.fresh_label("catch")
        self.label(handler_label)
        region.catches.append((exc_type, handler_label))
        exc = Local(exc_name) if exc_name else self.fresh_local("exc")
        self.emit(AssignStmt(exc, CaughtExceptionExpr(exc_type)))
        return exc

    def end_try(self, region: TryRegion) -> None:
        """Close the whole construct; emits the join label."""
        if region.end_label is None:
            # try with no catch clauses degenerates to a plain block.
            region.end_label = self.fresh_label("endtry")
            self._labels[region.end_label] = len(self._stmts)
        else:
            self.goto(region.after_label)
        self.label(region.after_label)
        self.nop()
        for exc_type, handler_label in region.catches:
            self._traps.append(
                Trap(region.begin_label, region.end_label, handler_label, exc_type)
            )

    # -- finalisation -------------------------------------------------------

    def build(self, validate: bool = True) -> IRMethod:
        stmts = list(self._stmts)
        labels = dict(self._labels)
        # Labels may point one past the end (e.g. trailing end-labels); anchor
        # them on a final return for void methods so the body is well formed.
        if not stmts or not stmts[-1].is_terminator:
            stmts.append(ReturnStmt())
        method = IRMethod(
            self.sig,
            self.params,
            stmts,
            labels,
            self._traps,
            is_static=self.is_static,
            modifiers=self.modifiers,
        )
        if validate:
            method.validate()
        return method


class ElseMarker:
    """Separates the then- and else-branches inside ``if_else``."""

    def __init__(self, builder: MethodBuilder, else_label: str, end_label: str) -> None:
        self._builder = builder
        self._else_label = else_label
        self._end_label = end_label
        self.started = False

    def start(self) -> None:
        if self.started:
            raise RuntimeError("else branch already started")
        self.started = True
        self._builder.goto(self._end_label)
        self._builder.label(self._else_label)
        self._builder.nop()


class ClassBuilder:
    """Builds an :class:`IRClass`; hands out method builders."""

    def __init__(
        self,
        name: str,
        superclass: str = "java.lang.Object",
        interfaces: Sequence[str] = (),
        is_interface: bool = False,
    ) -> None:
        self._cls = IRClass(
            name, superclass, tuple(interfaces), is_interface=is_interface
        )

    @property
    def name(self) -> str:
        return self._cls.name

    def method(
        self,
        name: str,
        params: Sequence[tuple[str, str]] = (),
        return_type: str = "void",
        is_static: bool = False,
        modifiers: Sequence[str] = (),
    ) -> MethodBuilder:
        return MethodBuilder(
            self._cls.name, name, params, return_type, is_static, modifiers
        )

    def add(self, builder: MethodBuilder) -> IRMethod:
        method = builder.build()
        self._cls.add_method(method)
        return method

    def add_field(self, name: str, type_name: str = "java.lang.Object") -> None:
        self._cls.add_field(FieldSig(self._cls.name, name, type_name))

    def build(self) -> IRClass:
        return self._cls
