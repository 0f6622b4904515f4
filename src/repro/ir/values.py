"""Values and expressions of the Jimple-like intermediate representation.

The IR is a typed-by-name three-address code: every operand of a statement
is either a :class:`Local`, a :class:`Const`, or one of a small set of
composite expressions (invoke, new, field access, binary operation, ...).
This mirrors the Jimple representation Soot produces from Dalvik bytecode,
which is what the original NChecker analyses operated on.

Types are represented as plain strings (fully qualified Java-style class
names such as ``"com.android.volley.RequestQueue"`` or primitive names
such as ``"int"``).  The analyses in :mod:`repro.core` never need a full
type system — they match against library signatures — so a nominal
representation keeps the substrate honest without gratuitous machinery.
"""

from __future__ import annotations

from typing import Optional, Union

from .._record import record

#: Java-style primitive and common reference type names used throughout.
VOID = "void"
OBJECT = "java.lang.Object"
THROWABLE = "java.lang.Throwable"


@record(frozen=True, slots=True)
class MethodSig:
    """A fully qualified method signature.

    ``class_name`` is the *declaring* class as written at the call site
    (virtual dispatch is resolved later by the call-graph builder).
    """

    class_name: str
    name: str
    param_types: tuple[str, ...] = ()
    return_type: str = VOID

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    def __str__(self) -> str:
        params = ", ".join(self.param_types)
        return f"{self.return_type} {self.class_name}.{self.name}({params})"


@record(frozen=True, slots=True)
class FieldSig:
    """A fully qualified field signature."""

    class_name: str
    name: str
    type_name: str = OBJECT

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"


class Value:
    """Base class for every IR value (marker; no behaviour)."""

    __slots__ = ()


@record(frozen=True, slots=True)
class Local(Value):
    """A method-local variable (parameters and ``this`` are locals too)."""

    name: str
    type_hint: Optional[str] = None

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        # Locals are identified by name alone within a method; the type
        # hint is advisory (the parser rarely knows it).
        return isinstance(other, Local) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Local", self.name))


#: The implicit receiver local of instance methods.
THIS = Local("this")


@record(frozen=True, slots=True)
class Const(Value):
    """A literal constant: int, float, bool, str, or None (Java null)."""

    value: Union[int, float, bool, str, None]

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


class Expr(Value):
    """Base class for composite (non-atomic) right-hand-side values."""

    __slots__ = ()

    def operands(self) -> tuple[Value, ...]:
        """Atomic values read by this expression (for def-use analysis)."""
        return ()


@record(frozen=True, slots=True)
class NewExpr(Expr):
    """Object allocation: ``new C``. Constructor call is a separate invoke."""

    class_name: str

    def __str__(self) -> str:
        return f"new {self.class_name}"


@record(frozen=True, slots=True)
class NewArrayExpr(Expr):
    """Array allocation: ``new T[size]``."""

    element_type: str
    size: Value

    def operands(self) -> tuple[Value, ...]:
        return (self.size,)

    def __str__(self) -> str:
        return f"new {self.element_type}[{self.size}]"


#: Invocation kinds, mirroring JVM dispatch semantics.
KIND_VIRTUAL = "virtual"
KIND_STATIC = "static"
KIND_SPECIAL = "special"  # constructors and super calls
KIND_INTERFACE = "interface"

INVOKE_KINDS = frozenset({KIND_VIRTUAL, KIND_STATIC, KIND_SPECIAL, KIND_INTERFACE})


@record(frozen=True, slots=True)
class InvokeExpr(Expr):
    """A method invocation.

    ``base`` is the receiver local for instance calls and ``None`` for
    static calls.  ``args`` are atomic values (locals or constants) —
    the three-address property.
    """

    kind: str
    base: Optional[Local]
    sig: MethodSig
    args: tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in INVOKE_KINDS:
            raise ValueError(f"unknown invoke kind: {self.kind!r}")
        if self.kind == KIND_STATIC and self.base is not None:
            raise ValueError("static invoke must not have a receiver")
        if self.kind != KIND_STATIC and self.base is None:
            raise ValueError(f"{self.kind} invoke requires a receiver")

    def operands(self) -> tuple[Value, ...]:
        if self.base is None:
            return self.args
        return (self.base, *self.args)

    @property
    def is_constructor(self) -> bool:
        return self.sig.name == "<init>"

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if self.base is None:
            return f"{self.sig.class_name}.{self.sig.name}({args})"
        return f"{self.base}.{self.sig.name}({args})"


@record(frozen=True, slots=True)
class FieldRef(Expr):
    """Instance (``base != None``) or static (``base == None``) field access.

    Usable both as an rvalue and as the target of an assignment.
    """

    base: Optional[Local]
    sig: FieldSig

    def operands(self) -> tuple[Value, ...]:
        return () if self.base is None else (self.base,)

    def __str__(self) -> str:
        owner = self.sig.class_name if self.base is None else str(self.base)
        return f"{owner}.{self.sig.name}"


@record(frozen=True, slots=True)
class ArrayRef(Expr):
    """Array element access ``base[index]`` (rvalue or assignment target)."""

    base: Local
    index: Value

    def operands(self) -> tuple[Value, ...]:
        return (self.base, self.index)

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


#: Binary operators (a deliberately small, Jimple-flavoured set).
BINARY_OPS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "cmp"})


@record(frozen=True, slots=True)
class BinaryExpr(Expr):
    op: str
    left: Value
    right: Value

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {self.op!r}")

    def operands(self) -> tuple[Value, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@record(frozen=True, slots=True)
class UnaryExpr(Expr):
    op: str  # "neg" or "not"
    operand: Value

    def operands(self) -> tuple[Value, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op} {self.operand}"


@record(frozen=True, slots=True)
class CastExpr(Expr):
    type_name: str
    value: Value

    def operands(self) -> tuple[Value, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"({self.type_name}) {self.value}"


@record(frozen=True, slots=True)
class InstanceOfExpr(Expr):
    value: Value
    type_name: str

    def operands(self) -> tuple[Value, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.value} instanceof {self.type_name}"


@record(frozen=True, slots=True)
class LengthExpr(Expr):
    """Array length ``lengthof v``."""

    value: Value

    def operands(self) -> tuple[Value, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"lengthof {self.value}"


@record(frozen=True, slots=True)
class CaughtExceptionExpr(Expr):
    """The ``@caughtexception`` pseudo-value bound at a handler entry."""

    exception_type: str = THROWABLE

    def __str__(self) -> str:
        return f"@caughtexception {self.exception_type}"


#: Condition operators for `if` statements.
COND_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

_COND_NEGATION = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


@record(frozen=True, slots=True)
class ConditionExpr(Expr):
    """A branch condition ``left op right`` (operands are atomic)."""

    op: str
    left: Value
    right: Value

    def __post_init__(self) -> None:
        if self.op not in COND_OPS:
            raise ValueError(f"unknown condition operator: {self.op!r}")

    def operands(self) -> tuple[Value, ...]:
        return (self.left, self.right)

    def negate(self) -> "ConditionExpr":
        return ConditionExpr(_COND_NEGATION[self.op], self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def locals_in(value: Value) -> tuple[Local, ...]:
    """All locals read by ``value`` (the value itself if it is a local)."""
    if isinstance(value, Local):
        return (value,)
    if isinstance(value, Expr):
        found: list[Local] = []
        for op in value.operands():
            found.extend(locals_in(op))
        return tuple(found)
    return ()
