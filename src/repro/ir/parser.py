"""Parser for the ``.apkt`` class text format (inverse of the printer).

The format is line-oriented: one statement per line, labels on their own
lines, traps declared at the end of the method body.  See
:mod:`repro.ir.printer` for the grammar by example.
"""

from __future__ import annotations

import re
from typing import Optional

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
    ArrayRef,
    BINARY_OPS,
    BinaryExpr,
    CastExpr,
    CaughtExceptionExpr,
    COND_OPS,
    ConditionExpr,
    Const,
    FieldRef,
    FieldSig,
    InstanceOfExpr,
    InvokeExpr,
    LengthExpr,
    Local,
    MethodSig,
    NewArrayExpr,
    NewExpr,
    UnaryExpr,
    Value,
)


class ParseError(ValueError):
    """Raised on malformed ``.apkt`` input, with a line number."""

    def __init__(self, message: str, line_no: int, line: str = "") -> None:
        super().__init__(f"line {line_no}: {message}" + (f": {line!r}" if line else ""))
        self.line_no = line_no


_LABEL_RE = re.compile(r"^([A-Za-z_$][\w$]*):$")
_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?\d+\.\d+$")
_IDENT_RE = re.compile(r"^[A-Za-z_$][\w$.]*$")
_CALLEE_RE = re.compile(
    r"^(?:(?P<base>[A-Za-z_$][\w$]*):)?(?P<cls>[\w$.]+)#(?P<name>[\w$<>]+)$"
)
_METHOD_RE = re.compile(
    r"^method\s+(?P<ret>[\w$.\[\]]+)\s+(?P<name>[\w$<>]+)\((?P<params>[^)]*)\)"
    r"(?P<static>\s+static)?\s*\{$"
)
_CLASS_RE = re.compile(
    r"^(?P<kind>class|interface)\s+(?P<name>[\w$.]+)"
    r"(?:\s+extends\s+(?P<super>[\w$.]+))?"
    r"(?:\s+implements\s+(?P<ifaces>[\w$.,\s]+))?\s*\{$"
)
_TRAP_RE = re.compile(
    r"^trap\s+(?P<exc>[\w$.]+)\s+from\s+(?P<begin>[\w$]+)\s+to\s+(?P<end>[\w$]+)"
    r"\s+using\s+(?P<handler>[\w$]+)$"
)
_ASSIGN_RE = re.compile(r"^[A-Za-z_$][\w$]* = ")
_IF_RE = re.compile(r"^if\s+(\S+)\s+(==|!=|<=|>=|<|>)\s+(\S+)\s+goto\s+([\w$]+)$")
#: Longest-operator-first separators for the binary-expression scan.
_BINARY_SEPS = tuple(
    (f" {op} ", op)
    for op in sorted(BINARY_OPS, key=len, reverse=True)
)


#: Memoized comment stripping: invoke lines all contain ``#`` (the callee
#: separator) and so take the scanning path, but raw lines recur heavily
#: across methods and apps, making a bounded text→text cache profitable.
_STRIP_CACHE: dict[str, str] = {}
_STRIP_CACHE_MAX = 65536


def _strip_comment(line: str) -> str:
    """Remove ``#``-to-end-of-line comments outside string literals.

    A ``#`` inside single quotes (string constants) or in an invoke callee
    (``cls#name(``) is kept: invoke callees are recognised because the
    character following the hash is an identifier character and the line
    starts with/contains ``invoke``.
    """
    if "#" not in line:
        return line.strip()
    cached = _STRIP_CACHE.get(line)
    if cached is None:
        cached = _strip_comment_uncached(line)
        if len(_STRIP_CACHE) < _STRIP_CACHE_MAX:
            _STRIP_CACHE[line] = cached
    return cached


def _strip_comment_uncached(line: str) -> str:
    if "'" not in line:
        # No string literals on the line: every hash is either a callee
        # separator (identifier character follows) or starts the comment.
        start = 0
        while True:
            i = line.find("#", start)
            if i < 0:
                return line.strip()
            nxt = line[i + 1] if i + 1 < len(line) else " "
            if not (nxt.isalnum() or nxt in "_$<"):
                return line[:i].strip()
            start = i + 1
    out = []
    in_str = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "'":
            in_str = not in_str
        if ch == "#" and not in_str:
            # Hash inside an invoke callee: letter/underscore/'<' follows.
            nxt = line[i + 1] if i + 1 < len(line) else " "
            if not (nxt.isalnum() or nxt in "_$<"):
                break
        out.append(ch)
        i += 1
    return "".join(out).strip()


def _split_args(text: str) -> list[str]:
    """Split a comma-separated argument list, respecting quoted strings."""
    parts: list[str] = []
    depth_str = False
    current: list[str] = []
    for ch in text:
        if ch == "'":
            depth_str = not depth_str
            current.append(ch)
        elif ch == "," and not depth_str:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


#: Interned atoms: ``parse_atom`` is a pure function of the token text,
#: and both :class:`Const` and :class:`Local` are frozen, so recurring
#: tokens (``v0``, ``this``, ``0``, ``null``...) share one value object
#: across methods and apps instead of allocating per occurrence.  Bounded
#: so a pathological corpus of distinct literals cannot grow it forever.
_ATOM_CACHE: dict[str, Value] = {}
_ATOM_CACHE_MAX = 65536


def _parse_atom_uncached(token: str, line_no: int) -> Value:
    if token == "null":
        return Const(None)
    if token == "true":
        return Const(True)
    if token == "false":
        return Const(False)
    if _INT_RE.match(token):
        return Const(int(token))
    if _FLOAT_RE.match(token):
        return Const(float(token))
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return Const(token[1:-1])
    if "." not in token and _IDENT_RE.match(token):
        return Local(token)
    raise ParseError(f"cannot parse atom {token!r}", line_no)


def parse_atom(token: str, line_no: int = 0) -> Value:
    token = token.strip()
    value = _ATOM_CACHE.get(token)
    if value is None:
        value = _parse_atom_uncached(token, line_no)
        if len(_ATOM_CACHE) < _ATOM_CACHE_MAX:
            _ATOM_CACHE[token] = value
    return value


def _parse_invoke(text: str, line_no: int) -> InvokeExpr:
    rest = text[len("invoke "):].strip()
    try:
        kind, rest = rest.split(None, 1)
    except ValueError:
        raise ParseError("malformed invoke", line_no, text) from None
    return_type = "java.lang.Object"
    if "->" in rest:
        rest, ret = rest.rsplit("->", 1)
        return_type = ret.strip()
        rest = rest.strip()
    open_paren = rest.find("(")
    if open_paren < 0:
        raise ParseError("invoke missing opening parenthesis", line_no, text)
    if not rest.endswith(")"):
        raise ParseError("invoke missing closing parenthesis", line_no, text)
    callee_text = rest[:open_paren]
    args_text = rest[open_paren + 1 : -1]
    match = _CALLEE_RE.match(callee_text)
    if match is None:
        raise ParseError(f"malformed invoke callee {callee_text!r}", line_no)
    args = tuple(parse_atom(a, line_no) for a in _split_args(args_text))
    sig = MethodSig(
        match.group("cls"),
        match.group("name"),
        tuple("?" for _ in args),
        return_type,
    )
    base = Local(match.group("base")) if match.group("base") else None
    try:
        return InvokeExpr(kind, base, sig, args)
    except ValueError as exc:  # unknown kind, receiver mismatch
        raise ParseError(str(exc), line_no, text) from None


def _operands(text: str, line_no: int, line: str) -> tuple[str, str]:
    """The two operands of an ``op a b`` form (``b`` takes the rest)."""
    parts = text.split(None, 2)
    if len(parts) != 3:
        raise ParseError(f"{parts[0]} needs two operands", line_no, line)
    return parts[1], parts[2]


def _store(line: str, line_no: int) -> tuple[str, str]:
    """The target and value texts of a ``putfield``/``putstatic``/
    ``astore`` line."""
    head, sep, rhs = line.partition(" = ")
    if not sep:
        raise ParseError(f"{line.split(None, 1)[0]} missing ' = value'", line_no, line)
    return head, rhs


def _rhs_new(text: str, line_no: int) -> Value:
    return NewExpr(text[4:].strip())


def _rhs_newarray(text: str, line_no: int) -> Value:
    elem, size = _operands(text, line_no, text)
    return NewArrayExpr(elem, parse_atom(size, line_no))


def _rhs_getstatic(text: str, line_no: int) -> Value:
    qualified = text[len("getstatic "):].strip()
    cls, _, name = qualified.rpartition(".")
    return FieldRef(None, FieldSig(cls, name))


def _rhs_getfield(text: str, line_no: int) -> Value:
    base, qualified = _operands(text, line_no, text)
    cls, _, name = qualified.rpartition(".")
    return FieldRef(Local(base), FieldSig(cls, name))


def _rhs_aload(text: str, line_no: int) -> Value:
    base, index = _operands(text, line_no, text)
    return ArrayRef(Local(base), parse_atom(index, line_no))


def _rhs_cast(text: str, line_no: int) -> Value:
    type_name, value = _operands(text, line_no, text)
    return CastExpr(type_name, parse_atom(value, line_no))


def _rhs_unary(text: str, line_no: int) -> Value:
    op, operand = text.split(None, 1)
    return UnaryExpr(op, parse_atom(operand, line_no))


def _rhs_lengthof(text: str, line_no: int) -> Value:
    return LengthExpr(parse_atom(text[len("lengthof "):], line_no))


def _rhs_catch(text: str, line_no: int) -> Value:
    return CaughtExceptionExpr(text[len("catch "):].strip())


#: Right-hand-side dispatch keyed on the leading token (the text up to the
#: first space) — replaces the former ``str.startswith`` chain.
_RHS_DISPATCH = {
    "new": _rhs_new,
    "newarray": _rhs_newarray,
    "invoke": _parse_invoke,
    "getstatic": _rhs_getstatic,
    "getfield": _rhs_getfield,
    "aload": _rhs_aload,
    "cast": _rhs_cast,
    "neg": _rhs_unary,
    "not": _rhs_unary,
    "lengthof": _rhs_lengthof,
    "catch": _rhs_catch,
}


def _parse_rhs(text: str, line_no: int) -> Value:
    text = text.strip()
    head, sep, _rest = text.partition(" ")
    if sep:
        handler = _RHS_DISPATCH.get(head)
        if handler is not None:
            return handler(text, line_no)
    if " instanceof " in text:
        value, type_name = text.split(" instanceof ", 1)
        return InstanceOfExpr(parse_atom(value, line_no), type_name.strip())
    # Binary expression: "a OP b" with a single space-separated operator.
    # String constants never contain spaces around operators in our corpus,
    # but guard against splitting inside quotes anyway.
    if sep and not (text.startswith("'") and text.endswith("'")):
        for sep_text, op in _BINARY_SEPS:
            if sep_text in text:
                left, right = text.split(sep_text, 1)
                return BinaryExpr(
                    op, parse_atom(left, line_no), parse_atom(right, line_no)
                )
    return parse_atom(text, line_no)


def _stmt_return(line: str, line_no: int) -> Stmt:
    return ReturnStmt(parse_atom(line[7:], line_no))


def _stmt_throw(line: str, line_no: int) -> Stmt:
    return ThrowStmt(parse_atom(line[6:], line_no))


def _stmt_goto(line: str, line_no: int) -> Stmt:
    return GotoStmt(line[5:].strip())


def _stmt_if(line: str, line_no: int) -> Stmt:
    match = _IF_RE.match(line)
    if match is None:
        raise ParseError("malformed if", line_no, line)
    left, op, right, target = match.groups()
    if op not in COND_OPS:
        raise ParseError(f"unknown condition operator {op!r}", line_no)
    return IfStmt(
        ConditionExpr(op, parse_atom(left, line_no), parse_atom(right, line_no)),
        target,
    )


def _stmt_invoke(line: str, line_no: int) -> Stmt:
    return InvokeStmt(_parse_invoke(line, line_no))


def _stmt_putfield(line: str, line_no: int) -> Stmt:
    head, rhs = _store(line, line_no)
    base, qualified = _operands(head, line_no, line)
    cls, _, name = qualified.rpartition(".")
    return AssignStmt(
        FieldRef(Local(base), FieldSig(cls, name)), parse_atom(rhs, line_no)
    )


def _stmt_putstatic(line: str, line_no: int) -> Stmt:
    head, rhs = _store(line, line_no)
    qualified = head[len("putstatic "):].strip()
    cls, _, name = qualified.rpartition(".")
    return AssignStmt(FieldRef(None, FieldSig(cls, name)), parse_atom(rhs, line_no))


def _stmt_astore(line: str, line_no: int) -> Stmt:
    head, rhs = _store(line, line_no)
    base, index = _operands(head, line_no, line)
    return AssignStmt(
        ArrayRef(Local(base), parse_atom(index, line_no)),
        parse_atom(rhs, line_no),
    )


#: Statement dispatch keyed on the leading token.  Only consulted after
#: the bare-local assignment test, so keyword-named locals still parse.
_STMT_DISPATCH = {
    "return": _stmt_return,
    "throw": _stmt_throw,
    "goto": _stmt_goto,
    "if": _stmt_if,
    "invoke": _stmt_invoke,
    "putfield": _stmt_putfield,
    "putstatic": _stmt_putstatic,
    "astore": _stmt_astore,
}


#: Interned statements: every :class:`Stmt` subclass is a frozen record
#: over frozen values, and parsing is a pure function of the (stripped)
#: line text, so recurring lines — bare ``return``, common invokes, field
#: loads — share one statement object across methods and apps.  Bounded
#: like the atom cache.
_STMT_CACHE: dict[str, Stmt] = {}
_STMT_CACHE_MAX = 65536


def parse_stmt(line: str, line_no: int = 0) -> Stmt:
    """Parse one statement line (label lines are handled by the caller)."""
    stmt = _STMT_CACHE.get(line)
    if stmt is None:
        stmt = _parse_stmt_uncached(line, line_no)
        if len(_STMT_CACHE) < _STMT_CACHE_MAX:
            _STMT_CACHE[line] = stmt
    return stmt


def _parse_stmt_uncached(line: str, line_no: int) -> Stmt:
    # Bare-local assignment wins over keyword dispatch: locals may shadow
    # statement keywords ("if = 0"), and no keyword statement ever has
    # "=" as its second token, so "<ident> = rhs" is unambiguous.
    if _ASSIGN_RE.match(line) is not None:
        target, rhs = line.split(" = ", 1)
        return AssignStmt(Local(target), _parse_rhs(rhs, line_no))
    if line == "nop":
        return NopStmt()
    if line == "return":
        return ReturnStmt()
    head, sep, _rest = line.partition(" ")
    if sep:
        handler = _STMT_DISPATCH.get(head)
        if handler is not None:
            return handler(line, line_no)
    if " = " in line:
        target, rhs = line.split(" = ", 1)
        target = target.strip()
        if not _IDENT_RE.match(target) or "." in target:
            raise ParseError(f"bad assignment target {target!r}", line_no, line)
        return AssignStmt(Local(target), _parse_rhs(rhs, line_no))
    raise ParseError("unrecognised statement", line_no, line)


class _Cursor:
    def __init__(self, text: str, first_line: int = 1) -> None:
        self.lines = text.splitlines()
        self.pos = 0
        self.line_base = first_line - 1

    def next_meaningful(self) -> Optional[tuple[int, str]]:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            line = _strip_comment(raw)
            if line:
                return self.line_base + self.pos, line
        return None

    def peek(self) -> Optional[tuple[int, str]]:
        saved = self.pos
        result = self.next_meaningful()
        self.pos = saved
        return result


def _parse_method(cursor: _Cursor, class_name: str, header: str, line_no: int) -> IRMethod:
    match = _METHOD_RE.match(header)
    if match is None:
        raise ParseError("malformed method header", line_no, header)
    params: list[Local] = []
    param_types: list[str] = []
    params_text = match.group("params").strip()
    if params_text:
        for part in params_text.split(","):
            pieces = part.split()
            if len(pieces) != 2:
                raise ParseError(f"malformed parameter {part!r}", line_no)
            param_types.append(pieces[0])
            params.append(Local(pieces[1], pieces[0]))
    sig = MethodSig(
        class_name, match.group("name"), tuple(param_types), match.group("ret")
    )
    statements: list[Stmt] = []
    labels: dict[str, int] = {}
    traps: list[Trap] = []
    while True:
        item = cursor.next_meaningful()
        if item is None:
            raise ParseError("unexpected end of input in method body", line_no)
        stmt_no, line = item
        if line == "}":
            break
        label_match = _LABEL_RE.match(line)
        if label_match is not None:
            name = label_match.group(1)
            if name in labels:
                raise ParseError(f"duplicate label {name!r}", stmt_no)
            labels[name] = len(statements)
            continue
        trap_match = _TRAP_RE.match(line)
        if trap_match is not None:
            traps.append(
                Trap(
                    trap_match.group("begin"),
                    trap_match.group("end"),
                    trap_match.group("handler"),
                    trap_match.group("exc"),
                )
            )
            continue
        statements.append(parse_stmt(line, stmt_no))
    method = IRMethod(
        sig,
        params,
        statements,
        labels,
        traps,
        is_static=bool(match.group("static")),
    )
    method.validate()
    return method


def _parse_class_body(cursor: _Cursor, header: str, line_no: int) -> IRClass:
    match = _CLASS_RE.match(header)
    if match is None:
        raise ParseError("malformed class header", line_no, header)
    interfaces: tuple[str, ...] = ()
    if match.group("ifaces"):
        interfaces = tuple(
            part.strip() for part in match.group("ifaces").split(",") if part.strip()
        )
    cls = IRClass(
        match.group("name"),
        match.group("super") or "java.lang.Object",
        interfaces,
        is_interface=match.group("kind") == "interface",
    )
    while True:
        item = cursor.next_meaningful()
        if item is None:
            raise ParseError("unexpected end of input in class body", line_no)
        member_no, line = item
        if line == "}":
            break
        if line.startswith("field "):
            pieces = line.split()
            if len(pieces) != 3:
                raise ParseError("malformed field", member_no, line)
            cls.add_field(FieldSig(cls.name, pieces[2], pieces[1]))
            continue
        if line.startswith("method "):
            cls.add_method(_parse_method(cursor, cls.name, line, member_no))
            continue
        raise ParseError("unrecognised class member", member_no, line)
    return cls


def parse_class(text: str) -> IRClass:
    """Parse exactly one class definition."""
    classes = parse_classes(text)
    if len(classes) != 1:
        raise ParseError(f"expected exactly one class, found {len(classes)}", 0)
    return classes[0]


def parse_classes(text: str, first_line: int = 1) -> list[IRClass]:
    """Parse a sequence of class definitions; ``first_line`` is the line
    number of ``text``'s first line in its document, for error messages."""
    cursor = _Cursor(text, first_line)
    classes: list[IRClass] = []
    while True:
        item = cursor.next_meaningful()
        if item is None:
            return classes
        line_no, line = item
        if line.startswith(("class ", "interface ")):
            classes.append(_parse_class_body(cursor, line, line_no))
        else:
            raise ParseError("expected class or interface", line_no, line)
