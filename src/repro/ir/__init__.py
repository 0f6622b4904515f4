"""Jimple-like intermediate representation for Android-style app binaries.

This package is the substrate the original NChecker obtained from Soot +
Dexpler: a typed three-address code with explicit labels, branches, and
exception traps.  It provides:

* :mod:`repro.ir.values` / :mod:`repro.ir.statements` -- the IR itself;
* :mod:`repro.ir.method` / :mod:`repro.ir.classes` -- bodies, classes, and
  hierarchy queries;
* :mod:`repro.ir.builder` -- fluent construction API;
* :mod:`repro.ir.parser` / :mod:`repro.ir.printer` -- the ``.apkt`` text
  format (round-trips).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("ClassBuilder", "ElseMarker", "LoopHandle", "MethodBuilder", "TryRegion"),
    "classes": ("ClassHierarchy", "IRClass"),
    "method": ("IRMethod", "Trap"),
    "metrics": ("AppMetrics", "MethodMetrics", "app_metrics", "method_metrics"),
    "transform": ("fresh_label", "insert_statements"),
    "parser": ("ParseError", "parse_class", "parse_classes", "parse_stmt"),
    "printer": ("format_stmt", "print_class", "print_method"),
    "statements": (
        "AssignStmt",
        "GotoStmt",
        "IfStmt",
        "InvokeStmt",
        "NopStmt",
        "ReturnStmt",
        "Stmt",
        "ThrowStmt",
    ),
    "values": (
        "ArrayRef",
        "BinaryExpr",
        "CastExpr",
        "CaughtExceptionExpr",
        "ConditionExpr",
        "Const",
        "FieldRef",
        "FieldSig",
        "InstanceOfExpr",
        "InvokeExpr",
        "KIND_INTERFACE",
        "KIND_SPECIAL",
        "KIND_STATIC",
        "KIND_VIRTUAL",
        "LengthExpr",
        "Local",
        "MethodSig",
        "NewArrayExpr",
        "NewExpr",
        "THIS",
        "UnaryExpr",
        "Value",
        "locals_in",
    ),
})

__all__ = [
    "AppMetrics", "MethodMetrics", "app_metrics", "method_metrics",
    "fresh_label", "insert_statements",
    "ArrayRef", "AssignStmt", "BinaryExpr", "CastExpr", "CaughtExceptionExpr",
    "ClassBuilder", "ClassHierarchy", "ConditionExpr", "Const", "ElseMarker",
    "FieldRef", "FieldSig", "GotoStmt", "IRClass", "IRMethod", "IfStmt",
    "InstanceOfExpr", "InvokeExpr", "InvokeStmt", "KIND_INTERFACE",
    "KIND_SPECIAL", "KIND_STATIC", "KIND_VIRTUAL", "LengthExpr", "Local",
    "LoopHandle", "MethodBuilder", "MethodSig", "NewArrayExpr",
    "NewExpr", "NopStmt", "ParseError", "ReturnStmt", "Stmt", "THIS",
    "ThrowStmt", "Trap", "TryRegion", "UnaryExpr", "Value", "format_stmt",
    "locals_in", "parse_class", "parse_classes", "parse_stmt", "print_class",
    "print_method",
]
