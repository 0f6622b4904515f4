"""Findings: one detected NPD instance, carrying everything the report
generator (paper §4.6) needs."""

from __future__ import annotations

from typing import Optional

from .._record import field, record
from ..callgraph.entrypoints import MethodKey
from .defects import DefectKind, defect_info
from .requests import NetworkRequest


@record
class Finding:
    """One detected network programming defect."""

    kind: DefectKind
    app: str
    method_key: MethodKey
    stmt_index: int
    message: str
    request: Optional[NetworkRequest] = None
    #: "user", "background", "both", or "unknown" (paper §4.6 item 3).
    context: str = "unknown"
    #: The defect exists only because of a library default value
    #: (Table 8's third column).
    default_caused: bool = False
    #: Free-form details for the eval harness (missing API names etc.).
    details: dict = field(default_factory=dict)

    @property
    def location(self) -> str:
        cls, name, _arity = self.method_key
        return f"{cls}.{name}:{self.stmt_index}"

    @property
    def info(self):
        return defect_info(self.kind)

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.location}: {self.message}"


def context_of(request: NetworkRequest) -> str:
    user = request.user_initiated
    background = request.background
    if user and background:
        return "both"
    if user:
        return "user"
    if background:
        return "background"
    return "unknown"
