"""Table 4 of the paper: per-library NPD-tolerance capabilities.

``AUTO`` (⋆ in the paper) means the library tolerates the NPD cause
automatically; ``MANUAL`` (©) means it offers APIs but the developer must
invoke/configure them explicitly.  The matrix is encoded exactly as the
paper prints it and is cross-checked in tests against the per-library
``LibraryDefaults``.
"""

from __future__ import annotations

from enum import Enum

from .annotations import LibraryModel


class Tolerance(Enum):
    AUTO = "*"  # ⋆ — tolerated automatically
    MANUAL = "o"  # © — APIs provided, explicit setup required

    def __str__(self) -> str:
        return self.value


#: Row labels in paper order (Table 4, column 1).
NPD_CAUSE_ROWS: tuple[str, ...] = (
    "No connectivity check",
    "No retry on transient error",
    "Over retry",
    "No timeout",
    "No/Misleading failure notification",
    "No invalid response check",
    "No reconnection on net switch",
    "No auto failure recovery",
)

#: Column keys in paper order (Table 4, columns 2-7).
LIBRARY_COLUMNS: tuple[str, ...] = (
    "httpurlconnection",
    "apache",
    "volley",
    "okhttp",
    "asynchttp",
    "basichttp",
)

_A = Tolerance.AUTO
_M = Tolerance.MANUAL

#: The matrix as printed in the paper (rows × columns above).
CAPABILITY_MATRIX: dict[str, tuple[Tolerance, ...]] = {
    "No connectivity check": (_M, _M, _M, _M, _M, _M),
    "No retry on transient error": (_A, _M, _A, _A, _M, _A),
    "Over retry": (_M, _M, _M, _M, _M, _M),
    "No timeout": (_M, _M, _A, _M, _A, _A),
    "No/Misleading failure notification": (_M, _M, _M, _M, _M, _M),
    "No invalid response check": (_M, _M, _A, _M, _M, _M),
    "No reconnection on net switch": (_M, _M, _M, _M, _M, _M),
    "No auto failure recovery": (_M, _M, _M, _M, _M, _M),
}


#: Extended matrix: the taxonomy-driven NPD causes beyond the paper's
#: Table 4 (added by the thread-context and callback-lifecycle analyses)
#: × LIBRARY_COLUMNS, kept apart so the paper matrix above stays exactly
#: as printed (and test-asserted).  Volley and loopj run
#: the request off-thread automatically (⋆ for UI-thread calls); Volley's
#: request queue caches responses by default (⋆ for offline fallback);
#: everything else offers APIs the developer must wire up (©).
EXTENDED_CAPABILITY_MATRIX: dict[str, tuple[Tolerance, ...]] = {
    "Network call on UI thread": (_M, _M, _A, _M, _A, _M),
    "Connectivity callback leak": (_M, _M, _M, _M, _M, _M),
    "No offline cache fallback": (_M, _M, _A, _M, _M, _M),
}


def tolerance(lib_key: str, cause_row: str) -> Tolerance:
    try:
        column = LIBRARY_COLUMNS.index(lib_key)
    except ValueError:
        raise KeyError(f"unknown library {lib_key!r}") from None
    if cause_row in EXTENDED_CAPABILITY_MATRIX:
        return EXTENDED_CAPABILITY_MATRIX[cause_row][column]
    return CAPABILITY_MATRIX[cause_row][column]


def tolerates_automatically(lib: LibraryModel, cause_row: str) -> bool:
    return tolerance(lib.key, cause_row) is Tolerance.AUTO


def render_table4() -> list[list[str]]:
    """Rows of Table 4 ready for text rendering (header first)."""
    header = ["NPD Causes", *LIBRARY_COLUMNS]
    rows = [header]
    for cause in NPD_CAUSE_ROWS:
        rows.append([cause, *[str(t) for t in CAPABILITY_MATRIX[cause]]])
    return rows
