"""NChecker core: the paper's contribution.

Public surface:

* :class:`NChecker` / :class:`NCheckerOptions` — the detector;
* :class:`ScanResult` / :class:`Finding` — results;
* :func:`build_report` — §4.6 warning reports;
* the NPD taxonomy (:class:`DefectKind`, :class:`Impact`, ...).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "checker": ("NChecker", "NCheckerOptions", "ScanResult"),
    "defects": (
        "DefectKind",
        "FIX_SUGGESTIONS",
        "Impact",
        "KIND_IMPACT",
        "KIND_PATTERN",
        "KIND_ROOT_CAUSE",
        "MisusePattern",
        "RootCause",
        "defect_info",
    ),
    "diff": ("ScanDiff", "diff_scans"),
    "findings": ("Finding", "context_of"),
    "patcher": ("AppliedPatch", "PatchResult", "Patcher"),
    "report": ("WarningReport", "build_report"),
    "requests": ("AnalysisContext", "NetworkRequest", "find_requests"),
    "retry_loops": ("RetryLoop", "identify_retry_loops"),
})

__all__ = [
    "AnalysisContext",
    "DefectKind",
    "FIX_SUGGESTIONS",
    "Finding",
    "Impact",
    "KIND_IMPACT",
    "KIND_PATTERN",
    "KIND_ROOT_CAUSE",
    "MisusePattern",
    "NChecker",
    "NCheckerOptions",
    "NetworkRequest",
    "PatchResult",
    "Patcher",
    "AppliedPatch",
    "RetryLoop",
    "RootCause",
    "ScanDiff",
    "diff_scans",
    "ScanResult",
    "WarningReport",
    "build_report",
    "context_of",
    "defect_info",
    "find_requests",
    "identify_retry_loops",
]
