"""Dataflow framework: worklist solver plus the concrete analyses
NChecker needs (reaching definitions, def-use, liveness, constants,
taint, slicing)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "constants": ("BOTTOM", "ConstantPropagation", "TOP"),
    "framework": ("DataflowAnalysis", "SetAnalysis"),
    "liveness": ("Liveness",),
    "reaching": ("DefUseChains", "ReachingDefinitions"),
    "slicing": ("Slicer",),
    "taint": ("ForwardTaint", "TaintPolicy", "trace_origins"),
    "configvalues": ("ConfigCallValues", "config_call_values"),
    "summaries": (
        "CONFIG_TOP",
        "ConfigEffect",
        "MethodSummary",
        "RECEIVER",
        "SummaryEngine",
        "SummaryStats",
    ),
})

__all__ = [
    "BOTTOM",
    "CONFIG_TOP",
    "ConfigCallValues",
    "ConfigEffect",
    "ConstantPropagation",
    "DataflowAnalysis",
    "DefUseChains",
    "ForwardTaint",
    "Liveness",
    "MethodSummary",
    "RECEIVER",
    "ReachingDefinitions",
    "SetAnalysis",
    "Slicer",
    "SummaryEngine",
    "SummaryStats",
    "TOP",
    "TaintPolicy",
    "config_call_values",
    "trace_origins",
]
