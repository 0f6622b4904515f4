"""Control-flow substrate: CFGs, dominators, loops, control dependence."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "dominators": ("DominatorTree", "control_dependence"),
    "graph": ("CFG", "may_throw"),
    "loops": ("Loop", "loops_containing", "natural_loops"),
})

__all__ = [
    "CFG",
    "DominatorTree",
    "Loop",
    "control_dependence",
    "loops_containing",
    "may_throw",
    "natural_loops",
]
