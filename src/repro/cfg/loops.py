"""Natural-loop detection on the statement-level CFG.

Retry-logic identification (paper §4.5) starts from loops whose bodies
directly or transitively contain network request call sites; this module
finds the loops and their exits.
"""

from __future__ import annotations

from .._record import record
from .dominators import DominatorTree
from .graph import CFG


@record
class Loop:
    """A natural loop: header, member nodes, and its exit edges.

    ``exits`` are CFG edges ``(src, dst)`` with ``src`` inside the loop and
    ``dst`` outside; these carry the *retry conditions* of paper §4.5 when
    ``src`` is a conditional branch, or unconditional exits when ``src``
    is a goto/return/throw.
    """

    header: int
    body: frozenset[int]
    back_edges: tuple[tuple[int, int], ...]
    exits: tuple[tuple[int, int], ...] = ()

    def __contains__(self, node: int) -> bool:
        return node in self.body

    def __len__(self) -> int:
        return len(self.body)


def natural_loops(cfg: CFG, dom: DominatorTree | None = None) -> list[Loop]:
    """All natural loops, one per header (same-header loops are merged)."""
    # Fast path: an acyclic CFG has no back edges, hence no loops, and no
    # need to compute dominators at all.  Most methods are loop-free.
    if dom is None and cfg.acyclic:
        return []
    dom = dom or DominatorTree(cfg)
    reachable = cfg.reachable_from(cfg.entry)
    back_edges_by_header: dict[int, list[tuple[int, int]]] = {}
    for src in cfg.nodes():
        if src not in reachable:
            continue
        for dst in cfg.succs[src]:
            if dst in dom.idom and dom.dominates(dst, src):
                back_edges_by_header.setdefault(dst, []).append((src, dst))

    loops: list[Loop] = []
    for header, back_edges in sorted(back_edges_by_header.items()):
        body: set[int] = {header}
        worklist = [src for src, _ in back_edges]
        while worklist:
            node = worklist.pop()
            if node in body:
                continue
            body.add(node)
            worklist.extend(cfg.preds[node])
        exits: list[tuple[int, int]] = []
        for node in sorted(body):
            for succ in cfg.succs[node]:
                if succ not in body:
                    exits.append((node, succ))
        loops.append(
            Loop(header, frozenset(body), tuple(back_edges), tuple(exits))
        )
    return loops


def loops_containing(loops: list[Loop], node: int) -> list[Loop]:
    """Loops whose body contains ``node``, innermost (smallest) first."""
    return sorted((lp for lp in loops if node in lp), key=len)
