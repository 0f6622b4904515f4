"""Backward program slicing (data + control dependence).

Paper §4.5 identifies customized retry loops by checking whether a loop
exit condition is (transitively) data- or control-dependent on statements
inside a catch block; backward slicing computes exactly that dependence
closure (Horwitz–Reps–Binkley style, intraprocedural).
"""

from __future__ import annotations

from typing import Optional

from ..cfg.dominators import control_dependence
from ..cfg.graph import CFG
from .reaching import DefUseChains


class Slicer:
    """Computes backward slices of a single method."""

    def __init__(self, cfg: CFG, defuse: Optional[DefUseChains] = None) -> None:
        self.cfg = cfg
        self.defuse = defuse or DefUseChains(cfg)
        self.control_deps = control_dependence(cfg)

    def backward_slice(
        self,
        criterion: int,
        locals_of_interest: Optional[set[str]] = None,
        include_control: bool = True,
    ) -> set[int]:
        """Statement indices the criterion (transitively) depends on.

        The criterion statement itself is included.  When
        ``locals_of_interest`` is None, all locals used by the criterion
        seed the slice.
        """
        stmt = self.cfg.method.statements[criterion]
        if locals_of_interest is None:
            locals_of_interest = {u.name for u in stmt.uses()}
        in_slice: set[int] = {criterion}
        worklist: list[tuple[int, str]] = [
            (criterion, name) for name in locals_of_interest
        ]
        seen: set[tuple[int, str]] = set(worklist)

        def enqueue_node(node: int) -> None:
            if node in in_slice or node < 0:
                return
            in_slice.add(node)
            node_stmt = self.cfg.method.statements[node]
            for used in node_stmt.uses():
                key = (node, used.name)
                if key not in seen:
                    seen.add(key)
                    worklist.append(key)
            if include_control:
                enqueue_control(node)

        def enqueue_control(node: int) -> None:
            for branch in self.control_deps.get(node, ()):
                if branch != self.cfg.exit:
                    enqueue_node(branch)

        if include_control:
            enqueue_control(criterion)

        while worklist:
            node, name = worklist.pop()
            for def_site in self.defuse.definition_sites(node, name):
                enqueue_node(def_site)
        return in_slice
