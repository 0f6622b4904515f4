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
        # Slice nodes whose control dependences are still to be followed.
        controlled: list[int] = [criterion] if include_control else []

        # One loop, not mutually recursive helpers: nested functions that
        # call each other are a reference cycle left behind by every call.
        while worklist or controlled:
            if controlled:
                sources = [
                    branch
                    for branch in self.control_deps.get(controlled.pop(), ())
                    if branch != self.cfg.exit
                ]
            else:
                node, name = worklist.pop()
                sources = self.defuse.definition_sites(node, name)
            for node in sources:
                if node in in_slice or node < 0:
                    continue
                in_slice.add(node)
                for used in self.cfg.method.statements[node].uses():
                    key = (node, used.name)
                    if key not in seen:
                        seen.add(key)
                        worklist.append(key)
                if include_control:
                    controlled.append(node)
        return in_slice
