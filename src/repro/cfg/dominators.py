"""Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative).

Post-dominators and the derived control-dependence relation are what the
retry-loop identifier (paper §4.5) uses to decide whether a loop-exit
condition is control-dependent on statements in a catch block.
"""

from __future__ import annotations

from .graph import CFG


class DominatorTree:
    """Immediate-dominator tree over a CFG (or its reverse)."""

    def __init__(self, cfg: CFG, reverse: bool = False) -> None:
        self.cfg = cfg
        self.reverse = reverse
        if reverse:
            self._root = cfg.exit
            self._preds = cfg.succs
            self._succs = cfg.preds
        else:
            self._root = cfg.entry
            self._preds = cfg.preds
            self._succs = cfg.succs
        self.idom: dict[int, int] = {}
        self._compute()

    def _order(self) -> list[int]:
        """Reverse postorder of the (possibly reversed) graph."""
        seen = {self._root}
        order: list[int] = []
        stack: list[tuple[int, int]] = [(self._root, 0)]
        while stack:
            node, child_idx = stack[-1]
            succs = self._succs[node]
            if child_idx < len(succs):
                stack[-1] = (node, child_idx + 1)
                succ = succs[child_idx]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def _compute(self) -> None:
        order = self._order()
        index = {node: i for i, node in enumerate(order)}
        idom: dict[int, int] = {self._root: self._root}

        def intersect(a: int, b: int) -> int:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == self._root:
                    continue
                candidates = [p for p in self._preds[node] if p in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(node) != new_idom:
                    idom[node] = new_idom
                    changed = True
        self.idom = idom

    def dominates(self, a: int, b: int) -> bool:
        """True when ``a`` (post)dominates ``b`` (reflexive)."""
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom.get(node)
            if parent is None or parent == node:
                return node == a
            node = parent


def control_dependence(cfg: CFG) -> dict[int, set[int]]:
    """Map each node to the set of branch nodes it is control-dependent on.

    Uses the classic Ferrante–Ottenstein–Warren construction: for every
    edge ``(a, b)`` where ``b`` does not post-dominate ``a``, the nodes on
    the post-dominator-tree path from ``b`` up to (exclusive) ``ipdom(a)``
    are control-dependent on ``a``.
    """
    pdom = DominatorTree(cfg, reverse=True)
    deps: dict[int, set[int]] = {node: set() for node in cfg.nodes()}
    for a in cfg.nodes():
        if len(cfg.succs[a]) < 2:
            continue
        a_ipdom = pdom.idom.get(a)
        for b in cfg.succs[a]:
            if b not in pdom.idom and b != cfg.exit:
                continue  # unreachable-from-exit node (infinite loop body)
            runner = b
            while runner != a_ipdom and runner is not None:
                deps[runner].add(a)
                if runner == a:  # loop back-edge: a depends on itself
                    break
                nxt = pdom.idom.get(runner)
                if nxt is None or nxt == runner:
                    break
                runner = nxt
    return deps
