"""Reaching definitions and def-use chains."""

from __future__ import annotations

from collections import defaultdict, deque

from ..cfg.graph import CFG

#: A definition is ``(local_name, statement_index)``.
Definition = tuple[str, int]


class ReachingDefinitions:
    """Classic may-reaching-definitions over locals.

    States are integer bitsets over the method's enumerated definitions
    (the parameter pseudo-defs at index ``-1`` included): join is ``|``,
    kill is ``& ~mask``, both single C-level int operations — this
    analysis is built for every method the checks touch, making it the
    hottest dataflow fixpoint of a scan.  The solver is specialised here
    rather than using :class:`~repro.dataflow.framework.SetAnalysis`:
    acyclic CFGs (every edge advances the statement index) are solved in
    one ascending pass, cyclic ones with a worklist.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        method = cfg.method
        defs: list[Definition] = []
        bit_of: dict[Definition, int] = {}
        name_mask: dict[str, int] = {}

        param_names = [p.name for p in method.params]
        if not method.is_static:
            param_names.append("this")
        boundary_mask = 0
        for name in param_names:
            definition = (name, -1)
            bit = bit_of[definition] = len(defs)
            defs.append(definition)
            boundary_mask |= 1 << bit

        gen_mask: dict[int, int] = {}
        for idx, stmt in enumerate(method.statements):
            mask = 0
            for local in stmt.defs():
                definition = (local.name, idx)
                bit = bit_of.get(definition)
                if bit is None:
                    bit = bit_of[definition] = len(defs)
                    defs.append(definition)
                mask |= 1 << bit
            if mask:
                gen_mask[idx] = mask
        for (name, _idx), bit in bit_of.items():
            name_mask[name] = name_mask.get(name, 0) | (1 << bit)
        kill_mask: dict[int, int] = {
            idx: _union_name_masks(name_mask, defs, mask)
            for idx, mask in gen_mask.items()
        }

        self._defs = defs
        self._name_mask = name_mask
        self._gen_mask = gen_mask
        self._kill_mask = kill_mask
        self._boundary_mask = boundary_mask
        self._in: list[int] = [0] * cfg.node_count
        self._solve()

    def _transfer(self, node: int, state: int) -> int:
        gen = self._gen_mask.get(node)
        if gen is None:
            return state
        return (state & ~self._kill_mask[node]) | gen

    def _solve(self) -> None:
        cfg = self.cfg
        entry = cfg.entry
        preds = cfg.preds
        in_states = self._in
        out_states = [0] * cfg.node_count
        if cfg.acyclic:
            for node in range(cfg.node_count):
                if node == entry:
                    state = self._boundary_mask
                else:
                    state = 0
                    for pred in preds[node]:
                        state |= out_states[pred]
                in_states[node] = state
                out_states[node] = self._transfer(node, state)
            return
        succs = cfg.succs
        worklist: deque[int] = deque(range(cfg.node_count))
        queued = set(worklist)
        in_states[entry] = self._boundary_mask
        out_states[entry] = self._transfer(entry, self._boundary_mask)
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            if node != entry:
                state = 0
                for pred in preds[node]:
                    state |= out_states[pred]
                in_states[node] = state
            new_out = self._transfer(node, in_states[node])
            if new_out != out_states[node] or node == entry:
                out_states[node] = new_out
                for nxt in succs[node]:
                    if nxt not in queued:
                        queued.add(nxt)
                        worklist.append(nxt)

    # -- queries -------------------------------------------------------------

    def boundary(self) -> frozenset:
        return frozenset(
            self._defs[bit] for bit in _bits(self._boundary_mask)
        )

    def state_before(self, node: int) -> frozenset:
        """The fixed-point definition set entering ``node``."""
        return frozenset(self._defs[bit] for bit in _bits(self._in[node]))

    def reaching(self, node: int, local_name: str) -> frozenset[int]:
        """Indices of definitions of ``local_name`` reaching ``node``
        (``-1`` denotes the parameter definition)."""
        mask = self._in[node] & self._name_mask.get(local_name, 0)
        return frozenset(self._defs[bit][1] for bit in _bits(mask))


def _union_name_masks(
    name_mask: dict[str, int], defs: list[Definition], gen: int
) -> int:
    mask = 0
    for bit in _bits(gen):
        mask |= name_mask[defs[bit][0]]
    return mask


def _bits(mask: int):
    """Yield the set bit positions of a non-negative int."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DefUseChains:
    """Use→def and def→use queries over reaching definitions.

    Both directions are answered on demand: ``definition_sites`` reads
    the reaching-definition bitset at the use and memoizes the answer,
    and the def→use map is derived on the first ``use_sites`` call.
    Most methods are asked about a handful of (site, local) pairs, so
    no per-statement map is built up front.
    """

    def __init__(self, cfg: CFG, reaching: ReachingDefinitions | None = None) -> None:
        self.cfg = cfg
        self.reaching = reaching or ReachingDefinitions(cfg)
        self._defs_of_use: dict[tuple[int, str], frozenset[int]] = {}
        self._uses_of_def: dict[int, set[int]] | None = None

    def definition_sites(self, use_index: int, local_name: str) -> frozenset[int]:
        """Definitions of ``local_name`` reaching ``use_index`` (``-1`` is
        the parameter definition).  Any live local may be asked about, not
        only the ones the statement uses."""
        key = (use_index, local_name)
        found = self._defs_of_use.get(key)
        if found is None:
            found = self._defs_of_use[key] = self.reaching.reaching(
                use_index, local_name
            )
        return found

    def use_sites(self, def_index: int) -> set[int]:
        """Statements that use a local defined at ``def_index``."""
        uses_of_def = self._uses_of_def
        if uses_of_def is None:
            uses_of_def = self._uses_of_def = defaultdict(set)
            for idx, stmt in enumerate(self.cfg.method.statements):
                for name in {local.name for local in stmt.uses()}:
                    for site in self.reaching.reaching(idx, name):
                        uses_of_def[site].add(idx)
        return uses_of_def.get(def_index, set())
