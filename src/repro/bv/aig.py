"""And-Inverter Graph (AIG) with structural hashing.

The AIG is the bit-level representation produced by bit-blasting.  Literals
are encoded as even/odd integers in the classic AIGER style: node ``n`` has
positive literal ``2 * n`` and negated literal ``2 * n + 1``.  Node 0 is the
constant FALSE, so literal ``0`` is FALSE and literal ``1`` is TRUE.

Structural hashing plus the local two-level rules below mean that two
bit-blasted circuits with the same structure share nodes, which is what lets
the equivalence-checking miter of two identically-built datapaths collapse
before the SAT solver ever sees it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["AIG", "TRUE_LIT", "FALSE_LIT"]

FALSE_LIT = 0
TRUE_LIT = 1


class AIG:
    """A mutable AIG under construction."""

    def __init__(self) -> None:
        # node index -> (left literal, right literal); index 0 is constant false.
        self._nodes: List[Tuple[int, int]] = [(0, 0)]
        self._strash: Dict[Tuple[int, int], int] = {}
        self._inputs: List[str] = []
        self._input_lits: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, name: str) -> int:
        """Create (or return) the primary input literal named ``name``."""
        if name in self._input_lits:
            return self._input_lits[name]
        index = len(self._nodes)
        self._nodes.append((-1, -1))  # sentinel marking a primary input
        lit = 2 * index
        self._inputs.append(name)
        self._input_lits[name] = lit
        return lit

    @staticmethod
    def negate(lit: int) -> int:
        return lit ^ 1

    def and_gate(self, a: int, b: int) -> int:
        """Return a literal for ``a AND b`` (with local simplification).

        Every gate below is built here, with its inversions spelled ``^ 1``,
        so one strash path serves them all.
        """
        if a > b:
            a, b = b, a
        if a == FALSE_LIT or a == b ^ 1:
            return FALSE_LIT
        if a == TRUE_LIT or a == b:
            return b
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        index = len(self._nodes)
        self._nodes.append(key)
        lit = 2 * index
        self._strash[key] = lit
        return lit

    def or_gate(self, a: int, b: int) -> int:
        return self.and_gate(a ^ 1, b ^ 1) ^ 1

    def xor_gate(self, a: int, b: int) -> int:
        # a XOR b = (a AND !b) OR (!a AND b)
        and_gate = self.and_gate
        return and_gate(and_gate(a, b ^ 1) ^ 1, and_gate(a ^ 1, b) ^ 1) ^ 1

    def xnor_gate(self, a: int, b: int) -> int:
        return self.xor_gate(a, b) ^ 1

    def mux(self, sel: int, on_true: int, on_false: int) -> int:
        """``sel ? on_true : on_false``."""
        if on_true == on_false:
            return on_true
        if sel == TRUE_LIT:
            return on_true
        if sel == FALSE_LIT:
            return on_false
        and_gate = self.and_gate
        return and_gate(and_gate(sel, on_true) ^ 1,
                        and_gate(sel ^ 1, on_false) ^ 1) ^ 1

    def and_many(self, lits: List[int]) -> int:
        result = TRUE_LIT
        for lit in lits:
            result = self.and_gate(result, lit)
        return result

    def or_many(self, lits: List[int]) -> int:
        result = FALSE_LIT
        for lit in lits:
            result = self.or_gate(result, lit)
        return result

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[Tuple[int, int]]:
        """The node table itself (read it, do not change it): node index →
        ``(left, right)`` fan-in literals; inputs are ``(-1, -1)``."""
        return self._nodes

    @property
    def inputs(self) -> List[str]:
        return list(self._inputs)

    def is_input(self, index: int) -> bool:
        return self._nodes[index] == (-1, -1) and index != 0

    def node(self, index: int) -> Tuple[int, int]:
        return self._nodes[index]

    def input_literal(self, name: str) -> int:
        return self._input_lits[name]

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def simulate(self, input_values: Dict[str, int], outputs: List[int]) -> List[int]:
        """Evaluate the AIG: each input name maps to 0/1; returns output bits."""
        values: List[int] = [0] * len(self._nodes)
        for name, lit in self._input_lits.items():
            values[lit >> 1] = input_values[name] & 1
        for index in range(1, len(self._nodes)):
            left, right = self._nodes[index]
            if (left, right) == (-1, -1):
                continue  # primary input, already set
            lv = values[left >> 1] ^ (left & 1)
            rv = values[right >> 1] ^ (right & 1)
            values[index] = lv & rv
        return [values[lit >> 1] ^ (lit & 1) for lit in outputs]

    def simulate_packed(self, input_words: Dict[str, int], outputs: List[int],
                        lanes: int = 64) -> List[int]:
        """Bit-parallel simulation: evaluate ``lanes`` input patterns at once.

        Each input name maps to a lane word whose bit ``i`` is that input's
        value under pattern ``i``; the returned output words are packed the
        same way.  One pass over the node list evaluates every lane
        simultaneously (negation is an XOR with the all-lanes mask), so a
        64-pattern gate-level sweep costs the same node walk as one
        :meth:`simulate` call.
        """
        flip = (0, (1 << lanes) - 1)
        words = self.simulate_packed_nodes(input_words, lanes)
        return [words[lit >> 1] ^ flip[lit & 1] for lit in outputs]

    def simulate_packed_nodes(self, input_words: Dict[str, int],
                              lanes: int = 64) -> List[int]:
        """The pass behind :meth:`simulate_packed`: every node's lane word,
        indexed by node."""
        flip = (0, (1 << lanes) - 1)  # XOR masks of a literal's polarity
        words = [0] * len(self._nodes)
        for name, lit in self._input_lits.items():
            words[lit >> 1] = input_words[name] & flip[1]
        for index, (left, right) in enumerate(self._nodes):
            if left > 0:  # an AND node; inputs are (-1, -1), node 0 (0, 0)
                words[index] = ((words[left >> 1] ^ flip[left & 1])
                                & (words[right >> 1] ^ flip[right & 1]))
        return words
