"""Tseitin encoding of an AIG into CNF — one-shot and incremental.

The CNF produced here is consumed by :mod:`repro.sat`.  CNF variables are
1-based (DIMACS convention); AIG node ``n`` maps to CNF variable ``n + 1``
so that the constant node 0 gets a dedicated variable forced to FALSE.

:class:`IncrementalCnf` keeps the encoding alive across queries: the AIG
may keep growing (structural hashing gives every node a stable index, hence
a stable CNF variable), and each ``encode``/``assert_lit`` call appends
clauses only for the cone nodes that have not been clause-ified yet.  This
is the namespace-stability half of incremental CEGIS: a hole variable's
bits keep the same CNF literals in every iteration, so learned clauses
about them remain meaningful.  :func:`aig_to_cnf` is the historical
one-shot form, now a thin wrapper over a throwaway incremental encoder.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.bv.aig import AIG
from repro.sat.cnf import CNF

__all__ = ["IncrementalCnf", "aig_to_cnf", "lit_to_cnf"]


def lit_to_cnf(lit: int) -> int:
    """Map an AIG literal to a signed DIMACS literal."""
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


class IncrementalCnf:
    """An append-only Tseitin encoding of a growing AIG.

    The encoder owns one :class:`~repro.sat.cnf.CNF` whose variable space
    mirrors the AIG's node space.  ``encode`` walks the cone of influence of
    the requested literals and emits gate clauses for nodes seen for the
    first time; already-encoded nodes (whose cones are encoded by
    construction) are never revisited, so the clause list only ever grows.
    """

    def __init__(self, aig: AIG) -> None:
        self.aig = aig
        self.cnf = CNF(num_vars=aig.num_nodes)
        # Constant-false node.
        self.cnf.add_clause([-1])
        self._encoded: Set[int] = {0}

    def encode(self, output_lits: List[int]) -> None:
        """Append gate clauses for any not-yet-encoded cone of ``output_lits``."""
        needed: Set[int] = set()
        stack = [lit >> 1 for lit in output_lits]
        while stack:
            index = stack.pop()
            if index in needed or index in self._encoded:
                continue
            needed.add(index)
            left, right = self.aig.node(index)
            if (left, right) != (-1, -1) and index != 0:
                stack.append(left >> 1)
                stack.append(right >> 1)

        # out <-> left AND right, appended straight to the clause list:
        # lit_to_cnf never yields the invalid literal 0, and every variable
        # is an AIG node, so the one num_vars update below covers the batch
        # (CNF.add_clause keeps checking DIMACS and caller input).  The
        # clauses are clean too: AIG.and_gate never builds a node with
        # constant, equal or complementary fan-ins.
        clauses = self.cnf.clauses
        for index in sorted(needed):
            self._encoded.add(index)
            if self.aig.is_input(index):
                continue
            left, right = self.aig.node(index)
            out_var = index + 1
            left_lit = lit_to_cnf(left)
            right_lit = lit_to_cnf(right)
            clauses.append([-out_var, left_lit])
            clauses.append([-out_var, right_lit])
            clauses.append([out_var, -left_lit, -right_lit])

        self.cnf.num_vars = max(self.cnf.num_vars, self.aig.num_nodes)

    def assert_lit(self, lit: int) -> None:
        """Constrain an AIG literal to be true (a permanent obligation)."""
        self.encode([lit])
        self.cnf.add_clause([lit_to_cnf(lit)])

    def gate_literal(self, lit: int) -> int:
        """Encode the cone of an AIG literal and return its DIMACS literal.

        Unlike :meth:`assert_lit` the literal is *not* constrained: the
        clauses only define the cone, and callers activate (or negate) the
        output per query by passing the returned literal as a solver
        assumption.  This is the miter-output idiom of incremental
        verification — one CNF holds every obligation's miter, and each
        check gates exactly one of them on.
        """
        self.encode([lit])
        return lit_to_cnf(lit)

    def input_vars(self) -> Dict[str, int]:
        """Map from input bit names to their (stable) CNF variable numbers."""
        return {name: (self.aig.input_literal(name) >> 1) + 1
                for name in self.aig.inputs}


def aig_to_cnf(aig: AIG, output_lits: List[int]) -> tuple[CNF, Dict[str, int]]:
    """Encode the cone of influence of ``output_lits`` as CNF (one-shot).

    Returns the CNF (with the outputs asserted true) and a map from input
    bit names to their CNF variable numbers.
    """
    encoder = IncrementalCnf(aig)
    encoder.encode(output_lits)
    for lit in output_lits:
        encoder.cnf.add_clause([lit_to_cnf(lit)])
    return encoder.cnf, encoder.input_vars()
