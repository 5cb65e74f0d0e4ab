"""Tseitin encoding of an AIG into CNF.

The CNF produced here is consumed by :mod:`repro.sat`.  CNF variables are
1-based (DIMACS convention); AIG node ``n`` maps to CNF variable ``n + 1``
so that the constant node 0 gets a dedicated variable forced to FALSE.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.bv.aig import AIG
from repro.sat.cnf import CNF

__all__ = ["aig_to_cnf", "lit_to_cnf"]


def lit_to_cnf(lit: int) -> int:
    """Map an AIG literal to a signed DIMACS literal."""
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


def aig_to_cnf(aig: AIG, output_lits: List[int]) -> tuple[CNF, Dict[str, int]]:
    """Encode the cones of influence of ``output_lits``, asserted true.

    The clauses come in one fixed order: the constant-false unit; then,
    output by output, the gate clauses of the nodes that output's cone
    adds to the cones before it, in ascending node index; then one unit
    per output, in output order.  The order is part of the contract: it
    fixes the search trajectory of every solver the CNF is loaded into.

    Returns the CNF and a map from input bit names to their CNF variable
    numbers.
    """
    cnf = CNF(num_vars=aig.num_nodes)
    # Appended straight to the clause list: lit_to_cnf never yields the
    # invalid literal 0 and every variable is an AIG node, so num_vars
    # above covers them all (CNF.add_clause keeps checking DIMACS and
    # caller input).  The clauses are clean too: AIG.and_gate never builds
    # a node with constant, equal or complementary fan-ins.
    clauses = cnf.clauses
    clauses.append([-1])
    encoded: Set[int] = {0}
    for output in output_lits:
        cone: Set[int] = set()
        stack = [output >> 1]
        while stack:
            index = stack.pop()
            if index in cone or index in encoded:
                continue
            cone.add(index)
            left, right = aig.node(index)
            if (left, right) != (-1, -1):  # not a primary input
                stack.append(left >> 1)
                stack.append(right >> 1)
        encoded |= cone
        # out <-> left AND right
        for index in sorted(cone):
            if aig.is_input(index):
                continue
            left, right = aig.node(index)
            out_var = index + 1
            left_lit = lit_to_cnf(left)
            right_lit = lit_to_cnf(right)
            clauses.append([-out_var, left_lit])
            clauses.append([-out_var, right_lit])
            clauses.append([out_var, -left_lit, -right_lit])
    clauses.extend([lit_to_cnf(lit)] for lit in output_lits)
    input_vars = {name: (aig.input_literal(name) >> 1) + 1
                  for name in aig.inputs}
    return cnf, input_vars
