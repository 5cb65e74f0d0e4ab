"""Tseitin encoding of an AIG into CNF.

The CNF produced here is consumed by :mod:`repro.sat`.  CNF variables are
1-based (DIMACS convention); AIG node ``n`` maps to CNF variable ``n + 1``
so that the constant node 0 gets a dedicated variable forced to FALSE.

:func:`tseitin_gates` is the one cone walk: it lists the AND gates to
encode, in the contract order.
:meth:`~repro.sat.solver.CDCLSolver.load_gates` writes their clauses
straight into a solver's arena (both the candidate and the verification
solver load this way), and :func:`aig_to_cnf` expands the same clauses
into lists for tests and tools.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bv.aig import AIG
from repro.sat.cnf import CNF, tseitin_clauses

__all__ = ["aig_input_vars", "aig_to_cnf", "lit_to_cnf", "tseitin_gates"]


def lit_to_cnf(lit: int) -> int:
    """Map an AIG literal to a signed DIMACS literal."""
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


def aig_input_vars(aig: AIG) -> Dict[str, int]:
    """The CNF variable of every input bit of ``aig``, by name."""
    return {name: (aig.input_literal(name) >> 1) + 1 for name in aig.inputs}


def tseitin_gates(aig: AIG, output_lits: Sequence[int]
                  ) -> List[Tuple[int, int, int]]:
    """The AND gates the cones of influence of ``output_lits`` need.

    Each gate is a triple ``(out, left, right)``: its CNF variable and the
    CNF literals of its two fan-ins.  They come in one fixed order: output
    by output, the gates that output's cone adds to the cones before it,
    in ascending node index.  The order is part of the contract: it fixes
    the clause order, and with it the search trajectory of every solver
    the encoding is loaded into.  The triples are clean, because
    :meth:`AIG.and_gate` never builds a node with constant, equal or
    complementary fan-ins: no fan-in is the constant node, and the output
    and the two fan-ins are three distinct variables.
    """
    nodes = aig.nodes
    done = bytearray(len(nodes))
    done[0] = 1  # the constant node: its unit comes first, not a gate
    gates: List[Tuple[int, int, int]] = []
    for output in output_lits:
        cone: List[int] = []
        stack = [output >> 1]
        while stack:
            index = stack.pop()
            if done[index]:
                continue
            done[index] = 1
            left, right = nodes[index]
            if left >= 0:  # an AND node; inputs are (-1, -1)
                cone.append(index)
                stack.append(left >> 1)
                stack.append(right >> 1)
        cone.sort()
        for index in cone:
            left, right = nodes[index]
            left_var = (left >> 1) + 1
            right_var = (right >> 1) + 1
            gates.append((index + 1,
                          -left_var if left & 1 else left_var,
                          -right_var if right & 1 else right_var))
    return gates


def aig_to_cnf(aig: AIG, output_lits: List[int]) -> tuple[CNF, Dict[str, int]]:
    """Encode the cones of influence of ``output_lits``, asserted true.

    The clauses come in one fixed order: the constant-false unit; then the
    three clauses of each gate of :func:`tseitin_gates`, in its order;
    then one unit per output, in output order
    (:func:`~repro.sat.cnf.tseitin_clauses`).

    Returns the CNF and a map from input bit names to their CNF variable
    numbers.
    """
    cnf = CNF(num_vars=aig.num_nodes)
    # Set directly rather than through CNF.add_clause: every literal is a
    # nonzero literal of an AIG node, so num_vars above covers them all.
    cnf.clauses = tseitin_clauses(tseitin_gates(aig, output_lits),
                                  [lit_to_cnf(lit) for lit in output_lits])
    return cnf, aig_input_vars(aig)
