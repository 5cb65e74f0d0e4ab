"""A simple DPLL SAT solver.

An independent oracle for the test suite: the property-based tests
cross-check CDCL against DPLL on random formulas.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.sat.cnf import CNF, complete_model
from repro.sat.solver import SatResult

__all__ = ["DPLLSolver"]


class DPLLSolver:
    """Iterative DPLL with unit propagation and pure-literal elimination."""

    def __init__(self, cnf: CNF, deadline: Optional[float] = None) -> None:
        self.cnf = cnf
        self.deadline = deadline

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        result = SatResult(status="unknown")
        clauses = [list(c) for c in self.cnf.clauses]
        assignment: Dict[int, bool] = {}
        for lit in assumptions:
            var, value = abs(lit), lit > 0
            if assignment.get(var, value) != value:
                result.status = "unsat"
                return result
            assignment[var] = value

        status, model = self._search(clauses, assignment, result)
        result.status = status
        if status == "sat":
            result.model = complete_model(self.cnf.num_vars, model)
        return result

    # ------------------------------------------------------------------ #
    def _simplify(self, clauses: List[List[int]], assignment: Dict[int, bool]):
        """Apply the current assignment; returns (new clauses, conflict?)."""
        simplified: List[List[int]] = []
        for clause in clauses:
            new_clause = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in assignment:
                    if (lit > 0) == assignment[var]:
                        satisfied = True
                        break
                else:
                    new_clause.append(lit)
            if satisfied:
                continue
            if not new_clause:
                return None, True
            simplified.append(new_clause)
        return simplified, False

    def _search(self, clauses, assignment, result: SatResult):
        stack = [(clauses, dict(assignment), None)]
        while stack:
            if self.deadline is not None and time.monotonic() > self.deadline:
                return "unknown", {}
            clauses, assignment, decision = stack.pop()
            if decision is not None:
                assignment[abs(decision)] = decision > 0
                result.decisions += 1

            # Unit propagation to fixpoint.
            conflict = False
            while True:
                clauses, conflict = self._simplify(clauses, assignment)
                if conflict:
                    break
                unit = next((c[0] for c in clauses if len(c) == 1), None)
                if unit is None:
                    break
                assignment[abs(unit)] = unit > 0
                result.propagations += 1
            if conflict:
                result.conflicts += 1
                continue
            if not clauses:
                return "sat", assignment

            # Branch on the variable occurring most often.
            counts: Dict[int, int] = {}
            for clause in clauses:
                for lit in clause:
                    counts[abs(lit)] = counts.get(abs(lit), 0) + 1
            branch_var = max(counts, key=counts.get)
            stack.append((clauses, dict(assignment), -branch_var))
            stack.append((clauses, dict(assignment), branch_var))
        return "unsat", {}
