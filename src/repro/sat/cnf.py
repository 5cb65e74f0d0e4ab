"""CNF formula container with DIMACS import/export."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = ["CNF", "complete_model", "tseitin_clauses"]


def tseitin_clauses(gates: Iterable[Tuple[int, int, int]],
                    units: Iterable[int]) -> List[List[int]]:
    """The clause list of a Tseitin-encoded AND-gate circuit.

    Variable 1 is the constant FALSE: its unit ``[-1]`` comes first.  Each
    gate ``(out, left, right)`` then gives ``[-out, left]``,
    ``[-out, right]`` and ``[out, -left, -right]`` (``out`` ↔ ``left``
    AND ``right``), and each literal of ``units`` a unit clause, last.
    """
    clauses = [[-1]]
    for out, left, right in gates:
        clauses.append([-out, left])
        clauses.append([-out, right])
        clauses.append([out, -left, -right])
    clauses.extend([unit] for unit in units)
    return clauses


def complete_model(num_vars: int, assigned: Mapping[int, bool]) -> Dict[int, bool]:
    """Extend a partial assignment to a total model over ``1..num_vars``.

    Unconstrained variables default to ``False`` — the convention every
    solver in :mod:`repro.sat` shares, and the value lex-min refinement
    (:func:`repro.smt.solver.lex_min_model`) would give a variable the
    search never had to touch.  The assigned entries keep their insertion
    order so the returned dict is reproducible across solver engines.
    """
    model = dict(assigned)
    for var in range(1, num_vars + 1):
        model.setdefault(var, False)
    return model


class CNF:
    """A CNF formula: a list of clauses over 1-based DIMACS variables."""

    def __init__(self, num_vars: int = 0, clauses: Iterable[Sequence[int]] = ()) -> None:
        self.num_vars = num_vars
        self.clauses: List[List[int]] = []
        for clause in clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; grows ``num_vars`` if the clause mentions new ones."""
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(clause)

    def extend(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def copy(self) -> "CNF":
        duplicate = CNF(num_vars=self.num_vars)
        duplicate.clauses = [list(c) for c in self.clauses]
        return duplicate

    # ------------------------------------------------------------------ #
    # DIMACS
    # ------------------------------------------------------------------ #
    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        cnf = cls()
        declared_vars = 0
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                declared_vars = int(parts[2])
                continue
            literals = [int(tok) for tok in line.split() if tok]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            if literals:
                cnf.add_clause(literals)
        cnf.num_vars = max(cnf.num_vars, declared_vars)
        return cnf

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Check a full assignment (index 1..num_vars) against every clause."""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit)] if lit > 0 else not assignment[abs(lit)]
                for lit in clause
            ):
                return False
        return True
