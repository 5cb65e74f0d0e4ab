"""SAT solving substrate.

The original Lakeroad races four industrial SMT/SAT solvers (Bitwuzla, cvc5,
Yices2 and STP).  This reproduction decides every query with one engine and
keeps two references for the tests:

* :class:`repro.sat.solver.CDCLSolver` -- conflict-driven clause learning
  over a flat clause arena with blocker-literal watchers, VSIDS branching,
  first-UIP clause learning, Luby restarts and phase saving.
* :class:`repro.sat.legacy.LegacyCDCLSolver` -- the list-based CDCL the
  arena solver replaced, kept as the bit-for-bit reference the
  differential suite compares the arena against.
* :class:`repro.sat.dpll.DPLLSolver`   -- a simple DPLL with unit
  propagation, a cross-check oracle in the test suite.
* :mod:`repro.sat.portfolio`           -- the verification step's SAT call:
  one solve of the ``CDCLSolver`` its caller loaded, under a deadline.

The two references are resolved lazily, so the map path, which never runs
them, does not import them.
"""

from repro.sat.cnf import CNF, complete_model
from repro.sat.solver import CDCLSolver, SatResult

__all__ = ["CNF", "CDCLSolver", "DPLLSolver", "LegacyCDCLSolver",
           "SatResult", "complete_model"]


def __getattr__(name):
    if name == "DPLLSolver":
        from repro.sat.dpll import DPLLSolver

        return DPLLSolver
    if name == "LegacyCDCLSolver":
        from repro.sat.legacy import LegacyCDCLSolver

        return LegacyCDCLSolver
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
