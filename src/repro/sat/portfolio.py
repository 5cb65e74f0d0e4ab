"""The SAT step of verification.

The paper races Bitwuzla, cvc5, Yices2 and STP and takes the first answer
(§4.5).  This reproduction decides every verification query with one
engine: the :class:`~repro.sat.solver.CDCLSolver` the caller loaded with
the blasted miter, on the calling thread.  The caller canonicalizes a
counterexample on that same solver afterwards
(:func:`repro.smt.solver.lex_min_model`), so the engine's search order
never reaches an answer.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.sat.solver import CDCLSolver, SatResult

__all__ = ["SatPortfolio"]


class SatPortfolio:
    """Decide one loaded CDCL solver."""

    def solve(self, solver: CDCLSolver,
              deadline: Optional[float] = None) -> SatResult:
        """``unknown`` means the ``deadline`` expired first."""
        if deadline is not None and time.monotonic() >= deadline:
            return SatResult(status="unknown")
        return solver.solve()
