"""Program equivalence for ℒlr (Section 3.3 and Section 3.5).

``p ≡_t d`` holds when the two programs have the same free variables and
produce the same root value at time ``t`` under every environment.  The
bounded-model-checking extension of §3.5 conjoins the equality over the
window ``t .. t + c``.

:func:`output_pairs` interprets both programs symbolically over the
*same* per-timestep input variables; ``f*_lr`` (:mod:`repro.core.synthesis`)
turns each pair into a CEGIS obligation, whose verification step decides
it with :mod:`repro.smt.equivalence`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bv.ast import BVExpr
from repro.core.interp import SymbolicInterpreter
from repro.core.lang import Program

__all__ = ["output_pairs"]


def output_pairs(candidate: Program, design: Program, start_time: int,
                 cycles: int = 0) -> List[Tuple[int, BVExpr, BVExpr]]:
    """Symbolic outputs of both programs at each checked timestep.

    Returns tuples ``(t, candidate_output, design_output)`` for
    ``t = start_time .. start_time + cycles``, with both programs reading the
    same per-timestep input variables.
    """
    if candidate.free_vars() != design.free_vars():
        raise ValueError(
            f"programs have different free variables: {sorted(candidate.free_vars())} "
            f"vs {sorted(design.free_vars())}")
    pairs: List[Tuple[int, BVExpr, BVExpr]] = []
    candidate_interp = SymbolicInterpreter(candidate)
    design_interp = SymbolicInterpreter(design)
    for t in range(start_time, start_time + cycles + 1):
        pairs.append((t, candidate_interp.run(t), design_interp.run(t)))
    return pairs
