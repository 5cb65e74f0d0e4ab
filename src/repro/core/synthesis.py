"""The Lakeroad synthesis functions ``f_lr`` and ``f*_lr`` (Sections 3.1, 3.5).

``f_lr(Ψ, d, t)`` asks for hole values making the sketch Ψ equivalent to the
behavioral design ``d`` at clock cycle ``t``; ``f*_lr(Ψ, d, t, c)`` extends
the guarantee to the window ``t .. t + c`` (bounded model checking,
implemented — exactly as in §4.5 — by making ``c + 1`` equality assertions).

Both are partial functions: the result distinguishes

* ``sat``     -- synthesis succeeded; the filled, well-formed ℒstruct
  program is returned together with the solved hole values,
* ``unsat``   -- the sketch cannot implement the design (no completion
  exists), which the evaluation reports as the UNSAT outcome,
* ``unknown`` -- the per-query time budget expired (the paper's timeout).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.equivalence import output_pairs
from repro.core.interp import hole_variable_name
from repro.core.lang import Program
from repro.core.sketch import Sketch, fill_holes
from repro.core.sublang import is_behavioral, is_structural, is_sketch
from repro.core.transform import simplify_structural
from repro.core.wellformed import check_well_formed
from repro.engine.budget import Budget
from repro.engine.stats import new as new_stats
from repro.smt.cegis import CegisResult, Obligation, synthesize
from repro.smt.solver import SmtSolver

__all__ = ["SynthesisOutcome", "f_lr", "f_lr_star"]


@dataclass
class SynthesisOutcome:
    """The result of a call to ``f_lr`` / ``f*_lr``."""

    status: str  # "sat", "unsat", "unknown"
    program: Optional[Program] = None
    hole_values: Dict[str, int] = field(default_factory=dict)
    cegis_iterations: int = 0
    time_seconds: float = 0.0
    candidate_strategy: str = "none"
    verify_strategy: str = "none"
    #: Why a run degraded to ``unknown`` (empty for clean outcomes).
    diagnostic: str = ""
    #: The CEGIS run's counters map (see :mod:`repro.engine.stats`).
    stats: Dict[str, float] = field(default_factory=new_stats)

    @property
    def succeeded(self) -> bool:
        return self.status == "sat"

    @property
    def timed_out(self) -> bool:
        return self.status == "unknown"


def _build_obligations(sketch: Sketch, design: Program, at_time: int,
                       cycles: int) -> List[Obligation]:
    pairs = output_pairs(sketch.program, design, at_time, cycles)
    return [Obligation(spec=design_out, sketch=sketch_out)
            for _, sketch_out, design_out in pairs]


def f_lr_star(sketch: Sketch, design: Program, at_time: int, cycles: int = 0,
              timeout_seconds: Optional[float] = None,
              solver: Optional[SmtSolver] = None,
              check_inputs: bool = True,
              budget: Optional[Budget] = None,
              random_probes: int = 32) -> SynthesisOutcome:
    """Synthesize a ``t``-cycle implementation of ``design`` guided by ``sketch``,
    equivalent over the window ``at_time .. at_time + cycles``.

    The time budget can be given either as a started :class:`Budget` (the
    mapping session's, so sketch-generation time already counts against it)
    or as a plain ``timeout_seconds`` convenience.
    """
    start = time.monotonic()
    if budget is None:
        budget = Budget(timeout_seconds=timeout_seconds)
    budget.start()

    if check_inputs:
        if not is_behavioral(design):
            raise ValueError("the design must be a behavioral (ℒbeh) program")
        if not is_sketch(sketch.program):
            raise ValueError("the sketch program must be in ℒsketch")
        check_well_formed(design)
        check_well_formed(sketch.program)
    if cycles < 0:
        raise ValueError("cycles must be non-negative")

    obligations = _build_obligations(sketch, design, at_time, cycles)
    hole_widths = {hole_variable_name(name): width
                   for name, width in sketch.hole_widths.items()}

    cegis: CegisResult = synthesize(
        obligations,
        hole_widths=hole_widths,
        hole_constraints=list(sketch.hole_constraints),
        budget=budget,
        solver=solver,
        random_probes=random_probes,
    )

    outcome = SynthesisOutcome(
        status=cegis.status,
        cegis_iterations=cegis.iterations,
        time_seconds=time.monotonic() - start,
        candidate_strategy=cegis.candidate_strategy,
        verify_strategy=cegis.verify_strategy,
        diagnostic=cegis.diagnostic,
        stats=cegis.stats,
    )
    if not cegis.succeeded:
        return outcome

    hole_values = {name: cegis.hole_values[hole_variable_name(name)]
                   for name in sketch.hole_widths}
    program = simplify_structural(fill_holes(sketch, hole_values))
    # The returned program must be a well-formed completion of the sketch
    # (this is the correctness statement of §3.4).
    check_well_formed(program)
    if not is_structural(program):
        raise RuntimeError("synthesis produced a non-structural program (internal error)")
    outcome.program = program
    outcome.hole_values = hole_values
    return outcome


def f_lr(sketch: Sketch, design: Program, at_time: int,
         timeout_seconds: Optional[float] = None,
         solver: Optional[SmtSolver] = None,
         budget: Optional[Budget] = None) -> SynthesisOutcome:
    """``f_lr(Ψ, d, t)``: single-timestep synthesis (Section 3.1)."""
    return f_lr_star(sketch, design, at_time, cycles=0,
                     timeout_seconds=timeout_seconds, solver=solver, budget=budget)
