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

The time limit is a :class:`~repro.engine.budget.Budget` down to here and
an absolute ``time.monotonic`` deadline from :func:`~repro.smt.cegis.
synthesize` down: ``f_lr_star`` is the one place that converts.
"""

from __future__ import annotations

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

__all__ = ["SynthesisOutcome", "f_lr", "f_lr_star"]


@dataclass
class SynthesisOutcome:
    """The result of a call to ``f_lr`` / ``f*_lr``."""

    status: str  # "sat", "unsat", "unknown"
    program: Optional[Program] = None
    hole_values: Dict[str, int] = field(default_factory=dict)
    cegis_iterations: int = 0
    candidate_strategy: str = "none"
    verify_strategy: str = "none"
    #: Why a run degraded to ``unknown`` (empty for clean outcomes).
    diagnostic: str = ""
    #: The CEGIS run's counters map (see :mod:`repro.engine.stats`).
    stats: Dict[str, float] = field(default_factory=new_stats)

    @property
    def succeeded(self) -> bool:
        return self.status == "sat"


def _build_obligations(sketch: Sketch, design: Program, at_time: int,
                       cycles: int) -> List[Obligation]:
    pairs = output_pairs(sketch.program, design, at_time, cycles)
    return [Obligation(spec=design_out, sketch=sketch_out)
            for _, sketch_out, design_out in pairs]


def f_lr_star(sketch: Sketch, design: Program, at_time: int, cycles: int = 0,
              budget: Optional[Budget] = None) -> SynthesisOutcome:
    """Synthesize a ``t``-cycle implementation of ``design`` guided by ``sketch``,
    equivalent over the window ``at_time .. at_time + cycles``.

    ``budget`` is the time limit (None: unlimited).  The mapping session
    passes its started budget, so sketch generation already counts
    against it; an unstarted one starts here.
    """
    deadline = budget.start().deadline if budget is not None else None

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
        deadline=deadline,
    )

    outcome = SynthesisOutcome(
        status=cegis.status,
        cegis_iterations=cegis.iterations,
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
         budget: Optional[Budget] = None) -> SynthesisOutcome:
    """``f_lr(Ψ, d, t)``: single-timestep synthesis (Section 3.1)."""
    return f_lr_star(sketch, design, at_time, cycles=0, budget=budget)
