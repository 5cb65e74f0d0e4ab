"""Equivalence checking of word-level expressions (the synthesis verifier).

Given two expressions over the same free variables, builds the miter
``lhs != rhs`` and decides it with the layered strategy of
:mod:`repro.smt.solver`.  The fast path matters: after the smart-constructor
rewriting, a correctly configured FPGA primitive usually collapses to the
very same DAG as the specification, so most verification calls never reach
the SAT solver.

When the fast layers cannot decide, the (hole-substituted) miter is
bit-blasted and one CDCL solve decides it.  Counterexamples from that SAT
layer are *canonicalized* (the name-ordered lexicographically smallest
input assignment, see :func:`repro.smt.solver.lex_min_model`) when
``canonical=True``, so however the solver searched, CEGIS gets the same
counterexample and walks the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.bv import bvne
from repro.bv.ast import BVExpr
from repro.bv.eval import var_widths
from repro.smt.model import Model
from repro.smt.solver import SmtSolver, check_sat
# Bound here as well so perfbench's tracer, which wraps lex_min_model at
# every name a module bound it to, still finds it.
from repro.smt.solver import lex_min_model  # noqa: F401

__all__ = ["EquivalenceResult", "check_equivalence"]


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence query between two expressions."""

    status: str  # "equivalent", "different", "unknown"
    counterexample: Optional[Model] = None
    strategy: str = "none"
    #: Packed random-simulation lanes the pre-filter evaluated before (or
    #: instead of) blasting; a ``different`` verdict with strategy
    #: ``"simulate"`` is a counterexample the pre-filter found for free.
    probe_lanes: int = 0

    @property
    def is_equivalent(self) -> bool:
        return self.status == "equivalent"

    @property
    def is_different(self) -> bool:
        return self.status == "different"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


def check_equivalence(lhs: BVExpr, rhs: BVExpr,
                      deadline: Optional[float] = None,
                      solver: Optional[SmtSolver] = None,
                      canonical: bool = False) -> EquivalenceResult:
    """Decide whether ``lhs`` and ``rhs`` agree on every input assignment.

    ``canonical=True`` makes any SAT-layer counterexample the canonical
    (name-ordered lex-smallest) one.  The probing layer doubles as a
    packed random-simulation *pre-filter*: 64 random input patterns are
    evaluated per word-op on the miter DAG before anything is blasted, and
    a shallow counterexample found there (strategy ``"simulate"``) skips
    the SAT layer entirely.
    """
    if lhs.width != rhs.width:
        raise ValueError(f"cannot compare widths {lhs.width} and {rhs.width}")

    # Structural fast path: interning makes identical DAGs the same object.
    if lhs is rhs:
        return EquivalenceResult("equivalent", strategy="structural")

    miter = bvne(lhs, rhs)
    if miter.is_const():
        if not miter.value:
            return EquivalenceResult("equivalent", strategy="normalise")
        # A constant-true miter differs on *every* assignment; report the
        # all-zeros witness so callers always get a usable counterexample.
        widths: Dict[str, int] = {}
        widths.update(var_widths(lhs))
        widths.update(var_widths(rhs))
        witness = Model({name: 0 for name in widths}, widths)
        return EquivalenceResult("different", witness, "normalise")

    result = check_sat(miter, deadline=deadline, solver=solver,
                       canonical=canonical)
    if result.is_unknown:
        return EquivalenceResult("unknown", strategy=result.strategy,
                                 probe_lanes=result.probe_lanes)
    if result.is_unsat:
        return EquivalenceResult("equivalent", strategy=result.strategy,
                                 probe_lanes=result.probe_lanes)

    # SAT: the model only covers variables in the miter's support; fill the
    # rest with zeros so callers can evaluate both sides directly.
    widths = {}
    widths.update(var_widths(lhs))
    widths.update(var_widths(rhs))
    values = {name: result.model.get(name, 0) for name in widths}
    return EquivalenceResult("different", Model(values, widths),
                             result.strategy, probe_lanes=result.probe_lanes)
