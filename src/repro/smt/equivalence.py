"""Equivalence checking of word-level expressions (the synthesis verifier).

Given two expressions over the same free variables, builds the miter
``lhs != rhs`` and decides it with the layered strategy of
:mod:`repro.smt.solver`.  The fast path matters: after the smart-constructor
rewriting, a correctly configured FPGA primitive usually collapses to the
very same DAG as the specification, so most verification calls never reach
the SAT solver.

Two SAT-layer implementations back :func:`check_equivalence`:

* the historical *portfolio* path bit-blasts the (hole-substituted) miter
  fresh each call and races the solver portfolio;
* :class:`IncrementalVerifySession` blasts the **unsubstituted** sketch/spec
  miters once per design into a persistent
  :class:`~repro.bv.bitblast.IncrementalContext`, and checks each CEGIS
  candidate by binding its hole values as *assumptions* over the stable
  hole literals — iteration N's verify query reuses iteration 1's CNF,
  learned clauses and branching activity instead of rebuilding them.

Counterexamples from the SAT layer are *canonicalized* (the name-ordered
lexicographically smallest input assignment, see
:func:`repro.smt.solver.lex_min_model`) when ``canonical=True``, so the two
SAT layers return identical counterexamples by construction and CEGIS walks
identical trajectories whichever verifier it uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bv import bvne
from repro.bv.ast import BVExpr
from repro.bv.bitblast import IncrementalContext
from repro.bv.eval import var_widths
from repro.smt.model import Model
from repro.smt.solver import (
    SmtResult,
    SmtSolver,
    WarmSolverHost,
    check_sat,
    lex_min_model,
)

__all__ = ["EquivalenceResult", "IncrementalVerifySession", "check_equivalence"]


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence query between two expressions."""

    status: str  # "equivalent", "different", "unknown"
    counterexample: Optional[Model] = None
    strategy: str = "none"
    time_seconds: float = 0.0
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


class IncrementalVerifySession(WarmSolverHost):
    """A persistent assumption-gated miter session (the incremental verifier).

    Construction blasts ``sketch != spec`` for every obligation — with the
    hole variables left *free* — into one shared AIG/CNF namespace, and
    clause-encodes each miter cone without asserting its output (see
    :meth:`~repro.bv.bitblast.IncrementalContext.gate`).  Nothing is ever
    added to the context afterwards: every candidate check is a pure
    assumption query

    ``solve(hole-bit bindings + [miter_i])``

    on one long-lived :class:`CDCLSolver` whose learned clauses, variable
    activities and saved phases accumulate across the whole CEGIS run.
    UNSAT under those assumptions means no input distinguishes the filled
    sketch from the spec — the candidate is correct on obligation ``i``;
    SAT yields a counterexample, canonicalized to the name-ordered
    lex-smallest input assignment so it matches what the (canonical)
    portfolio path would have produced.

    :meth:`failure_core` turns a counterexample into a *hole-assignment
    prefix*: assuming the candidate's holes, the counterexample's inputs
    and the miter output **negated** is unsatisfiable, and the solver's
    ``last_core`` then names the subset of hole bits actually responsible —
    every candidate extending that prefix fails on the same counterexample,
    so one blocking constraint over the prefix prunes them all.

    ``reduce_interval`` / ``max_lbd_keep`` configure the warm solver's
    LBD-based clause-database reduction (None defers to the
    :class:`~repro.sat.solver.CDCLSolver` defaults), which keeps the
    learned database — and with it watch-list length and propagation cost —
    bounded over long runs; assumption gating, counterexample canonicity
    and :meth:`failure_core` are unaffected by when reductions happen.
    """

    def __init__(self, obligations: Sequence, hole_widths: Mapping[str, int],
                 input_widths: Optional[Mapping[str, int]] = None,
                 reduce_interval: Optional[int] = None,
                 max_lbd_keep: Optional[int] = None) -> None:
        self.context = IncrementalContext()
        self.hole_widths: Dict[str, int] = dict(hole_widths)
        self._miter_lits: List[int] = []
        widths: Dict[str, int] = {}
        for obligation in obligations:
            miter = bvne(obligation.sketch, obligation.spec)
            if input_widths is None:
                for name, width in var_widths(miter).items():
                    if name not in self.hole_widths:
                        widths[name] = width
            self._miter_lits.append(self.context.gate(miter))
        self._input_widths: Dict[str, int] = \
            dict(input_widths) if input_widths is not None else widths

        # The namespace is complete now — no later call adds nodes — so the
        # bit-name maps can be partitioned and ordered once, and every
        # query just walks the precomputed plans.
        bit_vars = self.context.input_vars()
        self._hole_bit_index: Dict[int, Tuple[str, int]] = {}
        self._input_bit_vars: Dict[str, int] = {}
        for bit_name, var in bit_vars.items():
            name, _, index_part = bit_name.rpartition("[")
            bit = int(index_part[:-1])
            if name in self.hole_widths:
                self._hole_bit_index[var] = (name, bit)
            else:
                self._input_bit_vars[bit_name] = var
        #: ``(name, bit, var)`` for every hole bit present in some miter
        #: cone, in the stable assumption order (name ascending, LSB
        #: first).  Hole bits absent from the context were simplified out
        #: of every cone — their values cannot matter.
        self._hole_bits: List[Tuple[str, int, int]] = [
            (name, bit, bit_vars[f"{name}[{bit}]"])
            for name in sorted(self.hole_widths)
            for bit in range(self.hole_widths[name])
            if f"{name}[{bit}]" in bit_vars]
        #: Likewise for the design-input bits (the core-probe order).
        self._input_bits: List[Tuple[str, int, int]] = [
            (name, bit, bit_vars[f"{name}[{bit}]"])
            for name in sorted(self._input_widths)
            for bit in range(self._input_widths[name])
            if f"{name}[{bit}]" in bit_vars]

        self._init_solver_state(reduce_interval, max_lbd_keep)
        self._counters["cores"] = 0

    # ------------------------------------------------------------------ #
    def _hole_assumptions(self, hole_values: Mapping[str, int]) -> List[int]:
        """The candidate's hole bits as assumption literals (stable order)."""
        return [var if (hole_values.get(name, 0) >> bit) & 1 else -var
                for name, bit, var in self._hole_bits]

    def check_obligation(self, index: int, hole_values: Mapping[str, int],
                         deadline: Optional[float] = None) -> SmtResult:
        """Does any input distinguish the filled sketch from the spec?

        ``unsat`` means the candidate is correct on obligation ``index``;
        ``sat`` carries the canonical counterexample.
        """
        start = time.monotonic()
        self._counters["checks"] += 1
        if deadline is not None and time.monotonic() > deadline:
            return SmtResult("unknown", None, "timeout",
                             time.monotonic() - start)
        solver = self._sync_solver()
        solver.deadline = deadline
        base = self._hole_assumptions(hole_values)
        base.append(self._miter_lits[index])
        outcome = solver.solve(base)
        if outcome.is_unsat:
            return SmtResult("unsat", None, "sat:incremental-verify",
                             time.monotonic() - start, outcome.conflicts)
        if outcome.is_unknown:
            return SmtResult("unknown", None, "timeout",
                             time.monotonic() - start, outcome.conflicts)
        model = lex_min_model(solver, self._input_bit_vars, outcome.model,
                              base=base, deadline=deadline)
        if model is None:
            return SmtResult("unknown", None, "timeout",
                             time.monotonic() - start, outcome.conflicts)
        values: Dict[str, int] = {name: 0 for name in self._input_widths}
        for bit_name, var in self._input_bit_vars.items():
            if not model.get(var, False):
                continue
            name, _, index_part = bit_name.rpartition("[")
            if name in values:
                values[name] |= 1 << int(index_part[:-1])
        return SmtResult("sat", Model(values, dict(self._input_widths)),
                         "sat:incremental-verify", time.monotonic() - start,
                         outcome.conflicts)

    def failure_core(self, index: int, hole_values: Mapping[str, int],
                     counterexample: Mapping[str, int],
                     deadline: Optional[float] = None
                     ) -> Optional[List[Tuple[str, int, int]]]:
        """The hole-assignment prefix responsible for a counterexample.

        Assumes the candidate's hole bits, the counterexample's input bits
        and the *negated* miter output; the query is unsatisfiable (the
        counterexample genuinely distinguishes sketch from spec), and the
        hole literals in ``last_core`` form a prefix such that **every**
        candidate extending it disagrees with the spec on this very
        counterexample.  Returns ``(hole, bit, value)`` triples, or None
        if the probe could not complete (deadline) or — defensively — did
        not come back unsat.
        """
        solver = self._sync_solver()
        solver.deadline = deadline
        assumptions = self._hole_assumptions(hole_values)
        assumptions.extend(
            var if (counterexample.get(name, 0) >> bit) & 1 else -var
            for name, bit, var in self._input_bits)
        assumptions.append(-self._miter_lits[index])
        outcome = solver.solve(assumptions)
        if not outcome.is_unsat or solver.last_core is None:
            return None
        prefix: List[Tuple[str, int, int]] = []
        for lit in solver.last_core:
            info = self._hole_bit_index.get(abs(lit))
            if info is None:
                continue
            name, bit = info
            prefix.append((name, bit, 1 if lit > 0 else 0))
        self._counters["cores"] += 1
        return sorted(prefix)


def check_equivalence(lhs: BVExpr, rhs: BVExpr,
                      deadline: Optional[float] = None,
                      solver: Optional[SmtSolver] = None,
                      canonical: bool = False,
                      sat_layer=None) -> EquivalenceResult:
    """Decide whether ``lhs`` and ``rhs`` agree on every input assignment.

    ``canonical=True`` makes any SAT-layer counterexample the canonical
    (name-ordered lex-smallest) one; ``sat_layer`` swaps the blast-and-race
    layer for a caller-supplied decision procedure (the incremental
    verifier) while keeping the structural/normalise/probing fast paths —
    and their RNG consumption — identical across both verifiers.  The
    probing layer doubles as a packed random-simulation *pre-filter*: 64
    random input patterns are evaluated per word-op on the miter DAG
    before anything is blasted, and a shallow counterexample found there
    (strategy ``"simulate"``) skips the SAT layer entirely — on both
    verifier paths, so the shared RNG stream and the counterexample
    sequence stay mode-independent.
    """
    start = time.monotonic()
    if lhs.width != rhs.width:
        raise ValueError(f"cannot compare widths {lhs.width} and {rhs.width}")

    # Structural fast path: interning makes identical DAGs the same object.
    if lhs is rhs:
        return EquivalenceResult("equivalent", strategy="structural",
                                 time_seconds=time.monotonic() - start)

    miter = bvne(lhs, rhs)
    if miter.is_const():
        if not miter.value:
            return EquivalenceResult("equivalent", strategy="normalise",
                                     time_seconds=time.monotonic() - start)
        # A constant-true miter differs on *every* assignment; report the
        # all-zeros witness so callers always get a usable counterexample.
        widths: Dict[str, int] = {}
        widths.update(var_widths(lhs))
        widths.update(var_widths(rhs))
        witness = Model({name: 0 for name in widths}, widths)
        return EquivalenceResult("different", witness, "normalise",
                                 time_seconds=time.monotonic() - start)

    result = check_sat(miter, deadline=deadline, solver=solver,
                       canonical=canonical, sat_layer=sat_layer)
    elapsed = time.monotonic() - start
    if result.is_unknown:
        return EquivalenceResult("unknown", strategy=result.strategy,
                                 time_seconds=elapsed,
                                 probe_lanes=result.probe_lanes)
    if result.is_unsat:
        return EquivalenceResult("equivalent", strategy=result.strategy,
                                 time_seconds=elapsed,
                                 probe_lanes=result.probe_lanes)

    # SAT: the model only covers variables in the miter's support; fill the
    # rest with zeros so callers can evaluate both sides directly.
    widths = {}
    widths.update(var_widths(lhs))
    widths.update(var_widths(rhs))
    values = {name: result.model.get(name, 0) for name in widths}
    return EquivalenceResult("different", Model(values, widths),
                             result.strategy, elapsed,
                             probe_lanes=result.probe_lanes)
