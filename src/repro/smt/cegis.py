"""Counterexample-guided inductive synthesis (CEGIS).

The paper's synthesis query (Section 3.3) is an exists-forall problem:

    ∃ holes . ∀ inputs . sketch(inputs, holes) = design(inputs)

Rosette discharges this through its symbolic virtual machine and an SMT
solver; this reproduction uses the classic CEGIS loop instead, which only
ever issues quantifier-free queries to the underlying solver:

* the *candidate* step asks for hole values consistent with a finite set of
  concrete input examples (a query over hole variables only);
* the *verification* step checks the candidate against the specification on
  all inputs (an equivalence query over input variables only) and, on
  failure, adds the counterexample to the example set.

Each candidate step builds a fresh
:class:`~repro.smt.solver.IncrementalSmtSession`: it re-substitutes the
sketch for every accumulated example, blasts the whole conjunction in one
batch and cold-starts one CDCL solver.  The session *canonicalizes* every
satisfying model after the (heuristic, VSIDS) search finds one: a greedy
assumption-solve pass refines it to the lexicographically smallest input
assignment, which is a property of the constraint set rather than of the
search.  Verification counterexamples are canonical too (``canonical=True``
on :func:`~repro.smt.equivalence.check_equivalence`), so whichever
portfolio member wins a verification race, the counterexample — and with
it the whole candidate/counterexample trajectory, the hole values and the
iteration count — is the same, and a cached answer matches a fresh one.

Both steps honour a deadline so the caller can reproduce the paper's
per-query synthesis timeouts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bv import bv, bvand, bveq
from repro.bv.ast import BVExpr
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator, first_sat_lane
from repro.bv.eval import evaluate, var_widths
from repro.bv.simplify import substitute
from repro.engine.budget import Budget
from repro.engine.stats import merge, new as new_stats
from repro.smt.equivalence import check_equivalence
from repro.smt.solver import _DEFAULT_SOLVER, IncrementalSmtSession, SmtSolver

__all__ = ["CegisResult", "Obligation", "synthesize"]


@dataclass
class Obligation:
    """One equality the synthesized program must satisfy for all inputs."""

    spec: BVExpr
    sketch: BVExpr

    def __post_init__(self) -> None:
        if self.spec.width != self.sketch.width:
            raise ValueError(
                f"obligation width mismatch: spec {self.spec.width} vs sketch {self.sketch.width}"
            )


@dataclass
class CegisResult:
    """Outcome of a synthesis attempt."""

    status: str  # "sat", "unsat", "unknown"
    hole_values: Optional[Dict[str, int]] = None
    iterations: int = 0
    examples_used: int = 0
    candidate_strategy: str = "none"
    verify_strategy: str = "none"
    #: Why a run degraded to ``unknown`` (empty for clean outcomes).
    diagnostic: str = ""
    #: What the run did, as one counters map (the names are documented at
    #: :data:`repro.engine.stats.COUNTERS`).
    stats: Dict[str, float] = field(default_factory=new_stats)

    @property
    def succeeded(self) -> bool:
        return self.status == "sat"


def _collect_inputs(obligations: Sequence[Obligation],
                    hole_widths: Mapping[str, int]) -> Dict[str, int]:
    """Free variables of the obligations that are not holes (i.e. inputs)."""
    inputs: Dict[str, int] = {}
    for obligation in obligations:
        for expr in (obligation.spec, obligation.sketch):
            for name, width in var_widths(expr).items():
                if name in hole_widths:
                    continue
                existing = inputs.get(name)
                if existing is not None and existing != width:
                    raise ValueError(f"input {name!r} used at widths {existing} and {width}")
                inputs[name] = width
    return inputs


def _initial_examples(input_widths: Mapping[str, int], rng: random.Random,
                      count: int) -> List[Dict[str, int]]:
    examples = [
        {name: 0 for name in input_widths},
        {name: (1 << width) - 1 for name, width in input_widths.items()},
        {name: 1 for name in input_widths},
    ]
    for _ in range(count):
        examples.append({name: rng.getrandbits(width) for name, width in input_widths.items()})
    # Drop duplicates while preserving order.
    unique: List[Dict[str, int]] = []
    for example in examples:
        if example not in unique:
            unique.append(example)
    return unique


def _example_constraints(obligations: Sequence[Obligation],
                         input_widths: Mapping[str, int],
                         example: Mapping[str, int]) -> List[BVExpr]:
    """The candidate obligations for one concrete input example."""
    bindings = {name: bv(value, input_widths[name]) for name, value in example.items()}
    constraints: List[BVExpr] = []
    for obligation in obligations:
        spec_value = substitute(obligation.spec, bindings)
        sketch_value = substitute(obligation.sketch, bindings)
        constraints.append(bveq(sketch_value, spec_value))
    return constraints


def _solve_candidate(constraints: Sequence[BVExpr], iteration: int,
                     seed: int, random_probes: int,
                     deadline: Optional[float],
                     counters: Dict[str, float],
                     reduce_interval: Optional[int] = None,
                     max_lbd_keep: Optional[int] = None) -> Tuple[Optional[Mapping[str, int]], str, str]:
    """Decide the candidate query; returns ``(model, status, strategy)``.

    The layering mirrors :class:`~repro.smt.solver.SmtSolver` — normalise,
    random probing, then SAT — but the SAT layer runs on a fresh
    :class:`~repro.smt.solver.IncrementalSmtSession` instead of a
    portfolio race (its lex-min model is the canonical candidate), and the
    probing RNG is re-seeded per iteration.
    """
    formula = bvand(*constraints) if len(constraints) > 1 else constraints[0]

    if formula.is_const():
        if formula.value:
            return {}, "sat", "normalise"
        return None, "unsat", "normalise"

    widths = var_widths(formula)
    # All-zeros first: it is both the cheapest probe and, when it
    # satisfies, exactly the lex-smallest model the SAT layer would have
    # canonicalized to.
    zeros = {name: 0 for name in widths}
    if evaluate(formula, zeros):
        return zeros, "sat", "simulate"
    # Random probing, SAT-sweep style: the accumulated counterexample
    # obligations are one conjunction, and each packed batch evaluates 64
    # hole assignments against all of them per word-op — a formula-free
    # variable draws nothing, so probing is pointless once zeros failed.
    # The per-iteration RNG is drawn whole (it is discarded afterwards, so
    # unlike SmtSolver.check no stream-position replay is needed) and
    # lanes are scanned in order: the first satisfying lane is the first
    # satisfying probe the historical scalar loop would have returned.
    if random_probes and widths:
        probe_rng = random.Random((seed & 0xFFFFFFFF) * 1_000_003 + iteration)
        items = list(widths.items())
        evaluator = PackedEvaluator(formula)
        drawn = 0
        while drawn < random_probes:
            if deadline is not None and time.monotonic() > deadline:
                return None, "unknown", "timeout"
            chunk = min(PROBE_LANES, random_probes - drawn)
            batch = [{name: probe_rng.getrandbits(width)
                      for name, width in items} for _ in range(chunk)]
            drawn += chunk
            counters["probe_lanes_evaluated"] += chunk
            hits = evaluator.sat_lanes(batch)
            if hits:
                counters["probe_hits"] += 1
                return batch[first_sat_lane(hits)], "sat", "simulate"

    session = IncrementalSmtSession(reduce_interval=reduce_interval,
                                    max_lbd_keep=max_lbd_keep)
    session.assert_constraints(constraints)
    smt_result = session.check(deadline=deadline)
    counters["candidate_conflicts"] += smt_result.sat_conflicts
    # The session dies here; fold its solver's clause-DB and propagation
    # telemetry into the run's counters (its conflicts are already in
    # candidate_conflicts).
    merge(counters, {key: value for key, value in session.stats().items()
                     if key in counters})
    if smt_result.is_unknown:
        return None, "unknown", "timeout"
    if smt_result.is_unsat:
        return None, "unsat", "sat:fresh"
    return smt_result.model, "sat", "sat:fresh"


def synthesize(obligations: Sequence[Obligation] | Obligation,
               hole_widths: Mapping[str, int],
               hole_constraints: Sequence[BVExpr] = (),
               deadline: Optional[float] = None,
               max_iterations: int = 64,
               seed: int = 0,
               solver: Optional[SmtSolver] = None,
               initial_random_examples: int = 2,
               budget: Optional[Budget] = None,
               random_probes: int = 32,
               reduce_interval: Optional[int] = None,
               max_lbd_keep: Optional[int] = None) -> CegisResult:
    """Solve ``∃ holes . ∀ inputs . ⋀ spec_i = sketch_i`` by CEGIS.

    Args:
        obligations: equalities to enforce (one per checked timestep).
        hole_widths: the hole variables (name -> width) to solve for.
        hole_constraints: extra 1-bit constraints over hole variables (the
            architecture description's "additional constraints").
        deadline: absolute ``time.monotonic`` cutoff, or None (a plain
            convenience form of ``budget``).
        max_iterations: CEGIS round limit (a safety net; the hole space is
            finite so the loop terminates regardless).
        seed: RNG seed for the initial examples, candidate probing and
            verification's random pre-filter.
        solver: optional shared :class:`SmtSolver` (the verification side);
            the run uses its portfolio and probe count, not its probe
            stream.
        budget: the engine-level :class:`Budget`; wins over ``deadline``.
        random_probes: candidate-step random probe attempts per iteration.
        reduce_interval: learned clauses between clause-DB reductions in
            the candidate solver sessions (None defers to the
            :class:`~repro.sat.solver.CDCLSolver` default; 0 disables
            reduction).  Reduction bounds solver memory and never changes
            statuses, hole values or iteration counts — the
            differential-fuzz suite runs aggressive settings to hold it to
            that.
        max_lbd_keep: glue threshold — learned clauses with LBD at or
            below this survive every reduction (None defers to the solver
            default).
    """
    if budget is not None:
        deadline = budget.start().deadline
    if isinstance(obligations, Obligation):
        obligations = [obligations]
    obligations = list(obligations)
    if not obligations:
        raise ValueError("at least one obligation is required")

    # One probe stream per run: drawn from the shared solver's stream, the
    # verification probes (and with them the counterexamples, iterations
    # and counters) would depend on every query it answered before.
    shared = solver if solver is not None else _DEFAULT_SOLVER
    solver = SmtSolver(shared.random_probes, seed, shared.portfolio)
    rng = random.Random(seed)
    input_widths = _collect_inputs(obligations, hole_widths)
    examples = _initial_examples(input_widths, rng, initial_random_examples)

    result = CegisResult(status="unknown")
    counters = result.stats

    for iteration in range(1, max_iterations + 1):
        result.iterations = iteration
        result.examples_used = len(examples)
        if deadline is not None and time.monotonic() > deadline:
            result.status = "unknown"
            break

        # ---------------- candidate step ---------------- #
        # Re-substitute the sketch for *all* accumulated examples.
        candidate_start = time.monotonic()
        constraints = list(hole_constraints)
        for example in examples:
            constraints.extend(_example_constraints(obligations, input_widths,
                                                    example))
        model, status, strategy = _solve_candidate(
            constraints, iteration, seed, random_probes, deadline, counters,
            reduce_interval, max_lbd_keep)
        result.candidate_strategy = strategy
        counters["candidate_time_seconds"] += \
            time.monotonic() - candidate_start
        if status == "unsat":
            # No hole assignment satisfies even the finite example set, so no
            # assignment satisfies the full forall: the sketch cannot
            # implement the design.
            result.status = "unsat"
            break
        if status == "unknown":
            result.status = "unknown"
            break

        hole_values = {name: model.get(name, 0) for name in hole_widths}
        hole_bindings = {name: bv(value, hole_widths[name])
                         for name, value in hole_values.items()}

        # ---------------- verification step ---------------- #
        verified = True
        abort = False
        verify_start = time.monotonic()
        for obligation in obligations:
            concrete_sketch = substitute(obligation.sketch, hole_bindings)
            equivalence = check_equivalence(concrete_sketch, obligation.spec,
                                            deadline=deadline, solver=solver,
                                            canonical=True)
            result.verify_strategy = equivalence.strategy
            counters["probe_lanes_evaluated"] += equivalence.probe_lanes
            if equivalence.is_different and equivalence.strategy == "simulate":
                # The packed random-simulation pre-filter found the
                # counterexample before anything was blasted.
                counters["probe_hits"] += 1
                counters["prefilter_cex_found"] += 1
            if equivalence.is_equivalent:
                continue
            verified = False
            if equivalence.is_unknown:
                result.status = "unknown"
                abort = True
                break
            counterexample = {name: equivalence.counterexample.get(name, 0)
                              for name in input_widths}
            if counterexample in examples:
                # The candidate solver produced a spurious model (a solver
                # bug).  Degrade to "unknown" with a diagnostic instead of
                # crashing: one poisoned query must not take down a whole
                # sweep worker.
                result.status = "unknown"
                result.diagnostic = (
                    f"no progress at iteration {iteration}: verification "
                    f"repeated counterexample {counterexample!r} for a "
                    "candidate the solver claimed consistent")
                abort = True
                break
            examples.append(counterexample)
            break
        counters["verify_time_seconds"] += time.monotonic() - verify_start

        if abort:
            break
        if verified:
            result.status = "sat"
            result.hole_values = hole_values
            break

    return result
