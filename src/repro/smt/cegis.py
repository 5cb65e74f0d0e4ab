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

The candidate step runs on an :class:`~repro.smt.solver.IncrementalSmtSession`
in one of two modes:

* ``incremental=True`` threads **one persistent session** through the whole
  run: the AIG/CNF namespace stays alive (hole variables keep stable
  literals), each new counterexample appends only its own obligations'
  clauses, and the CDCL solver carries its learned clauses and level-0
  facts from iteration to iteration.  When a warm solve burns a slice of
  the remaining :class:`~repro.engine.budget.Budget` without answering, the
  session is restarted (cold solver, same context) — a budget-aware restart
  that can only change time-to-answer, never the answer.
* ``incremental=False`` (the default) rebuilds a fresh session every
  iteration — re-substituting, re-blasting and cold-starting, exactly the
  historical from-scratch behavior.

The verification step likewise runs in one of two modes:

* ``incremental_verify=True`` builds one
  :class:`~repro.smt.equivalence.IncrementalVerifySession` per run: the
  sketch cone and spec miters are blasted **once** (holes left free), and
  each candidate is checked by binding its hole values as assumptions over
  the stable hole literals, so iteration N's verify query reuses iteration
  1's CNF, learned clauses and branching activity.  On an equivalence-check
  *failure* the session's ``last_core`` names the subset of hole bits
  actually responsible, and a *blocking constraint* over that prefix is
  added to the candidate side — pruning every candidate sharing the prefix
  rather than only the one just refuted.  The blocking constraints are
  logically entailed by the counterexample's own example constraints, so
  they never change which candidates are reachable — only how fast the
  solver discards dead ones.
* ``incremental_verify=False`` (the default) keeps each query on the
  racing solver portfolio — the fallback and cross-check path.

Both candidate modes assert the same constraints in the same order, and the
session *canonicalizes* every satisfying model after the (heuristic, VSIDS)
search finds one: a greedy assumption-solve pass refines it to the
lexicographically smallest input assignment, which is a property of the
constraint set rather than of the search.  Verification counterexamples are
canonical too (``canonical=True`` on
:func:`~repro.smt.equivalence.check_equivalence`): the portfolio and the
incremental verifier share the structural/normalise/probing fast layers —
including the probing RNG stream — and both canonicalize SAT-layer models,
so the four mode combinations walk identical candidate/counterexample
trajectories and return identical ``CegisResult`` statuses, hole values and
iteration counts by construction.  (Skipping either canonicalization pass
would silently break this equality.)

Both steps honour a deadline so the caller can reproduce the paper's
per-query synthesis timeouts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bv import bv, bvand, bveq, bvextract, bvne, bvor, bvvar
from repro.bv.ast import BVExpr
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator, first_sat_lane
from repro.bv.eval import evaluate, var_widths
from repro.bv.simplify import substitute
from repro.engine.budget import Budget
from repro.engine.stats import merge, new as new_stats
from repro.smt.equivalence import IncrementalVerifySession, check_equivalence
from repro.smt.solver import IncrementalSmtSession, SmtSolver

__all__ = ["CegisResult", "Obligation", "synthesize"]

#: Minimum budget slice (seconds) a warm incremental solve gets before a
#: budget-aware restart is considered.
_MIN_RESTART_SLICE = 0.25

#: Fraction of the remaining budget a warm solve may burn before the
#: session is restarted and the query retried on a cold solver.
_RESTART_FRACTION = 0.5


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
    time_seconds: float = 0.0
    candidate_strategy: str = "none"
    verify_strategy: str = "none"
    #: Whether the candidate step ran on one persistent solver session.
    incremental: bool = False
    #: Whether the verification step ran on one persistent miter session.
    incremental_verify: bool = False
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


def _blocking_constraint(prefix: Sequence[Tuple[str, int, int]],
                         hole_widths: Mapping[str, int]) -> BVExpr:
    """A 1-bit constraint excluding every hole assignment extending ``prefix``.

    ``prefix`` is the ``(hole, bit, value)`` core of a verification
    failure; the constraint demands at least one of those bits differ.  An
    empty prefix means *every* candidate fails on the counterexample, so
    the constraint is constant false (the candidate space is empty) —
    which the example constraint entailing it would also have proven.
    """
    disequalities = [
        bvne(bvextract(bit, bit, bvvar(name, hole_widths[name])), bv(value, 1))
        for name, bit, value in prefix
    ]
    if not disequalities:
        return bv(0, 1)
    if len(disequalities) == 1:
        return disequalities[0]
    return bvor(*disequalities)


def _budget_slice_deadline(budget: Optional[Budget],
                           deadline: Optional[float]) -> Optional[float]:
    """The warm solver's slice of the remaining budget (restart scheduling)."""
    if budget is None or deadline is None:
        return deadline
    remaining = budget.remaining()
    if remaining is None or remaining <= 0:
        return deadline
    return min(deadline,
               time.monotonic() + max(_MIN_RESTART_SLICE,
                                      _RESTART_FRACTION * remaining))


def _solve_candidate(candidate_constraints: Sequence[BVExpr],
                     sat_constraints: Optional[List[BVExpr]],
                     iteration: int, seed: int, random_probes: int,
                     deadline: Optional[float],
                     session: Optional[IncrementalSmtSession],
                     budget: Optional[Budget],
                     counters: Dict[str, float],
                     reduce_interval: Optional[int] = None,
                     max_lbd_keep: Optional[int] = None) -> Tuple[Optional[Mapping[str, int]], str, str]:
    """Decide the candidate query; returns ``(model, status, strategy)``.

    The layering mirrors :class:`~repro.smt.solver.SmtSolver` — normalise,
    random probing, then SAT — but the SAT layer runs on an incremental
    session instead of a portfolio race, and the probing RNG is re-seeded
    per iteration so incremental and from-scratch runs draw identical
    probes.  ``session=None`` is from-scratch mode: a throwaway session is
    built (re-blasting everything, asserting ``sat_constraints`` — the
    shared temporal order including blocking constraints) only if probing
    fails.

    Blocking constraints (core-driven pruning) join only the SAT layer:
    they are entailed by the example constraints already in
    ``candidate_constraints``, so evaluating probes without them gives the
    same verdicts while keeping the probe RNG stream — which draws one
    value per *formula variable* — independent of which hole bits the
    verification cores happened to mention.
    """
    formula = bvand(*candidate_constraints) \
        if len(candidate_constraints) > 1 else candidate_constraints[0]

    if formula.is_const():
        if formula.value:
            return {}, "sat", "normalise"
        return None, "unsat", "normalise"

    widths = var_widths(formula)
    # All-zeros first: it is both the cheapest probe and, when it
    # satisfies, exactly the lex-smallest model the SAT layer would have
    # canonicalized to — so taking it keeps the two modes aligned for free.
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

    incremental = session is not None
    if not incremental:
        # Throwaway sessions honour the same reduction knobs as persistent
        # ones, so aggressive settings exercise every mode combination.
        session = IncrementalSmtSession(reduce_interval=reduce_interval,
                                        max_lbd_keep=max_lbd_keep)
        session.assert_constraints(sat_constraints)

    check_deadline = deadline
    if incremental:
        # Budget-aware restart scheduling: give the warm solver a slice of
        # the remaining budget; if it burns the slice without answering,
        # fall back to a cold solver (same context, same canonical answer)
        # with whatever budget is left.
        check_deadline = _budget_slice_deadline(budget, deadline)

    smt_result = session.check(deadline=check_deadline)
    if (smt_result.is_unknown and incremental and check_deadline != deadline
            and time.monotonic() < deadline):
        # The session counts its own restarts; synthesize() folds them
        # into the run's counters at the end of the run.
        session.restart()
        smt_result = session.check(deadline=deadline)

    counters["candidate_conflicts"] += smt_result.sat_conflicts
    if not incremental:
        # The throwaway session dies here; fold its clause-DB and
        # propagation telemetry in now (the persistent sessions are folded
        # once, at the end of the run), so from-scratch candidate work is
        # counted too.
        _fold_session(counters, session)
    strategy = "sat:incremental" if incremental else "sat:fresh"
    if smt_result.is_unknown:
        return None, "unknown", "timeout"
    if smt_result.is_unsat:
        return None, "unsat", strategy
    return smt_result.model, "sat", strategy


def _fold_session(counters: Dict[str, float], session,
                  retained_as: Optional[str] = None) -> None:
    """Fold a warm session's lifetime counters into the run's counters.

    Only counters the run carries are taken; the session's own check and
    CNF-size tallies stay with it.  The learned clauses its live solver
    still holds are filed under ``retained_as`` — None for a throwaway
    session, whose learned clauses die with the iteration.
    """
    session_counters = session.stats()
    retained = session_counters.pop("clauses_retained")
    merge(counters, {key: value for key, value in session_counters.items()
                     if key in counters})
    if retained_as is not None:
        counters[retained_as] = retained


def _verify_sat_layer(verify_session: IncrementalVerifySession, index: int,
                      hole_values: Mapping[str, int],
                      budget: Optional[Budget]):
    """The incremental verifier as a pluggable SAT layer for one obligation.

    Wraps the assumption-gated session query in the same budget-slice
    restart policy as the candidate step: the warm solver gets a slice of
    the remaining budget; burning it without an answer triggers a cold
    restart (answer-preserving — counterexamples are canonical) with the
    full deadline.
    """
    def layer(formula, widths, deadline):
        check_deadline = _budget_slice_deadline(budget, deadline)
        smt_result = verify_session.check_obligation(index, hole_values,
                                                     deadline=check_deadline)
        if (smt_result.is_unknown and check_deadline != deadline
                and deadline is not None and time.monotonic() < deadline):
            verify_session.restart()
            smt_result = verify_session.check_obligation(index, hole_values,
                                                         deadline=deadline)
        return smt_result
    return layer


def synthesize(obligations: Sequence[Obligation] | Obligation,
               hole_widths: Mapping[str, int],
               hole_constraints: Sequence[BVExpr] = (),
               deadline: Optional[float] = None,
               max_iterations: int = 64,
               seed: int = 0,
               solver: Optional[SmtSolver] = None,
               initial_random_examples: int = 2,
               budget: Optional[Budget] = None,
               incremental: bool = False,
               incremental_verify: bool = False,
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
        seed: RNG seed for the initial examples and candidate probing.
        solver: optional shared :class:`SmtSolver` (the verification side).
        budget: the engine-level :class:`Budget`; wins over ``deadline``.
        incremental: thread one persistent solver session through the
            candidate step (clause reuse across iterations) instead of
            rebuilding per iteration.  Statuses and hole values are
            identical either way; only the time-to-answer changes.
        incremental_verify: check candidates on one persistent
            assumption-gated miter session (sketch/spec blasted once, hole
            values bound as assumptions, verification-failure cores turned
            into candidate-pruning blocking constraints) instead of
            re-blasting and racing the portfolio per query.  Statuses,
            hole values, counterexample sequences and iteration counts are
            identical either way by construction.
        random_probes: candidate-step random probe attempts per iteration.
        reduce_interval: learned clauses between clause-DB reductions in
            the CEGIS solver sessions (None defers to the
            :class:`~repro.sat.solver.CDCLSolver` default; 0 disables
            reduction).  Reduction bounds solver memory on long runs and
            never changes statuses, hole values or iteration counts — the
            differential-fuzz suite runs aggressive settings across all
            four mode combinations to hold it to that.
        max_lbd_keep: glue threshold — learned clauses with LBD at or
            below this survive every reduction (None defers to the solver
            default).
    """
    start = time.monotonic()
    if budget is not None:
        deadline = budget.start().deadline
    if isinstance(obligations, Obligation):
        obligations = [obligations]
    obligations = list(obligations)
    if not obligations:
        raise ValueError("at least one obligation is required")

    rng = random.Random(seed)
    input_widths = _collect_inputs(obligations, hole_widths)
    examples = _initial_examples(input_widths, rng, initial_random_examples)

    result = CegisResult(status="unknown", incremental=incremental,
                         incremental_verify=incremental_verify)
    counters = result.stats
    constraints_base = list(hole_constraints)

    session: Optional[IncrementalSmtSession] = None
    asserted: List[BVExpr] = []
    if incremental:
        session = IncrementalSmtSession(reduce_interval=reduce_interval,
                                        max_lbd_keep=max_lbd_keep)
        session.assert_constraints(constraints_base)
        asserted.extend(constraints_base)

    verify_session: Optional[IncrementalVerifySession] = None
    #: Which holes the candidate constraints mention so far.  Blocking
    #: constraints are only emitted over holes in this set: a core can
    #: name a hole bit that substitution folded out of every example so
    #: far, and blasting it early (something the portfolio-verified run
    #: never does) would skew the candidate AIG's input order — and with
    #: it the canonical model — between the two verifier modes.
    seen_holes: set = set()

    def _note_holes(constraints: Sequence[BVExpr]) -> None:
        for constraint in constraints:
            seen_holes.update(name for name in var_widths(constraint)
                              if name in hole_widths)

    #: The shared temporal order of candidate constraints: ``("example",
    #: input_assignment, prebuilt_constraints_or_None)`` and ``("blocking",
    #: expr, None)`` events as they were discovered.  Both candidate modes
    #: assert constraints in exactly this sequence (a blocking constraint
    #: right after the counterexample that produced it), so they build
    #: identical AIG namespaces and therefore identical canonical models.
    #: In incremental-verify mode each example's constraints are built once
    #: at discovery (``seen_holes`` needs them) and carried here so the
    #: incremental candidate step does not substitute them a second time.
    event_log: List[Tuple[str, object, Optional[List[BVExpr]]]] = []
    if incremental_verify:
        # Blast the sketch cone and spec miters exactly once per run; every
        # iteration's verify query is an assumption solve against this.
        verify_session = IncrementalVerifySession(obligations, hole_widths,
                                                  input_widths,
                                                  reduce_interval=reduce_interval,
                                                  max_lbd_keep=max_lbd_keep)
        _note_holes(constraints_base)
        for example in examples:
            constraints = _example_constraints(obligations, input_widths,
                                               example)
            _note_holes(constraints)
            event_log.append(("example", example, constraints))
    else:
        event_log.extend(("example", example, None) for example in examples)
    asserted_events = 0

    for iteration in range(1, max_iterations + 1):
        result.iterations = iteration
        result.examples_used = len(examples)
        if deadline is not None and time.monotonic() > deadline:
            result.status = "unknown"
            break

        # ---------------- candidate step ---------------- #
        candidate_start = time.monotonic()
        if incremental:
            # Only the events gained since the last round are substituted
            # and asserted; everything older is already in the context.
            for kind, payload, prebuilt in event_log[asserted_events:]:
                if kind == "example":
                    constraints = prebuilt if prebuilt is not None else \
                        _example_constraints(obligations, input_widths, payload)
                    session.assert_constraints(constraints)
                    asserted.extend(constraints)
                else:
                    session.assert_constraints([payload])
            asserted_events = len(event_log)
            candidate_constraints: Sequence[BVExpr] = asserted
            sat_constraints: Optional[List[BVExpr]] = None
        else:
            # From-scratch: re-substitute the sketch for *all* accumulated
            # examples, as the historical implementation did.  The probing
            # layers see only the example constraints; the throwaway SAT
            # session additionally gets the blocking constraints, replayed
            # in the shared temporal order.
            candidate_constraints = list(constraints_base)
            sat_constraints = list(constraints_base)
            for kind, payload, _prebuilt in event_log:
                if kind == "example":
                    constraints = _example_constraints(obligations,
                                                       input_widths, payload)
                    candidate_constraints.extend(constraints)
                    sat_constraints.extend(constraints)
                else:
                    sat_constraints.append(payload)

        model, status, strategy = _solve_candidate(
            candidate_constraints, sat_constraints, iteration, seed,
            random_probes, deadline, session, budget, counters,
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
        for index, obligation in enumerate(obligations):
            concrete_sketch = substitute(obligation.sketch, hole_bindings)
            sat_layer = None
            if verify_session is not None:
                sat_layer = _verify_sat_layer(verify_session, index,
                                              hole_values, budget)
            equivalence = check_equivalence(concrete_sketch, obligation.spec,
                                            deadline=deadline, solver=solver,
                                            canonical=True,
                                            sat_layer=sat_layer)
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
            if verify_session is None:
                event_log.append(("example", counterexample, None))
            else:
                # Core-driven pruning: ask the warm session *which* hole
                # bits doomed this candidate on the counterexample, and
                # block the whole prefix — entailed by the example
                # constraint just queued, so the trajectory is unchanged.
                # Emit only over holes the candidate constraints (now
                # including the new counterexample's) already introduce:
                # see the ``seen_holes`` comment above.
                new_constraints = _example_constraints(obligations,
                                                       input_widths,
                                                       counterexample)
                _note_holes(new_constraints)
                event_log.append(("example", counterexample, new_constraints))
                prefix = verify_session.failure_core(index, hole_values,
                                                     counterexample,
                                                     deadline=deadline)
                if prefix is not None and \
                        all(name in seen_holes for name, _, _ in prefix):
                    event_log.append(
                        ("blocking",
                         _blocking_constraint(prefix, hole_widths), None))
                    counters["cores_pruned"] += 1
            break
        counters["verify_time_seconds"] += time.monotonic() - verify_start

        if abort:
            break
        if verified:
            result.status = "sat"
            result.hole_values = hole_values
            break

    if session is not None:
        _fold_session(counters, session, "clauses_retained")
    if verify_session is not None:
        _fold_session(counters, verify_session, "verify_clauses_retained")
    result.time_seconds = time.monotonic() - start
    return result
