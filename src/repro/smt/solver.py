"""Satisfiability of word-level bitvector constraints.

``check_sat`` takes one or more 1-bit expressions (treated as a
conjunction), simplifies them, and decides satisfiability with a layered
strategy that mirrors the paper's solver portfolio:

1. *normalise* -- the smart-constructor rewriting may already reduce the
   conjunction to a constant;
2. *simulate*  -- a short burst of random concrete assignments, evaluated
   64 at a time by the bit-parallel packed simulator
   (:mod:`repro.bv.bitsim`), looks for an easy satisfying assignment (the
   cheap way to answer SAT queries);
3. *bit-blast + SAT portfolio* -- the complete decision procedure.

Every entry point accepts a ``deadline`` (an absolute ``time.monotonic``
value); queries that exceed it report ``unknown``, which the synthesis
driver surfaces as the paper's "timeout" outcome.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bv import bvand, bvvar
from repro.bv.ast import BVExpr
from repro.bv.bitblast import BitBlaster, IncrementalContext
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator, first_sat_lane
from repro.bv.cnf import aig_to_cnf, lit_to_cnf
from repro.bv.eval import evaluate, var_widths
from repro.engine.stats import merge
from repro.sat.portfolio import SatPortfolio
from repro.sat.solver import CDCLSolver, SatResult
from repro.smt.model import Model

__all__ = ["SmtResult", "check_sat", "SmtSolver", "IncrementalSmtSession",
           "lex_min_model"]


def _canonical_bit_order(bit_vars: Dict[str, int]) -> List[int]:
    """CNF variables of named input bits in canonical minimization order.

    Bits are ordered by variable name ascending and, within one variable,
    most-significant bit first — so greedily zeroing bits in this order
    converges to the assignment minimizing the tuple of *integer values*
    of the variables taken in name order.  The order is a property of the
    bit names alone, never of AIG/CNF construction order, which is what
    lets two differently-built encodings of the same formula agree on one
    canonical model.
    """
    def key(item):
        bit_name = item[0]
        name, _, index_part = bit_name.rpartition("[")
        return (name, -int(index_part[:-1]))
    return [var for _, var in sorted(bit_vars.items(), key=key)]


def lex_min_model(solver: CDCLSolver, bits, model: Dict[int, bool],
                  base: Sequence[int] = (),
                  deadline: Optional[float] = None,
                  on_solve=None) -> Optional[Dict[int, bool]]:
    """Refine ``model`` to the unique greedy-minimal input-bit assignment.

    ``bits`` is either a bit-name → CNF-variable mapping — minimized in
    the canonical order of :func:`_canonical_bit_order` — or an explicit
    variable sequence, minimized in the given order.  ``base`` is a fixed
    assumption prefix held throughout (the incremental verifier passes the
    candidate's hole bindings and the gated miter output); the greedy pass
    then walks the bits in order, keeping each bit it can prove zeroable
    under the already-fixed prefix.  The result is the unique satisfying
    assignment minimizing the ordered bit tuple — a property of the
    constraint set and the order, not of the search — so a warm
    incremental solver and a cold portfolio member canonicalize to the
    very same model.  ``on_solve`` observes every trial result (the
    candidate session uses it for conflict accounting).  Returns ``None``
    if the deadline expires mid-refinement.
    """
    solver.deadline = deadline
    ordered = _canonical_bit_order(bits) if isinstance(bits, dict) else list(bits)
    prefix: List[int] = list(base)
    for var in ordered:
        if not model.get(var, False):
            # Already 0: the current model witnesses this prefix.
            prefix.append(-var)
            continue
        trial = solver.solve(prefix + [-var])
        if on_solve is not None:
            on_solve(trial)
        if trial.is_sat:
            model = trial.model
            prefix.append(-var)
        elif trial.is_unsat:
            prefix.append(var)
        else:
            return None
    return model


@dataclass
class SmtResult:
    """Outcome of a word-level satisfiability query."""

    status: str  # "sat", "unsat", "unknown"
    model: Optional[Model] = None
    strategy: str = "none"  # which layer decided the query
    time_seconds: float = 0.0
    sat_conflicts: int = 0
    #: Packed random-probe assignments evaluated while deciding this query
    #: (layer 2's throughput telemetry; 0 when probing was skipped).
    probe_lanes: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


class SmtSolver:
    """A configurable word-level solver instance."""

    def __init__(self, random_probes: int = 32, seed: int = 0,
                 portfolio: Optional[SatPortfolio] = None) -> None:
        self.random_probes = random_probes
        self.rng = random.Random(seed)
        self.portfolio = portfolio if portfolio is not None else SatPortfolio()

    # ------------------------------------------------------------------ #
    def check(self, constraints: Sequence[BVExpr],
              deadline: Optional[float] = None,
              canonical: bool = False,
              sat_layer=None) -> SmtResult:
        """Decide satisfiability with the layered strategy.

        ``canonical=True`` refines any SAT model found by the portfolio to
        the canonical (name-ordered lexicographically smallest) input
        assignment, making layer-3 models search-independent.
        ``sat_layer`` replaces the blast-and-race layer with a caller
        supplied ``(formula, widths, deadline) -> SmtResult`` — the seam
        the incremental verifier plugs its persistent session into, while
        layers 1–2 (normalisation, random probing) stay byte-for-byte
        shared between the portfolio and incremental paths (including the
        probing RNG stream, which both modes must consume identically).
        """
        start = time.monotonic()
        for constraint in constraints:
            if constraint.width != 1:
                raise ValueError("constraints must be 1-bit expressions")

        formula = bvand(*constraints) if len(constraints) > 1 else constraints[0]

        # Layer 1: normalisation.
        if formula.is_const():
            status = "sat" if formula.value else "unsat"
            model = Model({}, {}) if status == "sat" else None
            return SmtResult(status, model, "normalise", time.monotonic() - start)

        widths = var_widths(formula)

        # Layer 2: random probing for an easy SAT answer — packed 64 lanes
        # at a time (see repro.bv.bitsim).  The batch is drawn from the
        # same persistent RNG stream, in the same per-variable order, as
        # the historical one-probe-at-a-time loop; lanes are scanned in
        # order so the first satisfying lane is exactly the first
        # satisfying scalar probe.  On a hit the stream is rewound and
        # re-advanced to just past the winning probe — the position the
        # scalar loop (which stopped there) would have left it at — so
        # every downstream draw, and with it every CEGIS trajectory, stays
        # byte-for-byte identical across solver configurations and both
        # verifier modes.
        lanes_spent = 0
        if self.random_probes and widths:
            items = list(widths.items())
            evaluator = PackedEvaluator(formula)
            state = self.rng.getstate()
            while lanes_spent < self.random_probes:
                if deadline is not None and time.monotonic() > deadline:
                    return SmtResult("unknown", None, "timeout",
                                     time.monotonic() - start,
                                     probe_lanes=lanes_spent)
                chunk = min(PROBE_LANES, self.random_probes - lanes_spent)
                batch = [{name: self.rng.getrandbits(width)
                          for name, width in items} for _ in range(chunk)]
                lanes_spent += chunk
                hits = evaluator.sat_lanes(batch)
                if hits:
                    lane = first_sat_lane(hits)
                    self.rng.setstate(state)
                    for _ in range(lanes_spent - chunk + lane + 1):
                        for _name, width in items:
                            self.rng.getrandbits(width)
                    return SmtResult("sat", Model(batch[lane], widths),
                                     "simulate", time.monotonic() - start,
                                     probe_lanes=lanes_spent)
        elif self.random_probes and evaluate(formula, {}):
            # No free variables: every scalar probe evaluated the same
            # closed formula (consuming no randomness); one evaluation
            # decides them all.
            return SmtResult("sat", Model({}, widths), "simulate",
                             time.monotonic() - start)

        # Layer 3: hand to the pluggable SAT layer (an incremental session)
        # or bit-blast and race the portfolio.
        if sat_layer is not None:
            layered = sat_layer(formula, widths, deadline)
            layered.probe_lanes += lanes_spent
            return layered
        blaster = BitBlaster()
        bits = blaster.blast(formula)
        cnf, input_vars = aig_to_cnf(blaster.aig, bits)
        sat_result, winner = self.portfolio.solve(cnf, deadline=deadline)
        if sat_result.is_unknown:
            return SmtResult("unknown", None, "timeout",
                             time.monotonic() - start, sat_result.conflicts,
                             probe_lanes=lanes_spent)
        if sat_result.is_unsat:
            return SmtResult("unsat", None, f"sat:{winner}",
                             time.monotonic() - start, sat_result.conflicts,
                             probe_lanes=lanes_spent)

        model = sat_result.model
        if canonical:
            refiner = CDCLSolver(cnf, deadline=deadline)
            model = lex_min_model(refiner, input_vars, model, deadline=deadline)
            if model is None:
                # Deadline expired mid-refinement: report unknown rather
                # than the unrefined (search-dependent) model — the same
                # conservative choice IncrementalSmtSession.check makes.
                # Returning the raw model here would make near-deadline
                # counterexamples diverge between solver backends and
                # verifier modes, silently breaking the canonical-model
                # equality everything downstream relies on; a run this
                # close to its budget ends in "timeout" either way.
                return SmtResult("unknown", None, "timeout",
                                 time.monotonic() - start, sat_result.conflicts,
                                 probe_lanes=lanes_spent)

        values: Dict[str, int] = {name: 0 for name in widths}
        for bit_name, cnf_var in input_vars.items():
            if not model.get(cnf_var, False):
                continue
            var_name, _, index_part = bit_name.rpartition("[")
            bit_index = int(index_part[:-1])
            if var_name in values:
                values[var_name] |= 1 << bit_index
        return SmtResult("sat", Model(values, widths), f"sat:{winner}",
                         time.monotonic() - start, sat_result.conflicts,
                         probe_lanes=lanes_spent)


def _solver_counters(solver: CDCLSolver) -> Dict[str, float]:
    """One solver's hot-loop counters, named as on the stats spine."""
    return {"clauses_deleted": solver.clauses_deleted,
            "db_size_peak": solver.db_size_peak,
            "propagations": solver.propagations_total,
            "watcher_visits": solver.watcher_visits,
            "solver_solve_seconds": solver.solve_seconds}


class WarmSolverHost:
    """Shared warm-solver plumbing for incremental sessions.

    Owns one lazily-built :class:`CDCLSolver` kept in sync with a growing
    :class:`~repro.bv.bitblast.IncrementalContext` CNF (``self.context``),
    plus the restart bookkeeping.  Both the candidate session
    (:class:`IncrementalSmtSession`) and the verifier
    (:class:`~repro.smt.equivalence.IncrementalVerifySession`) host their
    solver through this class, so the sync-cursor/restart semantics cannot
    drift between them.
    """

    def _init_solver_state(self, reduce_interval: Optional[int] = None,
                           max_lbd_keep: Optional[int] = None) -> None:
        self._solver: Optional[CDCLSolver] = None
        self._synced_clauses = 0
        #: Clause-DB reduction knobs forwarded to every warm solver this
        #: host builds; None defers to the CDCLSolver defaults.
        self._solver_options: Dict[str, int] = {}
        if reduce_interval is not None:
            self._solver_options["reduce_interval"] = reduce_interval
        if max_lbd_keep is not None:
            self._solver_options["max_lbd_keep"] = max_lbd_keep
        #: The session's counters map (see :mod:`repro.engine.stats`): its
        #: own tallies plus the counters of every solver :meth:`restart`
        #: dropped, so session-lifetime totals survive budget-aware cold
        #: restarts.  :meth:`stats` adds the live solver's.
        self._counters: Dict[str, float] = {"checks": 0, "solver_restarts": 0}

    def restart(self) -> None:
        """Drop the warm solver; the context (and its literals) survive.

        The next query rebuilds a cold solver from the full accumulated
        CNF.  Because every model the sessions return is canonical (a
        property of the constraint set, not of the search), restarting is
        purely a scheduling decision — CEGIS uses it when a warm solve
        burns its budget slice without answering.
        """
        if self._solver is not None:
            merge(self._counters, _solver_counters(self._solver))
            self._counters["solver_restarts"] += 1
            self._solver = None
            self._synced_clauses = 0

    def stats(self) -> Dict[str, float]:
        """Session-lifetime counters, the live solver's included.

        ``clauses_retained`` is the learned clauses the live solver carries
        now, and ``cnf_clauses``/``cnf_vars`` the context's current size.
        """
        counters = dict(self._counters)
        if self._solver is not None:
            merge(counters, _solver_counters(self._solver))
        counters["clauses_retained"] = \
            self._solver.learned_alive if self._solver is not None else 0
        counters["cnf_clauses"] = self.context.cnf.num_clauses
        counters["cnf_vars"] = self.context.cnf.num_vars
        return counters

    def _sync_solver(self) -> CDCLSolver:
        """Feed clauses appended since the last check into the live solver."""
        if self._solver is None:
            self._solver = CDCLSolver(**self._solver_options)
        cnf = self.context.cnf
        self._solver.ensure_vars(cnf.num_vars)
        self._solver.add_clauses(cnf.clauses[self._synced_clauses:])
        self._synced_clauses = len(cnf.clauses)
        return self._solver


class IncrementalSmtSession(WarmSolverHost):
    """An incremental word-level solving session: assert once, check often.

    Unlike :func:`check_sat`, constraints asserted here are *cumulative*:
    every :meth:`assert_constraints` call appends obligations to one
    persistent :class:`~repro.bv.bitblast.IncrementalContext` (stable AIG /
    CNF literals), and :meth:`check` reuses one :class:`CDCLSolver` whose
    learned clauses, activities and level-0 facts survive across calls.
    Because constraints only ever accumulate, everything the solver learned
    for an earlier query is still entailed by the current one.

    Satisfying models are *canonical*: after the (heuristic, warm) search
    finds any model, the session refines it to the lexicographically
    smallest assignment of the input variables with a sequence of
    assumption solves.  The lex-min assignment is unique — a property of
    the formula, not of the search — so a warm incremental session and a
    cold from-scratch one return identical models over the same asserted
    constraints.  That canonicity is what lets incremental and from-scratch
    CEGIS return the same hole values, and it makes :meth:`restart` (drop
    the warm solver, keep the context) behavior-preserving: only the
    time-to-answer changes, never the answer.

    ``reduce_interval`` / ``max_lbd_keep`` configure the warm solver's
    LBD-based clause-database reduction (None defers to the
    :class:`~repro.sat.solver.CDCLSolver` defaults); reduction bounds the
    learned database on long sessions and — like restarts — can only
    change time-to-answer.  Session-lifetime reduction telemetry is in
    :meth:`stats` (``clauses_deleted`` / ``db_size_peak``).
    """

    def __init__(self, reduce_interval: Optional[int] = None,
                 max_lbd_keep: Optional[int] = None) -> None:
        self.context = IncrementalContext()
        self._init_solver_state(reduce_interval, max_lbd_keep)
        self._widths: Dict[str, int] = {}
        self._root_unsat = False
        self._counters.update(conflicts=0, asserted=0)

    # ------------------------------------------------------------------ #
    def assert_constraints(self, constraints: Sequence[BVExpr]) -> None:
        """Permanently add 1-bit constraints (a conjunction) to the session.

        The batch is blasted and cone-encoded first, then the output units
        are asserted together — the clause layout a one-shot
        :func:`~repro.bv.cnf.aig_to_cnf` would produce for the batch.
        """
        output_lits = []
        for constraint in constraints:
            if constraint.width != 1:
                raise ValueError("constraints must be 1-bit expressions")
            if constraint.is_const():
                if not constraint.value:
                    self._root_unsat = True
                continue
            for name, width in var_widths(constraint).items():
                existing = self._widths.get(name)
                if existing is not None and existing != width:
                    raise ValueError(
                        f"variable {name!r} used at widths {existing} and {width}")
                self._widths[name] = width
            output_lits.append(self.context.blast(constraint)[0])
            self._counters["asserted"] += 1
        for lit in output_lits:
            self.context.encoder.encode([lit])
        for lit in output_lits:
            self.context.encoder.cnf.add_clause([lit_to_cnf(lit)])

    # ------------------------------------------------------------------ #
    def _lex_minimize(self, solver: CDCLSolver,
                      model: Dict[int, bool]) -> Optional[Dict[int, bool]]:
        """Refine a model to the lex-smallest input-variable assignment.

        The search heuristics (and any warm solver state) determine only
        which model is found *first*; this greedy pass — walk the input
        bits in CNF-variable (assertion) order, try to flip each 1 to 0
        under the already fixed prefix — converges to the unique
        lexicographically smallest satisfying input assignment in that
        order.  Tseitin variables are functionally forced by the inputs,
        so the whole model is canonical.  Returns None on a deadline
        expiry mid-refinement.

        Deliberately NOT the name-based order of
        :func:`_canonical_bit_order` that the verify side uses: candidate
        formulas are much cheaper to minimize in assertion order (the
        greedy prefix then follows constraint structure), and switching
        orders would change every candidate canonical model — silently
        invalidating cross-version result equality for persistent caches.
        The bit order is the AIG input order, which is determined by the
        order constraints were asserted — identical for an incremental
        session and a from-scratch one replaying the same assertion
        sequence (CEGIS replays examples and blocking constraints in one
        shared temporal order for exactly this reason, and only emits
        blocking constraints over hole bits some example has already
        introduced, so the input order never depends on the verifier
        mode).  Zero bits are free (the current model witnesses them);
        only bits currently 1 need a solver call, and the solver's
        assumption-prefix trail reuse makes consecutive calls re-propagate
        almost nothing.
        """

        def note(result: SatResult) -> None:
            self._counters["conflicts"] += result.conflicts

        return lex_min_model(solver, sorted(self.context.input_vars().values()),
                             model, deadline=solver.deadline, on_solve=note)

    def check(self, deadline: Optional[float] = None) -> SmtResult:
        """Decide satisfiability of everything asserted so far."""
        start = time.monotonic()
        counters = self._counters
        counters["checks"] += 1
        if self._root_unsat:
            return SmtResult("unsat", None, "normalise", time.monotonic() - start)
        if deadline is not None and time.monotonic() > deadline:
            return SmtResult("unknown", None, "timeout", time.monotonic() - start)

        conflicts_before = counters["conflicts"]
        solver = self._sync_solver()
        solver.deadline = deadline
        sat_result = solver.solve()
        counters["conflicts"] += sat_result.conflicts
        if sat_result.is_unsat:
            return SmtResult("unsat", None, "sat:incremental",
                             time.monotonic() - start,
                             counters["conflicts"] - conflicts_before)
        model = None
        if sat_result.is_sat:
            # _lex_minimize adds its assumption-solve conflicts to the
            # session's conflict tally, so the delta below covers the
            # whole check.
            model = self._lex_minimize(solver, sat_result.model)
        elapsed = time.monotonic() - start
        query_conflicts = counters["conflicts"] - conflicts_before
        if model is None:
            return SmtResult("unknown", None, "timeout", elapsed,
                             query_conflicts)

        values: Dict[str, int] = {name: 0 for name in self._widths}
        for bit_name, cnf_var in self.context.input_vars().items():
            if not model.get(cnf_var, False):
                continue
            var_name, _, index_part = bit_name.rpartition("[")
            bit_index = int(index_part[:-1])
            if var_name in values:
                values[var_name] |= 1 << bit_index
        return SmtResult("sat", Model(values, dict(self._widths)), "sat:incremental",
                         elapsed, query_conflicts)


_DEFAULT_SOLVER = SmtSolver()


def check_sat(constraints: Sequence[BVExpr] | BVExpr,
              deadline: Optional[float] = None,
              solver: Optional[SmtSolver] = None,
              canonical: bool = False,
              sat_layer=None) -> SmtResult:
    """Decide satisfiability of a constraint (or conjunction of constraints)."""
    if isinstance(constraints, BVExpr):
        constraints = [constraints]
    active = solver if solver is not None else _DEFAULT_SOLVER
    return active.check(list(constraints), deadline=deadline,
                        canonical=canonical, sat_layer=sat_layer)
