"""Satisfiability of word-level bitvector constraints.

``check_sat`` takes one or more 1-bit expressions (treated as a
conjunction), simplifies them, and decides satisfiability with a layered
strategy that stands in for the paper's solver portfolio:

1. *normalise* -- the smart-constructor rewriting may already reduce the
   conjunction to a constant;
2. *simulate*  -- a short burst of random concrete assignments, evaluated
   64 at a time by the bit-parallel packed simulator
   (:mod:`repro.bv.bitsim`), looks for an easy satisfying assignment (the
   cheap way to answer SAT queries);
3. *bit-blast + SAT* -- the complete decision procedure: one
   :class:`~repro.sat.solver.CDCLSolver`, loaded from the AIG, solved on
   the calling thread (:class:`~repro.sat.portfolio.SatPortfolio`) and,
   for a canonical model, refined in place.

Every entry point accepts a ``deadline`` (an absolute ``time.monotonic``
value); queries that exceed it report ``unknown``, which the synthesis
driver surfaces as the paper's "timeout" outcome.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bv import bvand
from repro.bv.aig import AIG
from repro.bv.ast import BVExpr
from repro.bv.bitblast import BitBlaster
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator, first_sat_lane
from repro.bv.cnf import aig_input_vars, aig_to_cnf, lit_to_cnf, tseitin_gates
from repro.bv.eval import evaluate, var_widths
from repro.sat.cnf import CNF
from repro.sat.portfolio import SatPortfolio
from repro.sat.solver import CDCLSolver
from repro.smt.model import Model

__all__ = ["RANDOM_PROBES", "SmtResult", "check_sat", "SmtSolver",
           "IncrementalSmtSession", "lex_min_model"]

#: Random assignments layer 2 (and the CEGIS candidate step) evaluates per
#: query before bit-blasting: half a 64-lane packed batch.  The budget
#: changes which CEGIS trajectory runs (probe-found models are not
#: canonicalized), so the synthesis cache key carries it.
RANDOM_PROBES = 32


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
                  aig: AIG, outputs: Sequence[int],
                  deadline: Optional[float] = None) -> Optional[Dict[int, bool]]:
    """Refine ``model`` to the unique greedy-minimal input-bit assignment.

    ``bits`` is either a bit-name → CNF-variable mapping — minimized in
    the canonical order of :func:`_canonical_bit_order` — or an explicit
    variable sequence, minimized in the given order.  The greedy pass
    walks the bits in order, keeping each bit it can prove zeroable under
    the already-fixed prefix.  The result is the unique satisfying
    assignment minimizing the ordered bit tuple — a property of the
    constraint set and the order, not of the search — so the refined model
    never depends on how the solver searched.
    Returns ``None`` if the deadline expires mid-refinement.

    ``aig`` and ``outputs`` are the circuit the solver's CNF encodes: the
    asserted output literals, with CNF variable = AIG node + 1 (the
    contract of :func:`~repro.bv.cnf.aig_to_cnf`); every bit must be an
    input of ``aig``.  The inputs are the CNF's only free variables, so a
    lane of packed simulation that drives every output to 1 is a model
    of the CNF, and it witnesses exactly what a satisfiable trial would.
    Whenever the model changes, one pass evaluates up to 64 neighbours of
    it (:func:`_witness_lanes`); a bit that some satisfying lane zeroes
    is decided 0 without a solve, and that lane's node assignment becomes
    the model.  Only the trials no lane settles reach the solver, and
    since which witness decides a bit never changes which bits can be
    zeroed, the result is the same.
    """
    solver.deadline = deadline
    ordered = _canonical_bit_order(bits) if isinstance(bits, dict) else list(bits)
    names = {(aig.input_literal(name) >> 1) + 1: name for name in aig.inputs}
    prefix: List[int] = []
    # The pass over the current model: its satisfying lanes per bit they
    # zero, and every node's lane word.  Both are None from a model change
    # to the next 1-bit, so one pass at a time is held in memory.
    witnesses: Optional[Dict[int, int]] = None
    words: Optional[List[int]] = None
    for position, var in enumerate(ordered):
        if not model.get(var, False):
            # Already 0: the current model witnesses this prefix.
            prefix.append(-var)
            continue
        if witnesses is None:
            witnesses, words = _witness_lanes(aig, outputs, names,
                                              ordered[position:], model)
        lanes = witnesses.get(var, 0)
        if lanes:
            lane = first_sat_lane(lanes)
            model = {index + 1: bool(word >> lane & 1)
                     for index, word in enumerate(words)}
            prefix.append(-var)
            witnesses = words = None
            continue
        # No lane settles the trial; an UNSAT answer leaves the model, and
        # with it the lanes of later bits, as they are.
        trial = solver.solve(prefix + [-var])
        if trial.is_sat:
            model = trial.model
            prefix.append(-var)
            witnesses = words = None
        elif trial.is_unsat:
            prefix.append(var)
        else:
            return None
    return model


def _witness_lanes(aig: AIG, outputs: Sequence[int], names: Dict[int, str],
                   remaining: List[int], model: Dict[int, bool]
                   ) -> Tuple[Dict[int, int], List[int]]:
    """One packed pass over up to 64 neighbours of ``model``.

    ``remaining`` are the bits still to decide, the first of which is 1 in
    ``model``.  Lane ``t`` is the model with the ``t``-th remaining 1-bit
    zeroed; each leftover lane zeroes the first one and flips one later
    bit, in order.  Returns the satisfying lanes as a bit → lane-mask map
    (each lane credited to the bit it zeroes first) and every node's lane
    word (:meth:`~repro.bv.aig.AIG.simulate_packed_nodes`).
    """
    ones = [var for var in remaining if model.get(var, False)][:PROBE_LANES]
    lanes = [(var,) for var in ones]
    lanes.extend((ones[0], var)
                 for var in remaining[1:1 + PROBE_LANES - len(ones)])
    mask = (1 << len(lanes)) - 1
    input_words = {name: mask if model.get(var, False) else 0
                   for var, name in names.items()}
    for lane, flips in enumerate(lanes):
        for var in flips:
            input_words[names[var]] ^= 1 << lane
    words = aig.simulate_packed_nodes(input_words, len(lanes))
    satisfied = mask
    for lit in outputs:
        satisfied &= words[lit >> 1] ^ (mask if lit & 1 else 0)
    witnesses: Dict[int, int] = {}
    for lane, flips in enumerate(lanes):
        if satisfied >> lane & 1:
            witnesses[flips[0]] = witnesses.get(flips[0], 0) | 1 << lane
    return witnesses, words


@dataclass
class SmtResult:
    """Outcome of a word-level satisfiability query."""

    status: str  # "sat", "unsat", "unknown"
    model: Optional[Model] = None
    strategy: str = "none"  # which layer decided the query
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


def _decode(input_vars: Dict[str, int], model: Dict[int, bool],
            widths: Dict[str, int]) -> Model:
    """The word-level model of the variables in ``widths`` that a CNF
    ``model`` assigns through the named input bits in ``input_vars``."""
    values: Dict[str, int] = {name: 0 for name in widths}
    for bit_name, cnf_var in input_vars.items():
        if not model.get(cnf_var, False):
            continue
        var_name, _, index_part = bit_name.rpartition("[")
        if var_name in values:
            values[var_name] |= 1 << int(index_part[:-1])
    return Model(values, widths)


class SmtSolver:
    """A configurable word-level solver instance."""

    def __init__(self, random_probes: int = RANDOM_PROBES,
                 seed: int = 0) -> None:
        self.random_probes = random_probes
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    def check(self, constraints: Sequence[BVExpr],
              deadline: Optional[float] = None,
              canonical: bool = False) -> SmtResult:
        """Decide satisfiability with the layered strategy.

        ``canonical=True`` refines any SAT model found by layer 3 to
        the canonical (name-ordered lexicographically smallest) input
        assignment, making layer-3 models search-independent.
        """
        for constraint in constraints:
            if constraint.width != 1:
                raise ValueError("constraints must be 1-bit expressions")

        formula = bvand(*constraints) if len(constraints) > 1 else constraints[0]

        # Layer 1: normalisation.
        if formula.is_const():
            status = "sat" if formula.value else "unsat"
            model = Model({}, {}) if status == "sat" else None
            return SmtResult(status, model, "normalise")

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
        # byte-for-byte identical across solver configurations.
        lanes_spent = 0
        if self.random_probes and widths:
            items = list(widths.items())
            evaluator = PackedEvaluator(formula)
            state = self.rng.getstate()
            while lanes_spent < self.random_probes:
                if deadline is not None and time.monotonic() > deadline:
                    return SmtResult("unknown", None, "timeout",
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
                                     "simulate", probe_lanes=lanes_spent)
        elif self.random_probes and evaluate(formula, {}):
            # No free variables: every scalar probe evaluated the same
            # closed formula (consuming no randomness); one evaluation
            # decides them all.
            return SmtResult("sat", Model({}, widths), "simulate")

        # Layer 3: bit-blast, load one solver straight from the AIG (as
        # IncrementalSmtSession.check does) and solve.  Looked up on the
        # class at call time, so a wrapper installed on SatPortfolio.solve
        # sees the call.
        blaster = BitBlaster()
        bits = blaster.blast(formula)
        aig = blaster.aig
        solver = CDCLSolver(deadline=deadline)
        solver.load_gates(aig.num_nodes, tseitin_gates(aig, bits),
                          [lit_to_cnf(lit) for lit in bits])
        sat_result = SatPortfolio().solve(solver, deadline=deadline)
        if sat_result.is_unknown:
            return SmtResult("unknown", None, "timeout", sat_result.conflicts,
                             probe_lanes=lanes_spent)
        if sat_result.is_unsat:
            return SmtResult("unsat", None, "sat:cdcl",
                             sat_result.conflicts, probe_lanes=lanes_spent)

        input_vars = aig_input_vars(aig)
        model = sat_result.model
        if canonical:
            model = lex_min_model(solver, input_vars, model, aig, bits,
                                  deadline=deadline)
            if model is None:
                # Deadline expired mid-refinement: report unknown rather
                # than the unrefined (search-dependent) model — the same
                # conservative choice IncrementalSmtSession.check makes.
                # Returning the raw model here would make near-deadline
                # counterexamples depend on the search, silently breaking
                # the canonical-model equality everything downstream
                # relies on; a run this close to its budget ends in
                # "timeout" either way.
                return SmtResult("unknown", None, "timeout",
                                 sat_result.conflicts, probe_lanes=lanes_spent)

        return SmtResult("sat", _decode(input_vars, model, widths),
                         "sat:cdcl", sat_result.conflicts,
                         probe_lanes=lanes_spent)


class IncrementalSmtSession:
    """A growing candidate query: assert constraints, check, repeat.

    :meth:`assert_constraints` blasts the constraints into the session's
    AIG, which only grows and shares identical nodes, so asserting a
    conjunction in several batches builds the same AIG as asserting it in
    one.  :meth:`check` loads the cones of every output asserted so far
    straight from that AIG into a fresh :class:`CDCLSolver` — one
    :func:`~repro.bv.cnf.tseitin_gates` walk, one
    :meth:`~repro.sat.solver.CDCLSolver.load_gates` — prefers the input
    bits (:meth:`~repro.sat.solver.CDCLSolver.prefer`) and solves it; no
    clause list is built.  :attr:`cnf` is the same encoding as clause
    lists (:func:`~repro.bv.cnf.aig_to_cnf`), built on demand for tests
    and tools.  A CEGIS run keeps one session: each candidate step that
    reaches the SAT layer asserts the constraints added since the last
    one (:attr:`asserted` counts those given so far) and checks.

    Satisfying models are *canonical*: after the heuristic search finds
    any model, the session refines it to the lexicographically smallest
    assignment of the input variables with a sequence of assumption
    solves.  The lex-min assignment is unique — a property of the formula,
    not of the search — so two sessions over the same asserted constraints
    return identical models, and cached answers keep matching fresh ones.

    The solver reduces its learned database at the
    :class:`~repro.sat.solver.CDCLSolver` defaults; reduction can only
    change time-to-answer, and its telemetry is in :meth:`stats`
    (``clauses_deleted`` / ``db_size_peak``).
    """

    def __init__(self) -> None:
        self._blaster = BitBlaster()
        #: AIG literals of the asserted non-constant constraints, in order.
        self._outputs: List[int] = []
        self._widths: Dict[str, int] = {}
        self._root_unsat = False
        #: How many constraints :meth:`assert_constraints` has been given.
        self.asserted = 0
        #: The solver the last :meth:`check` built (None when it built none).
        self._solver: Optional[CDCLSolver] = None

    def stats(self) -> Dict[str, float]:
        """The last check's solver counters, named as on the stats spine
        (:mod:`repro.engine.stats`), plus its SAT ``conflicts``; empty
        when the last check did not reach the solver."""
        solver = self._solver
        if solver is None:
            return {}
        return {"conflicts": solver.total_conflicts,
                "clauses_deleted": solver.clauses_deleted,
                "db_size_peak": solver.db_size_peak,
                "propagations": solver.propagations_total,
                "watcher_visits": solver.watcher_visits,
                "solver_solve_seconds": solver.solve_seconds}

    @property
    def cnf(self) -> CNF:
        """The encoding :meth:`check` loads, as clause lists, built anew on
        each access: every output asserted so far, in assertion order."""
        return aig_to_cnf(self._blaster.aig, self._outputs)[0]

    @property
    def input_vars(self) -> Dict[str, int]:
        """The CNF variable of every input bit blasted so far."""
        return aig_input_vars(self._blaster.aig)

    # ------------------------------------------------------------------ #
    def assert_constraints(self, constraints: Sequence[BVExpr]) -> None:
        """Add 1-bit constraints (a conjunction) to the session: blast
        each one into the session's AIG."""
        self.asserted += len(constraints)
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
            self._outputs.append(self._blaster.blast(constraint)[0])

    def check(self, deadline: Optional[float] = None) -> SmtResult:
        """Decide satisfiability of everything asserted so far."""
        self._solver = None
        if self._root_unsat:
            return SmtResult("unsat", None, "normalise")
        if deadline is not None and time.monotonic() > deadline:
            return SmtResult("unknown", None, "timeout")

        aig, outputs = self._blaster.aig, self._outputs
        input_vars = self.input_vars
        self._solver = solver = CDCLSolver(deadline=deadline)
        solver.load_gates(aig.num_nodes, tseitin_gates(aig, outputs),
                          [lit_to_cnf(lit) for lit in outputs])
        # The hole bits are decided first, in lex-min order, until
        # conflicts bump other variables.
        solver.prefer(input_vars.values())
        sat_result = solver.solve()
        model = None
        if sat_result.is_sat:
            # Refined in CNF-variable order — the AIG input order, set by
            # the order constraints were asserted — and deliberately NOT
            # in the name order of _canonical_bit_order that verification
            # uses: candidate formulas are much cheaper to minimize with
            # the greedy prefix following constraint structure, and
            # switching orders would change every candidate canonical
            # model, invalidating cross-version equality for persistent
            # caches.  Tseitin variables are functionally forced by the
            # inputs, so the whole model is canonical.
            model = lex_min_model(solver, sorted(input_vars.values()),
                                  sat_result.model, aig, outputs,
                                  deadline=deadline)
        # Every solve on this fresh solver — the search and each lex-min
        # trial — is this query's.
        conflicts = solver.total_conflicts
        if sat_result.is_unsat:
            return SmtResult("unsat", None, "sat:incremental", conflicts)
        if model is None:
            return SmtResult("unknown", None, "timeout", conflicts)
        return SmtResult("sat", _decode(input_vars, model, self._widths),
                         "sat:incremental", conflicts)


_DEFAULT_SOLVER = SmtSolver()


def check_sat(constraints: Sequence[BVExpr] | BVExpr,
              deadline: Optional[float] = None,
              solver: Optional[SmtSolver] = None,
              canonical: bool = False) -> SmtResult:
    """Decide satisfiability of a constraint (or conjunction of constraints)."""
    if isinstance(constraints, BVExpr):
        constraints = [constraints]
    active = solver if solver is not None else _DEFAULT_SOLVER
    return active.check(list(constraints), deadline=deadline,
                        canonical=canonical)
