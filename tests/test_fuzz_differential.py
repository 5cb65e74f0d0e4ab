"""Seeded differential fuzzing across the solver stack.

Two independent implementations that must agree exactly are only as
trustworthy as the inputs they have been compared on.  This suite generates
random instances from a seed and cross-checks:

* the CDCL engine, the legacy CDCL reference and DPLL against
  brute-force enumeration on random CNFs — sat/unsat status and model
  validity;
* the word-level ``check_sat`` stack (simplify → blast → CNF → solver)
  against brute-force evaluation on random bitvector constraints, and
  both canonical-model paths (candidate session, ``canonical=True``)
  against the brute-force lex-min model;
* CEGIS with and without the most aggressive clause-database reduction
  against each other — statuses, hole values, iteration and example
  counts — and the winning hole assignments against brute-force
  enumeration of the full hole space;
* clause-database reduction at its most aggressive settings
  (``reduce_interval=2, max_lbd_keep=0`` — reduce after every other
  learned clause, protect nothing but locked clauses) against brute force
  and against the unreduced baseline, over warm incremental solver use;
* the bit-parallel :class:`~repro.bv.bitsim.PackedEvaluator` against the
  scalar evaluator, lane by lane, on random expressions covering **every**
  operator at random widths and batch sizes — and ``AIG.simulate_packed``
  against ``AIG.simulate`` on bit-blasted random designs;
* the flat-arena :class:`~repro.sat.solver.CDCLSolver` against the retained
  :class:`~repro.sat.legacy.LegacyCDCLSolver` — not just statuses but the
  **entire observable trajectory** (models in emission order, trail,
  conflict/decision/propagation/restart counters, cores, reduction
  telemetry) over incremental add-clause/assumption workloads, plus CEGIS
  re-run on the legacy engine via monkeypatching, unsat-core
  strengthening re-solves across three independent engines, and solvers
  loaded straight from random AIGs (``load_gates``) against the clause
  route and the legacy engine;
* the warm solver service under randomized QoS churn — flood submissions
  and admission-cap rejections interleaved with a benchmark sweep on a
  fixed pool with a shallow pipe — against the same sweep run serially:
  the served records must be field-identical (minus wall-clock and cache
  provenance) no matter how the scheduler interleaved or coalesced;
* the Verilog frontend against its contract: modules drawn from a
  Hypothesis grammar over the accepted subset, mapped through
  ``lakeroad map`` in-process, must end in success, unsat, timeout or one
  diagnostic line — never in a traceback; a declared range other than
  ``[N-1:0]`` must end in the one-line range rejection, and a mapped
  module must keep the design's inputs (in declared order) and output.

Every case derives its RNG from ``LAKEROAD_FUZZ_SEED`` (default 0) and its
case index; failing assertions embed the case seed so a failure replays
with ``LAKEROAD_FUZZ_SEED=<seed> pytest tests/test_fuzz_differential.py``.
CI runs a fixed seed matrix with larger case counts
(``LAKEROAD_FUZZ_*_CASES``); the defaults keep the tier-1 run fast.
"""

import contextlib
import io
import multiprocessing
import os
import random
import re
import tempfile
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.bv import (
    bv, bvvar, bvadd, bvsub, bvmul, bvand, bvor, bvxor, bvnot, bvneg, bveq,
    bvne, bvult, bvite,
)
from repro.bv.bitblast import BitBlaster
from repro.bv.bitsim import PackedEvaluator, pack_assignments, unpack_lane
from repro.bv.cnf import lit_to_cnf, tseitin_gates
from repro.bv.eval import evaluate, var_widths
from repro.bv.simplify import substitute
from repro.cli import main
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.legacy import LegacyCDCLSolver
from repro.sat.solver import CDCLSolver
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import SmtSolver, check_sat

from _fixtures import (
    assert_aig_loading_matches, assert_canonical_lex_min, next_solve,
    random_full_expr, random_small_formula,
)

pytestmark = pytest.mark.fuzz

FUZZ_SEED = int(os.environ.get("LAKEROAD_FUZZ_SEED", "0"))
CNF_CASES = int(os.environ.get("LAKEROAD_FUZZ_CNF_CASES", "120"))
BV_CASES = int(os.environ.get("LAKEROAD_FUZZ_BV_CASES", "40"))
CEGIS_CASES = int(os.environ.get("LAKEROAD_FUZZ_CEGIS_CASES", "18"))
PACKED_CASES = int(os.environ.get("LAKEROAD_FUZZ_PACKED_CASES", "60"))
QOS_CASES = int(os.environ.get("LAKEROAD_FUZZ_QOS_CASES", "2"))
FRONTEND_CASES = int(os.environ.get("LAKEROAD_FUZZ_FRONTEND_CASES", "100"))

#: The engine, the retained dict-based baseline it must replay exactly, and
#: an independent DPLL.
SOLVERS = (CDCLSolver, LegacyCDCLSolver, DPLLSolver)


def _case_seed(stream: str, index: int) -> int:
    # crc32, not hash(): the builtin is PYTHONHASHSEED-randomized per
    # process, which would make the replay instruction a lie.
    return (FUZZ_SEED * 1_000_003 + index) ^ (zlib.crc32(stream.encode()) & 0xFFFF)


def _replay(stream: str, case_seed: int) -> str:
    return (f"[{stream} case seed {case_seed}; replay with "
            f"LAKEROAD_FUZZ_SEED={FUZZ_SEED}]")


# --------------------------------------------------------------------------- #
# Random instance generators
# --------------------------------------------------------------------------- #
def _random_hard_cnf(rng: random.Random) -> CNF:
    """3-SAT near the phase transition: dense enough to learn clauses, so
    aggressive reduce settings genuinely fire mid-search."""
    num_vars = rng.randint(6, 11)
    clauses = []
    for _ in range(int(4.3 * num_vars)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return CNF(num_vars=num_vars, clauses=clauses)


def _random_cnf(rng: random.Random) -> CNF:
    num_vars = rng.randint(2, 8)
    clauses = []
    for _ in range(rng.randint(2, 30)):
        clause = []
        for _ in range(rng.randint(1, 4)):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return CNF(num_vars=num_vars, clauses=clauses)


def _brute_force_cnf(cnf: CNF) -> str:
    for bits in range(1 << cnf.num_vars):
        assignment = [None] + [bool((bits >> i) & 1)
                               for i in range(cnf.num_vars)]
        if cnf.evaluate(assignment):
            return "sat"
    return "unsat"


_BINARY_OPS = (bvadd, bvsub, bvmul, bvand, bvor, bvxor)
_UNARY_OPS = (bvnot, bvneg)


def _random_expr(rng: random.Random, variables, width: int, depth: int):
    """A random well-widthed expression over ``variables`` (name -> width)."""
    if depth <= 0 or rng.random() < 0.25:
        named = [name for name, w in variables.items() if w == width]
        if named and rng.random() < 0.7:
            return bvvar(rng.choice(named), width)
        return bv(rng.getrandbits(width), width)
    roll = rng.random()
    if roll < 0.15 and width == 1:
        # A predicate over wider operands.
        operand_width = rng.randint(1, 3)
        lhs = _random_expr(rng, variables, operand_width, depth - 1)
        rhs = _random_expr(rng, variables, operand_width, depth - 1)
        return rng.choice((bveq, bvne, bvult))(lhs, rhs)
    if roll < 0.30:
        return rng.choice(_UNARY_OPS)(
            _random_expr(rng, variables, width, depth - 1))
    if roll < 0.45:
        condition = _random_expr(rng, variables, 1, depth - 1)
        return bvite(condition,
                     _random_expr(rng, variables, width, depth - 1),
                     _random_expr(rng, variables, width, depth - 1))
    return rng.choice(_BINARY_OPS)(
        _random_expr(rng, variables, width, depth - 1),
        _random_expr(rng, variables, width, depth - 1))


def _assignments(variables):
    """Every concrete assignment of ``variables`` (small widths only)."""
    names = sorted(variables)
    total = 1
    for name in names:
        total <<= variables[name]
    for encoded in range(total):
        assignment = {}
        shift = encoded
        for name in names:
            width = variables[name]
            assignment[name] = shift & ((1 << width) - 1)
            shift >>= width
        yield assignment


def _two_candidate_case(rng: random.Random):
    """A realizable CEGIS case whose second candidate needs a SAT query.

    Returns ``(holes, spec, sketch)``.  The spec is the sketch with ``h0``
    bound to a random nonzero value, written as ``(bound + m) - m`` for a
    random input expression ``m`` so that it is not the DAG of any filled
    sketch.  Draws repeat until brute force shows that

    * ``h0 = 0`` matches the spec on the three fixed initial examples
      (inputs all zeros, all ones, all 1) but not on every input;
    * no correct ``h0`` value folds the miter to a constant.

    With no random initial examples, CEGIS then tries and refutes the
    all-zeros candidate first, and can accept a correct candidate only
    after a SAT query.  With random probing off, every candidate after the
    all-zeros one comes from a candidate-session SAT query as well.
    """
    while True:
        width = rng.randint(1, 3)
        inputs = {"a": rng.randint(1, 3), "b": rng.randint(1, 2)}
        holes = {"h0": rng.randint(1, 3)}
        sketch = _random_expr(rng, {**inputs, **holes}, width,
                              rng.randint(1, 4))
        value = rng.randint(1, (1 << holes["h0"]) - 1)
        mask = _random_expr(rng, inputs, width, rng.randint(1, 2))
        if "h0" not in var_widths(sketch):
            continue
        bound = substitute(sketch, {"h0": bv(value, holes["h0"])})
        spec = bvsub(bvadd(bound, mask), mask)
        fixed = ({name: 0 for name in inputs},
                 {name: (1 << bits) - 1 for name, bits in inputs.items()},
                 {name: 1 for name in inputs})
        if any(evaluate(sketch, {**point, "h0": 0}) != evaluate(spec, point)
               for point in fixed):
            continue
        points = list(_assignments(inputs))
        correct = [candidate for candidate in range(1 << holes["h0"])
                   if all(evaluate(sketch, {**point, "h0": candidate})
                          == evaluate(spec, point) for point in points)]
        if correct[0] == 0:
            continue
        if not any(bvne(substitute(sketch, {"h0": bv(candidate,
                                                     holes["h0"])}),
                        spec).is_const() for candidate in correct):
            return holes, spec, sketch


# --------------------------------------------------------------------------- #
# (a) SAT-solver differential: CDCL vs legacy CDCL vs DPLL vs brute force
# --------------------------------------------------------------------------- #
class TestSolverDifferential:
    def test_backends_agree_with_brute_force_on_random_cnfs(self):
        for index in range(CNF_CASES):
            case_seed = _case_seed("cnf", index)
            rng = random.Random(case_seed)
            cnf = _random_cnf(rng)
            expected = _brute_force_cnf(cnf)
            for solver in SOLVERS:
                name = solver.__name__
                result = solver(cnf).solve()
                assert result.status == expected, \
                    (f"{name} answered {result.status}, brute force says "
                     f"{expected} on {cnf.clauses!r} {_replay('cnf', case_seed)}")
                if result.is_sat:
                    assignment = [None] + [bool(result.model.get(var, False))
                                           for var in range(1, cnf.num_vars + 1)]
                    assert cnf.evaluate(assignment), \
                        (f"{name} returned an invalid model on "
                         f"{cnf.clauses!r} {_replay('cnf', case_seed)}")

    def test_assumption_solves_agree_with_unit_clauses(self):
        for index in range(CNF_CASES // 2):
            case_seed = _case_seed("assumptions", index)
            rng = random.Random(case_seed)
            cnf = _random_cnf(rng)
            assumptions = [rng.randint(1, cnf.num_vars)
                           * (1 if rng.random() < 0.5 else -1)
                           for _ in range(rng.randint(1, 3))]
            with_units = CNF(num_vars=cnf.num_vars,
                             clauses=cnf.clauses + [[lit] for lit in assumptions])
            expected = _brute_force_cnf(with_units)
            for solver in SOLVERS:
                name = solver.__name__
                result = solver(cnf).solve(assumptions)
                assert result.status == expected, \
                    (f"{name} under assumptions {assumptions!r} answered "
                     f"{result.status}, brute force says {expected} "
                     f"{_replay('assumptions', case_seed)}")


# --------------------------------------------------------------------------- #
# (b) Word-level differential: check_sat vs brute-force evaluation
# --------------------------------------------------------------------------- #
class TestWordLevelDifferential:
    def test_check_sat_agrees_with_brute_force_on_random_formulas(self):
        for index in range(BV_CASES):
            case_seed = _case_seed("bv", index)
            rng = random.Random(case_seed)
            variables = {"a": rng.randint(1, 3), "b": rng.randint(1, 3)}
            constraint = _random_expr(rng, variables, 1, rng.randint(1, 4))
            expected = "unsat"
            for assignment in _assignments(variables):
                if evaluate(constraint, assignment):
                    expected = "sat"
                    break
            result = check_sat(constraint, solver=SmtSolver(seed=case_seed))
            assert result.status == expected, \
                (f"check_sat answered {result.status}, brute force says "
                 f"{expected} on {constraint!r} {_replay('bv', case_seed)}")
            if result.is_sat:
                witness = {name: result.model.get(name, 0)
                           for name in variables}
                assert evaluate(constraint, witness), \
                    (f"check_sat returned an invalid model {witness!r} on "
                     f"{constraint!r} {_replay('bv', case_seed)}")


    def test_canonical_models_are_brute_force_lex_min(self):
        for index in range(BV_CASES):
            case_seed = _case_seed("lexmin", index)
            constraint = random_small_formula(random.Random(case_seed))
            assert_canonical_lex_min(constraint, _replay("lexmin", case_seed))


# --------------------------------------------------------------------------- #
# (c) Clause-DB reduction differential: aggressive reduce vs brute force
# --------------------------------------------------------------------------- #
class TestReductionDifferential:
    def test_aggressive_reduction_agrees_with_brute_force(self):
        reduced_cases = 0
        for index in range(max(1, CNF_CASES // 2)):
            case_seed = _case_seed("reduce", index)
            rng = random.Random(case_seed)
            cnf = _random_hard_cnf(rng)
            expected = _brute_force_cnf(cnf)
            solver = CDCLSolver(cnf, reduce_interval=2, max_lbd_keep=0)
            result = solver.solve()
            assert result.status == expected, \
                (f"reduced solver answered {result.status}, brute force says "
                 f"{expected} on {cnf.clauses!r} {_replay('reduce', case_seed)}")
            if result.is_sat:
                assignment = [None] + [bool(result.model.get(var, False))
                                       for var in range(1, cnf.num_vars + 1)]
                assert cnf.evaluate(assignment), \
                    (f"reduced solver returned an invalid model on "
                     f"{cnf.clauses!r} {_replay('reduce', case_seed)}")
            # Warm assumption solves on the reduced database.
            for _ in range(3):
                assumptions = [rng.randint(1, cnf.num_vars)
                               * (1 if rng.random() < 0.5 else -1)
                               for _ in range(rng.randint(1, 3))]
                with_units = CNF(num_vars=cnf.num_vars,
                                 clauses=cnf.clauses
                                 + [[lit] for lit in assumptions])
                expected = _brute_force_cnf(with_units)
                outcome = solver.solve(assumptions)
                assert outcome.status == expected, \
                    (f"reduced solver under {assumptions!r} answered "
                     f"{outcome.status}, brute force says {expected} "
                     f"{_replay('reduce', case_seed)}")
            if solver.reductions:
                reduced_cases += 1
        # The stream must genuinely exercise the reduction path — but only
        # a real sample can be held to that (a minimized repro run with
        # LAKEROAD_FUZZ_CNF_CASES=1 may legitimately never reduce).
        if CNF_CASES >= 20:
            assert reduced_cases > 0, "no case ever triggered a DB reduction"


# --------------------------------------------------------------------------- #
# (d) Packed-evaluation differential: PackedEvaluator vs scalar evaluate
# --------------------------------------------------------------------------- #
class TestPackedDifferential:
    def test_packed_evaluator_matches_scalar_lane_by_lane(self):
        constant_only = 0
        for index in range(PACKED_CASES):
            case_seed = _case_seed("packed", index)
            rng = random.Random(case_seed)
            variables = {f"v{i}": rng.randint(1, 9)
                         for i in range(rng.randint(1, 4))}
            width = rng.randint(1, 9)
            expr = random_full_expr(rng, variables, width,
                                     rng.randint(2, 5))
            widths = var_widths(expr)
            if not widths:
                constant_only += 1
                continue
            lanes = rng.choice((1, 3, 17, 64, 64, 100))
            batch = [{name: rng.getrandbits(w)
                      for name, w in widths.items()} for _ in range(lanes)]
            words = PackedEvaluator(expr).evaluate_batch(batch)
            assert len(words) == expr.width, _replay("packed", case_seed)
            for lane, assignment in enumerate(batch):
                packed_value = unpack_lane(words, lane)
                scalar_value = evaluate(expr, assignment)
                assert packed_value == scalar_value, \
                    (f"lane {lane}: packed {packed_value} != scalar "
                     f"{scalar_value} on {expr!r} under {assignment!r} "
                     f"{_replay('packed', case_seed)}")
        # The generator must mostly produce expressions with free
        # variables, or the lane comparison is vacuous.
        if PACKED_CASES >= 20:
            assert constant_only < PACKED_CASES // 2, constant_only

    def test_aig_simulate_packed_matches_scalar(self):
        for index in range(max(1, PACKED_CASES // 3)):
            case_seed = _case_seed("aig-packed", index)
            rng = random.Random(case_seed)
            variables = {f"v{i}": rng.randint(1, 5)
                         for i in range(rng.randint(1, 3))}
            expr = random_full_expr(rng, variables, rng.randint(1, 5),
                                     rng.randint(2, 4))
            blaster = BitBlaster()
            bits = blaster.blast(expr)
            aig = blaster.aig
            lanes = rng.choice((1, 17, 64))
            patterns = [{name: rng.getrandbits(1) for name in aig.inputs}
                        for _ in range(lanes)]
            input_words = {
                name: sum(patterns[i][name] << i for i in range(lanes))
                for name in aig.inputs
            }
            packed = aig.simulate_packed(input_words, bits, lanes=lanes)
            for i, pattern in enumerate(patterns):
                scalar = aig.simulate(pattern, bits)
                assert [(word >> i) & 1 for word in packed] == scalar, \
                    (f"pattern {i} diverged on {expr!r} "
                     f"{_replay('aig-packed', case_seed)}")


# --------------------------------------------------------------------------- #
# (e) Arena-vs-legacy differential: the flat-arena CDCL core must replay the
#     retired dict-based solver literal for literal
# --------------------------------------------------------------------------- #
class TestArenaLegacyDifferential:
    #: The defaults and three reduction aggressiveness levels.
    CONFIGS = (
        {},
        {"reduce_interval": 30, "max_lbd_keep": 2},
        {"reduce_interval": 20},
        {"reduce_interval": 10, "max_lbd_keep": 0},
    )

    @staticmethod
    def _snapshot(solver, result):
        """Every externally observable artefact of one query, order included."""
        model = None if result.model is None else list(result.model.items())
        return (result.status, model, result.conflicts, result.decisions,
                result.propagations, result.restarts, list(solver.trail),
                solver.last_core, solver.learned_count,
                solver.clauses_deleted, solver.db_size_peak,
                solver.db_size_floor, solver.reductions,
                solver.propagations_total, solver.watcher_visits,
                solver.total_conflicts)

    def test_incremental_trajectories_are_bit_identical(self):
        for index in range(max(1, CNF_CASES // 2)):
            case_seed = _case_seed("arena", index)
            rng = random.Random(case_seed)
            num_vars = rng.randint(4, 14)
            config = self.CONFIGS[index % len(self.CONFIGS)]
            arena = CDCLSolver(**config)
            legacy = LegacyCDCLSolver(**config)
            for batch in range(rng.randint(1, 4)):
                for _ in range(rng.randint(2, 5 * num_vars)):
                    clause = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                              for _ in range(rng.randint(1, 4))]
                    assert arena.add_clause(clause) == legacy.add_clause(clause), \
                        (f"add_clause({clause!r}) verdicts diverged "
                         f"{_replay('arena', case_seed)}")
                for query in range(rng.randint(1, 3)):
                    assumptions = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                                   for _ in range(rng.randint(0, 3))] \
                        if rng.random() < 0.5 else []
                    lhs = self._snapshot(arena, arena.solve(assumptions))
                    rhs = self._snapshot(legacy, legacy.solve(assumptions))
                    assert lhs == rhs, \
                        (f"batch {batch} query {query} under {assumptions!r}: "
                         f"arena {lhs!r} != legacy {rhs!r} "
                         f"{_replay('arena', case_seed)}")

    def test_unsat_cores_strengthen_to_unsat_in_every_engine(self):
        cores_seen = 0
        for index in range(max(1, CNF_CASES // 2)):
            case_seed = _case_seed("arena-core", index)
            rng = random.Random(case_seed)
            cnf = _random_hard_cnf(rng)
            solver = CDCLSolver(cnf, reduce_interval=4, max_lbd_keep=0)
            solver.solve()  # warm the database (and likely reduce it)
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, cnf.num_vars + 1),
                                               min(3, cnf.num_vars))]
            if not solver.solve(assumptions).is_unsat:
                continue
            core = solver.last_core
            assert core is not None and set(core) <= set(assumptions), \
                _replay("arena-core", case_seed)
            # Re-solve with the core asserted as units: still unsat under
            # the arena engine, the legacy engine and independent DPLL.
            strengthened = CNF(num_vars=cnf.num_vars,
                               clauses=cnf.clauses + [[lit] for lit in core])
            for engine in (CDCLSolver, LegacyCDCLSolver, DPLLSolver):
                assert engine(strengthened).solve().is_unsat, \
                    (f"{engine.__name__} found the strengthened CNF sat — "
                     f"core {core!r} is unsound "
                     f"{_replay('arena-core', case_seed)}")
            cores_seen += 1
        if CNF_CASES >= 20:
            assert cores_seen > 0, "no case ever produced an unsat core"

    def test_aig_loading_matches_clause_loading_and_legacy(self):
        """``load_gates`` on the arena engine against the clause route and
        against the legacy engine's ``load_gates`` (which takes the clause
        route itself): state, trail, verdict and the next solve, over
        random multi-output circuits with overlapping cones."""
        for index in range(BV_CASES):
            case_seed = _case_seed("aig-load", index)
            rng = random.Random(case_seed)
            variables = {"a": rng.randint(1, 5), "b": rng.randint(1, 4),
                         "c": rng.randint(1, 3)}
            blaster = BitBlaster()
            outputs = [blaster.blast(
                random_full_expr(rng, variables, 1, rng.randint(1, 5))
                if rng.random() < 0.7 else random_small_formula(rng))[0]
                for _ in range(rng.randint(1, 4))]
            config = self.CONFIGS[index % len(self.CONFIGS)]
            note = f"outputs {outputs!r} {_replay('aig-load', case_seed)}"
            verdict, outcome = assert_aig_loading_matches(
                blaster.aig, outputs, note, **config)
            legacy = LegacyCDCLSolver(**config)
            assert legacy.load_gates(
                blaster.aig.num_nodes, tseitin_gates(blaster.aig, outputs),
                [lit_to_cnf(lit) for lit in outputs]) == verdict, note
            assert next_solve(legacy) == outcome, note

    def test_cegis_modes_on_legacy_solver_match_arena(self, monkeypatch):
        import repro.smt.solver as smt_solver

        #: Candidate-session loads into the legacy engine: every session
        #: check past the root-level shortcuts builds and loads one.
        loads = [0]
        session_check = smt_solver.IncrementalSmtSession.check

        def counting_check(session, *args, **kwargs):
            result = session_check(session, *args, **kwargs)
            loads[0] += isinstance(session._solver, LegacyCDCLSolver)
            return result

        def run_modes(obligation, holes, case_seed, options):
            results = {}
            for reduced in (False, True):
                knobs = {"reduce_interval": 2, "max_lbd_keep": 0} \
                    if reduced else {}
                outcome = synthesize(
                    [obligation], holes, solver=SmtSolver(seed=0),
                    seed=case_seed & 0xFFFF, max_iterations=256,
                    **options, **knobs)
                results[reduced] = (
                    outcome.status, outcome.hole_values,
                    outcome.iterations, outcome.examples_used,
                    outcome.stats["propagations"],
                    outcome.stats["watcher_visits"])
            return results

        def compare(stream, case_seed, holes, spec, sketch, **options):
            obligation = Obligation(spec=spec, sketch=sketch)
            arena_runs = run_modes(obligation, holes, case_seed, options)
            with monkeypatch.context() as patch:
                patch.setattr(smt_solver, "CDCLSolver", LegacyCDCLSolver)
                patch.setattr(smt_solver.IncrementalSmtSession, "check",
                              counting_check)
                legacy_runs = run_modes(obligation, holes, case_seed, options)
            assert arena_runs == legacy_runs, \
                (f"CEGIS diverged between engines on spec={spec!r} "
                 f"sketch={sketch!r}: {arena_runs!r} != {legacy_runs!r} "
                 f"{_replay(stream, case_seed)}")

        cases = max(1, CEGIS_CASES // 3)
        # Independent spec/sketch pairs, default options: often
        # unrealizable (the no-candidate outcome), and at small scale
        # mostly closed by the probe layers.
        for index in range(cases):
            case_seed = _case_seed("cegis-legacy", index)
            rng = random.Random(case_seed)
            width = rng.randint(1, 3)
            inputs = {"a": rng.randint(1, 3), "b": rng.randint(1, 2)}
            holes = {"h0": rng.randint(1, 3)}
            spec = _random_expr(rng, inputs, width, rng.randint(1, 3))
            sketch = _random_expr(rng, {**inputs, **holes}, width,
                                  rng.randint(1, 4))
            compare("cegis-legacy", case_seed, holes, spec, sketch)
        # Cases that load the candidate solver at any scale
        # (_two_candidate_case).
        before = loads[0]
        for index in range(cases):
            case_seed = _case_seed("cegis-legacy-warm", index)
            holes, spec, sketch = _two_candidate_case(random.Random(case_seed))
            compare("cegis-legacy-warm", case_seed, holes, spec, sketch,
                    random_probes=0, initial_random_examples=0)
        # Per case: both reduction settings load a candidate solver for
        # the candidate after the all-zeros one.
        assert loads[0] - before >= 2 * cases, \
            (f"legacy-engine loads over {cases} two-candidate cases: "
             f"{loads[0] - before}")


# --------------------------------------------------------------------------- #
# (f) CEGIS differential: with and without reduction vs brute force
# --------------------------------------------------------------------------- #
class TestCegisDifferential:
    def test_mode_combinations_agree_and_match_brute_force(self):
        checked_sat = 0
        checked_unsat = 0
        for index in range(CEGIS_CASES):
            case_seed = _case_seed("cegis", index)
            rng = random.Random(case_seed)
            width = rng.randint(1, 3)
            inputs = {"a": rng.randint(1, 3), "b": rng.randint(1, 3)}
            holes = {"h0": rng.randint(1, 3)}
            if rng.random() < 0.5:
                holes["h1"] = rng.randint(1, 2)
            spec = _random_expr(rng, inputs, width, rng.randint(1, 3))
            sketch = _random_expr(rng, {**inputs, **holes}, width,
                                  rng.randint(1, 4))
            obligation = Obligation(spec=spec, sketch=sketch)

            outcomes = {}
            for reduced in (False, True):
                # reduced=True re-runs with the most aggressive clause-DB
                # reduction settings; the outcome must stay identical.
                knobs = {"reduce_interval": 2, "max_lbd_keep": 0} \
                    if reduced else {}
                outcomes[reduced] = synthesize(
                    [obligation], holes, solver=SmtSolver(seed=0),
                    seed=case_seed & 0xFFFF, max_iterations=256, **knobs)
            base = outcomes[False]
            for key, outcome in outcomes.items():
                context = (f"reduced={key} vs unreduced on "
                           f"spec={spec!r} sketch={sketch!r} "
                           f"{_replay('cegis', case_seed)}")
                assert outcome.status == base.status, context
                assert outcome.hole_values == base.hole_values, context
                assert outcome.iterations == base.iterations, context
                assert outcome.examples_used == base.examples_used, context

            # Brute-force oracle over the (small) hole space.
            def implements(hole_assignment):
                return all(
                    evaluate(sketch, {**point, **hole_assignment})
                    == evaluate(spec, point)
                    for point in _assignments(inputs))

            assert base.status in ("sat", "unsat"), \
                (f"undeadlined CEGIS degraded to {base.status!r} "
                 f"({base.diagnostic!r}) {_replay('cegis', case_seed)}")
            if base.status == "sat":
                assert implements(base.hole_values), \
                    (f"returned holes {base.hole_values!r} do not implement "
                     f"spec={spec!r} sketch={sketch!r} "
                     f"{_replay('cegis', case_seed)}")
                checked_sat += 1
            else:
                assert not any(implements(assignment)
                               for assignment in _assignments(holes)), \
                    (f"CEGIS said unsat but a hole assignment exists for "
                     f"spec={spec!r} sketch={sketch!r} "
                     f"{_replay('cegis', case_seed)}")
                checked_unsat += 1
        # The generator must exercise both outcomes, or the oracle is idle.
        assert checked_sat > 0 and checked_unsat > 0, \
            (checked_sat, checked_unsat)


# --------------------------------------------------------------------------- #
# (g) Service QoS differential: served records vs serial under random churn
# --------------------------------------------------------------------------- #
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="requires the fork start method")
class TestServiceQosChurnDifferential:
    def test_served_records_survive_random_flood_and_resize_churn(self):
        from repro.engine.parallel import SessionSpec, run_sweep
        from repro.engine.service import (
            MapRequest, ServiceOverloaded, SolverService,
        )
        from repro.harness.runner import ExperimentConfig

        from _fixtures import small_workloads
        from loadgen import design_verilog

        for index in range(QOS_CASES):
            case_seed = _case_seed("qos-churn", index)
            rng = random.Random(case_seed)
            context = _replay("qos-churn", case_seed)
            # Width 8 is the narrowest the enumeration has; a smaller cap
            # draws no benchmark, and then nothing is ever submitted.
            benchmarks = small_workloads(4, seed=case_seed & 0xFFFF,
                                         max_width=8)
            assert len(benchmarks) == 4, context
            config = ExperimentConfig()
            serial = run_sweep(benchmarks, config, workers=1).records

            # A deliberately tight service: random caps small enough that
            # the flood can draw rejections.  A worker holds one request,
            # so most of the load waits in the fair scheduler's queues.
            spec = SessionSpec.from_config(config)
            flood_indices = iter(rng.sample(range(64), 48))
            primary, flood, rejections = [], [], 0
            workers = rng.randint(1, 2)
            with SolverService(spec, workers=workers,
                               max_pending=rng.randint(8, 14),
                               client_queue=rng.randint(4, 8)) as service:
                for benchmark in benchmarks:
                    primary.append(service.map_benchmark(
                        benchmark, config, client="primary"))
                    for _ in range(rng.randint(0, 4)):
                        event = rng.random()
                        if event < 0.35:
                            # Duplicate of a sweep design: coalesces or hits
                            # the front cache; either way the restamped
                            # record must match the serial one.
                            twin = rng.choice(benchmarks)
                            try:
                                flood.append((twin.name,
                                              service.map_benchmark(
                                                  twin, config,
                                                  client=f"flood-"
                                                         f"{rng.randint(0, 1)}")))
                            except ServiceOverloaded:
                                rejections += 1
                        else:
                            # Distinct design with the cache off: consumes a
                            # real admission slot and may be rejected.
                            design_index = next(flood_indices)
                            request = MapRequest(
                                verilog=design_verilog(design_index, "z"),
                                arch=benchmarks[0].architecture,
                                template=config.template, use_cache=False,
                                benchmark=f"z{design_index}")
                            try:
                                flood.append((None, service.submit(
                                    request,
                                    client=f"flood-{rng.randint(0, 1)}")))
                            except ServiceOverloaded as exc:
                                rejections += 1
                                assert 50 <= exc.retry_after_ms <= 10_000, \
                                    context
                    if rng.random() < 0.5:
                        # Quiet gaps let the queues drain, so the next
                        # burst meets a different backlog.
                        time.sleep(rng.uniform(0.0, 0.08))
                served = [future.result(timeout=180) for future in primary]
                flood_served = [(name, future.result(timeout=180))
                                for name, future in flood]
                stats = service.stats()

            serial_by_name = {record.benchmark: record for record in serial}
            assert [r.comparable() for r in served] == \
                [r.comparable() for r in serial], \
                (f"served sweep diverged from serial under churn {context}")
            for name, record in flood_served:
                if name is not None:
                    assert record.comparable() == \
                        serial_by_name[name].comparable(), \
                        (f"coalesced duplicate of {name!r} diverged from "
                         f"the serial record {context}")
                else:
                    assert record.outcome in ("success", "unsat"), \
                        (f"churn request {record.benchmark!r} degraded to "
                         f"{record.outcome!r} {context}")
            assert stats["workers"] == workers, context
            assert stats["rejections"] == rejections, context


# --------------------------------------------------------------------------- #
# (h) Frontend grammar fuzz: every accepted-subset module ends in an answer
#     or one diagnostic line
# --------------------------------------------------------------------------- #
_FRONTEND_BINARY = ("&", "|", "^", "~^", "+", "-", "*", "<<", ">>", ">>>",
                    "==", "<")


def _frontend_constant(draw) -> str:
    """A sized constant; binary and hex digits may be ``x``/``z``, and a
    hex digit may not fit the declared width."""
    width = draw(st.integers(1, 4))
    base = draw(st.sampled_from("bhd"))
    if base == "d":
        return f"{width}'d{draw(st.integers(0, (1 << width) - 1))}"
    if base == "b":
        digits = [draw(st.sampled_from("01xz")) for _ in range(width)]
    else:
        digits = [draw(st.sampled_from("0123456789abcdefxz"))]
    return f"{width}'{base}{''.join(digits)}"


def _frontend_expr(draw, names, depth: int) -> str:
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(("input", "input", "parameter",
                                     "constant", "select")))
        if leaf == "input":
            return draw(st.sampled_from(names))
        if leaf == "parameter":
            return "P"
        if leaf == "constant":
            return _frontend_constant(draw)
        # Inputs are 1-4 bits wide, so bit 4 is always out of range.
        name = draw(st.sampled_from(names))
        high = draw(st.integers(0, 4))
        low = draw(st.integers(0, high))
        if high == low and draw(st.booleans()):
            return f"{name}[{high}]"
        return f"{name}[{high}:{low}]"

    def operand() -> str:
        return _frontend_expr(draw, names, depth - 1)

    form = draw(st.sampled_from(("unary", "binary", "binary", "ternary",
                                 "concat", "replicate")))
    if form == "unary":
        return f"(~{operand()})"
    if form == "binary":
        op = draw(st.sampled_from(_FRONTEND_BINARY))
        return f"({operand()} {op} {operand()})"
    if form == "ternary":
        return f"({operand()} ? {operand()} : {operand()})"
    if form == "concat":
        return f"{{{operand()}, {operand()}}}"
    return f"{{{draw(st.integers(-1, 2))}{{{operand()}}}}}"


def _frontend_range(draw, width: int, style: str):
    """A declared range for a ``width``-bit port and whether the frontend
    must reject it: only ``[N-1:0]`` (or no range, for one bit) is
    accepted; ``[0:N-1]`` and offset ranges such as ``[N:1]`` are not."""
    if style == "ascending":
        return f"[0:{width - 1}] ", width > 1
    if style == "offset":
        return f"[{width}:1] ", True
    if width > 1 or draw(st.booleans()):
        return f"[{width - 1}:0] ", False
    return "", False


@st.composite
def _frontend_modules(draw):
    """One module of the accepted subset: 1-3 inputs of 1-4 bits (some
    ``signed``), a parameter ``P``, 0-2 register stages clocked by an input
    under a drawn name, and an output under a drawn name.  In about one
    module in five, one port declares a range the frontend rejects.

    Returns the source, its data inputs in declared order, its output
    name and whether a declared range must be rejected."""
    names = ["a", "b", "c"][:draw(st.integers(1, 3))]
    odd_style = draw(st.sampled_from(("",) * 8 + ("ascending", "offset")))
    odd_port = draw(st.integers(0, len(names)))  # len(names): the output
    rejected = False
    ports = []
    for index, name in enumerate(names):
        width = draw(st.integers(1, 4))
        signed = "signed " if draw(st.booleans()) else ""
        declared, odd = _frontend_range(
            draw, width, odd_style if index == odd_port else "")
        rejected = rejected or odd
        ports.append(f"input {signed}{declared}{name}")
    stages = draw(st.integers(0, 2))
    clock = draw(st.sampled_from(("clk", "clock", "ck", "i_clk")))
    if stages or draw(st.booleans()):
        ports.insert(draw(st.integers(0, len(ports))), f"input {clock}")
    out_width = draw(st.integers(1, 6))
    output = draw(st.sampled_from(("out", "o", "y", "result")))
    declared, odd = _frontend_range(
        draw, out_width, odd_style if odd_port == len(names) else "")
    rejected = rejected or odd
    ports.append(f"output {declared}{output}")
    parameter = f"parameter P = {draw(st.integers(0, 7))}"
    in_header = draw(st.booleans())
    header = f"module fuzz #({parameter}) (" if in_header else "module fuzz("
    body = [] if in_header else [f"  {parameter};"]
    value = _frontend_expr(draw, names, draw(st.integers(0, 3)))
    # Most draws should read every input; an unread one (which only a
    # folding operator such as ``a ^ a`` still produces) ends in one line.
    for name in names:
        if not re.search(rf"(?<![\w']){name}(?!\w)", value):
            value = f"({value} {draw(st.sampled_from(_FRONTEND_BINARY))} " \
                    f"{name})"
    for stage in range(stages):
        body.append(f"  reg [{out_width - 1}:0] r{stage};")
        body.append(f"  always @(posedge {clock}) r{stage} <= {value};")
        value = f"r{stage}"
    body.append(f"  assign {output} = {value};")
    source = header + ", ".join(ports) + ");\n" + "\n".join(body) + \
        "\nendmodule\n"
    return source, names, output, rejected


def _map_in_process(source: str):
    """``lakeroad map`` on ``source``: its exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "fuzz.v")
        with open(path, "w") as handle:
            handle.write(source)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main([path, "--template", "bitwise", "--arch-desc",
                             "sofa", "--no-validate", "--timeout", "2"])
            except SystemExit as exit_info:
                code = exit_info.code
    return code, stdout.getvalue(), stderr.getvalue()


class TestFrontendGrammarFuzz:
    @seed(FUZZ_SEED)
    @settings(max_examples=FRONTEND_CASES, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(_frontend_modules())
    def test_every_module_maps_or_fails_in_one_line(self, drawn):
        source, inputs, output, rejected = drawn
        code, stdout, stderr = _map_in_process(source)
        assert "Traceback" not in stderr, stderr
        if rejected:
            assert code == 1, (code, stderr)
            assert re.fullmatch(r"lakeroad map: error: line \d+: range "
                                r"\[\d+:\d+\] is not supported; declare "
                                r"\[\d+:0\]\n", stderr), stderr
        elif code == 1:
            lines = stderr.splitlines()
            assert len(lines) == 1 and \
                lines[0].startswith("lakeroad map: error: "), stderr
        else:
            assert code in (0, 2, 3), (code, stderr)
        if code == 0:
            # The mapped module replaces the design port for port: an
            # optional clock, then the read inputs in declared order
            # (every data input is read, or the map fails), then the
            # output.
            head, _, _ = stdout.partition(");")
            first, *ports = head.splitlines()
            assert first == "module fuzz_impl (", stdout
            names = [port.split()[-1].rstrip(",") for port in ports]
            assert names[len(names) - len(inputs) - 1:] == [*inputs, output], \
                (names, source)
            assert len(names) - len(inputs) - 1 in (0, 1), (names, source)
