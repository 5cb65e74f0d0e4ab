"""Tests for the incremental solving layer: incremental CDCL, the candidate
SMT session and its CNF layout, and CEGIS on top of them.

The load-bearing property throughout is *canonicity*: a warm solver and a
fresh one must produce exactly the same answers — statuses always, and
models canonically (the session refines every model to the
lexicographically smallest input assignment, which is a property of the
formula rather than of the search)."""

import hashlib
import json
import random
import time

import pytest

from repro.bv import (
    bv, bvvar, bvadd, bvmul, bvand, bvxor, bveq, bvne, bvult,
    bvconcat, bvextract, bvlshr, zero_extend,
)
from repro.bv.bitblast import BitBlaster
from repro.bv.cnf import aig_to_cnf
from repro.engine.budget import Budget
from repro.hdl.behavioral import verilog_to_behavioral
from repro.sat.cnf import CNF
from repro.sat.solver import PREFERRED_ACTIVITY, VAR_DECAY, CDCLSolver
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import IncrementalSmtSession, SmtSolver, lex_min_model

from _fixtures import (
    assert_aig_loading_matches, assert_canonical_lex_min,
    factoring_constraints, random_full_expr, random_small_formula,
    reduce_aggressively, solve_snapshot,
)


def _random_clauses(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        clause = []
        for _ in range(rng.randint(1, 3)):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


class TestIncrementalCdcl:
    def test_add_clause_after_solve_matches_fresh_solver(self):
        rng = random.Random(7)
        for _ in range(60):
            num_vars = rng.randint(3, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 28))
            cut = rng.randint(0, len(clauses))
            warm = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses[:cut]))
            warm.solve()
            for clause in clauses[cut:]:
                warm.add_clause(clause)
            fresh = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            warm_result, fresh_result = warm.solve(), fresh.solve()
            assert warm_result.status == fresh_result.status
            if warm_result.is_sat:
                assignment = [None] + [warm_result.model[v]
                                       for v in range(1, num_vars + 1)]
                assert CNF(num_vars=num_vars, clauses=clauses).evaluate(assignment)

    def test_assumption_solve_matches_fresh_solver_with_units(self):
        rng = random.Random(13)
        for _ in range(60):
            num_vars = rng.randint(3, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 28))
            warm = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            warm.solve()  # warm it up: learned clauses + phases retained
            assumptions = []
            for _ in range(rng.randint(1, 3)):
                var = rng.randint(1, num_vars)
                assumptions.append(var if rng.random() < 0.5 else -var)
            result = warm.solve(assumptions=assumptions)
            fresh = CDCLSolver(CNF(num_vars=num_vars,
                                   clauses=clauses + [[a] for a in assumptions]))
            assert result.status == fresh.solve().status

    def test_unsat_core_is_a_real_core(self):
        """An unsat answer under assumptions names no core; its implicit
        one, every assumption, must be real: the clauses plus the
        assumptions as units are unsat under DPLL and the legacy engine."""
        from repro.sat.dpll import DPLLSolver
        from repro.sat.legacy import LegacyCDCLSolver

        rng = random.Random(29)
        cores_seen = 0
        for _ in range(80):
            num_vars = rng.randint(3, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(4, 26))
            solver = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            assumptions = []
            for var in rng.sample(range(1, num_vars + 1), min(3, num_vars)):
                assumptions.append(var if rng.random() < 0.5 else -var)
            result = solver.solve(assumptions=assumptions)
            if not result.is_unsat:
                continue
            check = CNF(num_vars=num_vars,
                        clauses=clauses + [[lit] for lit in assumptions])
            assert DPLLSolver(check).solve().is_unsat
            assert LegacyCDCLSolver(check).solve().is_unsat
            cores_seen += 1
        assert cores_seen > 0  # the sample must actually exercise the path

    def test_solver_reusable_after_assumption_unsat(self):
        cnf = CNF(clauses=[[1, 2], [-1, 2]])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-2]).is_unsat
        result = solver.solve()
        assert result.is_sat
        assert result.model[2] is True

    def test_empty_start_grows_incrementally(self):
        solver = CDCLSolver()
        assert solver.solve().is_sat
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        result = solver.solve()
        assert result.is_sat and result.model[2] is True
        solver.add_clause([-2])
        assert solver.solve().is_unsat
        # Root-level unsat is permanent.
        assert solver.solve().is_unsat

    def test_bulk_loading_matches_per_clause_loading(self):
        """``add_clauses`` must leave exactly the state clause-by-clause
        loading leaves — arena, watcher lists, trail, verdict — and the
        retained per-clause ``LegacyCDCLSolver.add_clause`` (the historical
        code, an independent oracle) must agree on the clause database,
        the trail and the next assumption solve.  An empty batch must
        leave the decision levels of the last solve in place."""
        from repro.sat.legacy import LegacyCDCLSolver

        def random_batch(rng, num_vars):
            batch = []
            for _ in range(rng.randint(1, 3 * num_vars)):
                clause = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                          for _ in range(rng.randint(1, 4))]
                roll = rng.random()
                if roll < 0.15:
                    del clause[1:]  # a unit
                elif roll < 0.25:
                    clause.insert(rng.randint(0, len(clause)),
                                  rng.choice(clause))  # a duplicate literal
                elif roll < 0.35:
                    clause.insert(rng.randint(0, len(clause)),
                                  -rng.choice(clause))  # a tautology
                elif roll < 0.36:
                    clause = []  # the database turns unsat
                batch.append(clause)
            return batch

        def outcome(solver, result):
            model = None if result.model is None else list(result.model.items())
            return (result.status, model, result.conflicts, result.decisions,
                    result.propagations, result.restarts, list(solver.trail))

        rng = random.Random(41)
        seen = dict.fromkeys(("above_root", "root_true", "root_false",
                              "empty", "empty_batch_above_root"), 0)
        for case in range(80):
            num_vars = rng.randint(3, 10)
            config = {"reduce_interval": 2, "max_lbd_keep": 0} \
                if case % 2 else {}
            bulk, single = CDCLSolver(**config), CDCLSolver(**config)
            reference = LegacyCDCLSolver(**config)
            assumptions = []
            for step in range(rng.randint(1, 5)):
                # Now and then nothing is added and the same assumptions
                # are solved again.
                batch = [] if step and rng.random() < 0.3 else \
                    random_batch(rng, num_vars)
                levels = (list(bulk.trail), list(bulk.trail_lim))
                seen["above_root"] += bool(batch and bulk.trail_lim)
                seen["empty"] += [] in batch
                verdicts = [bulk.add_clauses(batch), single._ok, reference._ok]
                for clause in batch:
                    verdicts[1] = single.add_clause(clause)
                    for lit in clause:  # decided at level 0 before this clause
                        if reference.level.get(abs(lit)) == 0:
                            seen["root_true" if reference._value(lit)
                                 else "root_false"] += 1
                    verdicts[2] = reference.add_clause(clause)
                context = f"case {case}, batch {batch!r}"
                assert verdicts[0] == verdicts[1] == verdicts[2], context
                assert bulk._ok == single._ok == reference._ok, context
                assert bulk._arena == single._arena, context
                assert list(bulk.watcher_entries()) == \
                    list(single.watcher_entries()), context
                assert bulk.trail == single.trail == reference.trail, context
                assert bulk.trail_lim == single.trail_lim == \
                    reference.trail_lim, context
                database = [bulk.clause_literals(ref)
                            for ref, *_ in bulk.iter_clause_refs()]
                assert database == [clause for clause in reference.clauses
                                    if clause is not None], context
                if batch:
                    assumptions = [
                        rng.choice((-1, 1)) * rng.randint(1, num_vars)
                        for _ in range(rng.randint(0, 2))]
                else:
                    # The decision levels survive, so the solve below can
                    # reuse the trail they hold.
                    assert (bulk.trail, bulk.trail_lim) == levels, context
                    seen["empty_batch_above_root"] += \
                        bool(levels[1] and assumptions)
                results = [outcome(solver, solver.solve(assumptions))
                           for solver in (bulk, single, reference)]
                assert results[0] == results[1] == results[2], context
        # The sample must exercise every rule the loader applies.
        assert all(seen.values()), seen

    @staticmethod
    def _assert_drain_follows_the_order(solver, reference=None, note=""):
        """Backtrack to level 0, then pick and assign (as a decision would,
        without propagating) until every variable is assigned: each pick
        must be the unassigned variable of highest activity, ties to the
        smallest index, and ``reference``'s next pop when one is given."""
        solver._cancel_until(0)
        vals, activity = solver._vals, solver.activity
        while True:
            want = min((var for var in range(1, solver.num_vars + 1)
                        if vals[var] == 0),
                       key=lambda var: (-activity[var], var), default=None)
            got = solver._pick_branch_variable()
            assert got == want, note
            if reference is not None:
                assert got == reference.pop(), note
            if got is None:
                return
            solver.trail_lim.append(len(solver.trail))
            solver._enqueue(got, -1)

    def test_picks_after_searches_and_ensure_vars_follow_the_order(self):
        """After solves have bumped activities (and assigned, popped and
        re-pushed variables), ``prefer`` has raised never-bumped variables
        (before the solves, between them or after ``ensure_vars``), the
        order has been rebuilt mid-trail (as the rescale and the
        stale-entry bound rebuild it) and ``ensure_vars`` has appended new
        variables, successive picks are the unassigned variable of highest
        activity, ties to the smallest index: a brute-force maximum, and
        the legacy heap's pops.  The legacy engine, given the same solves
        and preferences, walks the same search to the same activities."""
        from repro.sat.legacy import LegacyCDCLSolver, _VarOrder

        rng = random.Random(43)
        bumped = mixed = 0
        for case in range(40):
            num_vars = rng.randint(4, 12)
            cnf = CNF(num_vars=num_vars, clauses=[
                [rng.choice((-1, 1)) * v
                 for v in rng.sample(range(1, num_vars + 1), 3)]
                for _ in range(int(4.3 * num_vars))])
            solver, legacy = CDCLSolver(cnf), LegacyCDCLSolver(cnf)

            def prefer(limit):
                chosen = rng.sample(range(1, limit + 1),
                                    rng.randint(1, limit))
                solver.prefer(chosen)
                legacy.prefer(chosen)

            if case % 2:
                prefer(num_vars)
            for _ in range(rng.randint(1, 3)):
                assumptions = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                               for _ in range(rng.randint(0, 2))]
                assert solve_snapshot(solver, solver.solve(assumptions)) == \
                    solve_snapshot(legacy, legacy.solve(assumptions)), \
                    f"case {case}"
            bumped += any(solver.activity)
            if case % 3 == 1:
                prefer(num_vars)  # only the never-bumped ones change
            solver._cancel_until(rng.randint(0, len(solver.trail_lim)))
            solver._order.rebuild()
            grown = num_vars + rng.randint(1, 40)
            solver.ensure_vars(grown)
            legacy.ensure_vars(grown)
            if case % 3 == 2:
                prefer(grown)  # new variables among them
            solver._cancel_until(0)
            activities = [solver.activity[var] for var in range(1, grown + 1)]
            assert activities == [legacy.activity[var]
                                  for var in range(1, grown + 1)], \
                f"case {case}"
            mixed += {0.0, PREFERRED_ACTIVITY} < set(activities)
            reference = _VarOrder(dict(enumerate(activities, start=1)))
            for var in range(1, grown + 1):
                if solver._vals[var] == 0:
                    reference.insert(var)
            self._assert_drain_follows_the_order(solver, reference,
                                                 f"case {case}")
        assert bumped > 20  # most cases search before they grow
        # Bumped, preferred and untouched variables in one order.
        assert mixed > 10, mixed

    def test_activity_rescale_keeps_the_pick_and_the_legacy_trajectory(self):
        """A bump past 1e100 rescales every activity by 1e-100.  Started
        just below that, again before every solve, the arena and legacy
        engines must rescale and still agree solve by solve; every pick of
        both must be the unassigned variable of highest activity, ties to
        the smallest index, and so must every pick of a full drain of the
        arena's order afterwards."""
        from repro.sat.legacy import LegacyCDCLSolver

        def check_picks(solver, unassigned, activity):
            pick = solver._pick_branch_variable

            def checked():
                want = min(unassigned(), default=None,
                           key=lambda var: (-activity(var), var))
                got = pick()
                assert got == want
                return got
            solver._pick_branch_variable = checked

        rng = random.Random(47)
        rescaled = 0
        for case in range(30):
            num_vars = rng.randint(20, 40)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)]
                       for _ in range(int(4.3 * num_vars))]
            arena = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            legacy = LegacyCDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            check_picks(arena, lambda s=arena: [
                var for var in range(1, s.num_vars + 1) if s._vals[var] == 0],
                arena.activity.__getitem__)
            check_picks(legacy, lambda s=legacy: [
                var for var in range(1, s.num_vars + 1)
                if var not in s.assignment],
                lambda var, s=legacy: s.activity.get(var, 0.0))
            for _ in range(6):
                var_inc = 1e100 * VAR_DECAY ** rng.randint(1, 40)
                arena.var_inc = legacy.var_inc = var_inc
                assumptions = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                               for _ in range(rng.randint(0, 2))]
                assert solve_snapshot(arena, arena.solve(assumptions)) == \
                    solve_snapshot(legacy, legacy.solve(assumptions)), \
                    f"case {case}"
                assert arena.var_inc == legacy.var_inc, f"case {case}"
                rescaled += arena.var_inc < var_inc
            self._assert_drain_follows_the_order(arena, note=f"case {case}")
        assert rescaled >= 50, rescaled

    @pytest.mark.parametrize("engine", ["arena", "legacy"])
    def test_unsat_trial_returns_with_kept_levels(self, engine):
        """An assumption solve that is unsat at a conflict on level L
        returns at level L - 1 with a fully propagated trail: every kept
        level is opened by one of its assumptions, and no problem clause
        is false or unit under it.  The next trial (the lex-min pattern:
        the kept prefix, then new literals) re-propagates nothing below
        L."""
        from repro.sat.legacy import LegacyCDCLSolver

        build = CDCLSolver if engine == "arena" else LegacyCDCLSolver
        rng = random.Random(53)
        kept = 0
        for case in range(150):
            num_vars = rng.randint(10, 24)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)]
                       for _ in range(int(rng.uniform(3.5, 4.4) * num_vars))]
            solver = build(CNF(num_vars=num_vars, clauses=clauses))
            # The decision level of every propagation that ends in a
            # conflict; an unsat answer stops at its last one.
            conflicts = []

            def spy(propagate=solver._propagate):
                conflict = propagate()
                conflicts.append(None if conflict is None
                                 else len(solver.trail_lim))
                return conflict

            solver._propagate = spy
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, num_vars + 1), 6)]
            # Skipped: an assumption found false (no level opened, so the
            # last propagation found no conflict) and a conflict at level
            # 0 (the clauses alone are unsat).
            if not solver.solve(assumptions).is_unsat \
                    or not conflicts[-1]:
                continue
            level = conflicts[-1]
            note = f"case {case}"
            assert len(solver.trail_lim) == level - 1, note
            assert solver.propagation_head == len(solver.trail), note
            openers = [solver.trail[index] for index in solver.trail_lim]
            assert openers == [lit for lit in assumptions
                               if lit in openers], note
            assigned = set(solver.trail)
            for clause in clauses:
                if any(lit in assigned for lit in clause):
                    continue
                unassigned = [lit for lit in clause if -lit not in assigned]
                assert len(unassigned) >= 2, (note, clause)
            prefix = list(solver.trail)
            heads = []
            propagate = solver._propagate

            def watched():
                heads.append(solver.propagation_head)
                return propagate()

            solver._propagate = watched
            result = solver.solve(openers + [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 2)])
            assert min(heads) >= len(prefix), note
            if result.is_sat:
                assert solver.trail[:len(prefix)] == prefix, note
            kept += bool(openers)
        assert kept > 20, kept

    def test_cores_are_assumption_subsets_and_engines_agree(self):
        """Random 3-SAT near the threshold, four solves under one or two
        assumptions per instance: the arena and legacy engines walk the
        same search (:func:`solve_snapshot`), and an unsat answer's
        implicit core, the assumptions, is real: the clauses plus the
        assumptions as units are unsat under DPLL (an independent engine)
        and under a fresh legacy solver."""
        from repro.sat.dpll import DPLLSolver
        from repro.sat.legacy import LegacyCDCLSolver

        rng = random.Random(59)
        cores = 0
        for case in range(250):
            num_vars = rng.randint(8, 30)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)]
                       for _ in range(int(rng.uniform(3.5, 4.6) * num_vars))]
            arena = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            legacy = LegacyCDCLSolver(CNF(num_vars=num_vars, clauses=clauses))
            for _ in range(4):
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, num_vars + 1),
                                                   rng.randint(1, 2))]
                result = arena.solve(assumptions)
                assert solve_snapshot(arena, result) == solve_snapshot(
                    legacy, legacy.solve(assumptions)), f"case {case}"
                if not result.is_unsat or not arena._ok:
                    continue
                check = CNF(num_vars=num_vars,
                            clauses=clauses + [[lit] for lit in assumptions])
                assert DPLLSolver(check).solve().is_unsat, f"case {case}"
                assert LegacyCDCLSolver(check).solve().is_unsat, f"case {case}"
                cores += 1
        assert cores > 200, cores

    def test_learned_clauses_retained_across_calls(self):
        rng = random.Random(3)
        # A pigeonhole-flavoured instance that forces real conflicts.
        clauses = _random_clauses(rng, 12, 60)
        solver = CDCLSolver(CNF(num_vars=12, clauses=clauses))
        solver.solve()
        first = solver.learned_count
        solver.solve(assumptions=[1, 2])
        assert solver.learned_count >= first  # never reset between calls


class TestIncrementalSmtSession:
    def test_constraints_accumulate(self):
        session = IncrementalSmtSession()
        hole = bvvar("h", 4)
        session.assert_constraints([bvult(hole, bv(9, 4))])
        first = session.check()
        assert first.is_sat
        session.assert_constraints([bvult(bv(5, 4), hole)])
        second = session.check()
        assert second.is_sat
        assert 5 < second.model["h"] < 9
        session.assert_constraints([bveq(hole, bv(2, 4))])
        assert session.check().is_unsat

    def test_models_are_canonical_lex_min(self):
        # h & 3 == 2 leaves bits 2..3 free; the canonical model zeroes them.
        session = IncrementalSmtSession()
        hole = bvvar("h", 4)
        session.assert_constraints([bveq(bvand(hole, bv(3, 4)), bv(2, 4))])
        assert session.check().model["h"] == 2

    def test_warm_session_matches_fresh_replay(self):
        batches = [
            [bvult(bvvar("h", 6), bv(40, 6))],
            [bvult(bv(17, 6), bvvar("h", 6))],
            [bvne(bvvar("h", 6), bv(20, 6)), bvne(bvvar("h", 6), bv(18, 6))],
        ]
        warm = IncrementalSmtSession()
        warm_models = []
        for batch in batches:
            warm.assert_constraints(batch)
            warm_models.append(warm.check().model.as_dict())
        for upto in range(1, len(batches) + 1):
            fresh = IncrementalSmtSession()
            for batch in batches[:upto]:
                fresh.assert_constraints(batch)
            assert fresh.check().model.as_dict() == warm_models[upto - 1]

    def test_constant_false_constraint_is_root_unsat(self):
        session = IncrementalSmtSession()
        session.assert_constraints([bv(0, 1)])
        assert session.check().is_unsat
        session.assert_constraints([bv(1, 1)])
        assert session.check().is_unsat  # permanently

    def test_expired_deadline_reports_unknown(self):
        session = IncrementalSmtSession()
        session.assert_constraints([bvne(bvvar("h", 4), bv(0, 4))])
        assert session.check(deadline=time.monotonic() - 1.0).is_unknown


class TestLexMinModel:
    def test_canonical_models_equal_brute_force_lex_min(self):
        rng = random.Random(20)
        for case in range(40):
            constraint = random_small_formula(rng)
            assert_canonical_lex_min(constraint, f"case {case}: {constraint!r}")

    @pytest.mark.parametrize("start", [0b1111, 0b0001])
    def test_simulation_witnesses_settle_trials_without_a_solve(self, start):
        # h != 0, minimized from h[0] up.  Simulation zeroes h[0..2] (from
        # 1111 by zeroing each in turn, from 0001 by moving the 1 up a
        # bit), so only h[3], which cannot be zeroed, reaches the solver.
        # Without witnesses, h[0] and h[3] both take a solve.
        blaster = BitBlaster()
        outputs = blaster.blast(bvne(bvvar("h", 4), bv(0, 4)))
        cnf, input_vars = aig_to_cnf(blaster.aig, outputs)
        order = [input_vars[f"h[{i}]"] for i in range(4)]
        solver = CDCLSolver(cnf)
        first = solver.solve([var if start >> i & 1 else -var
                              for i, var in enumerate(order)])
        calls = solver.solve_calls
        model = lex_min_model(solver, order, first.model, blaster.aig, outputs)
        assert solver.solve_calls - calls == 1
        assert [model[var] for var in order] == [False, False, False, True]
        assert cnf.evaluate([None] + [model[var]
                                      for var in range(1, cnf.num_vars + 1)])


def _cnf_digest(cnf, input_vars):
    payload = json.dumps([cnf.num_vars, cnf.clauses,
                          sorted(input_vars.items())])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestCnfLayout:
    """The exact CNF fixes every solver's search trajectory, and with it
    the counters CI pins; these digests hold it clause for clause."""

    def test_candidate_session_cnf_is_pinned(self):
        h, g = bvvar("h", 4), bvvar("g", 4)
        session = IncrementalSmtSession()
        session.assert_constraints([
            bveq(bvand(bvadd(h, g), bv(5, 4)), bv(1, 4)),
            bvult(bvmul(h, bv(3, 4)), bvadd(g, bv(9, 4))),
            bveq(bvxor(bvadd(h, g), g), bv(6, 4)),
        ])
        assert (session.cnf.num_vars, session.cnf.num_clauses) == (108, 274)
        # Per-output cones, output by output; encoding the union of the
        # three cones in one sorted pass would give c871c2a04fe3d3da.
        assert _cnf_digest(session.cnf, session.input_vars) \
            == "d9bb575d01cad919"
        assert session.check().model.as_dict() == {"g": 5, "h": 14}
        stats = session.stats()
        assert (stats["propagations"], stats["watcher_visits"]) == (170, 425)

    def test_verify_miter_cnf_is_pinned(self):
        h, g = bvvar("h", 4), bvvar("g", 4)
        blaster = BitBlaster()
        bits = blaster.blast(bvne(bvadd(h, g), bvmul(g, h)))
        cnf, input_vars = aig_to_cnf(blaster.aig, bits)
        assert (cnf.num_vars, cnf.num_clauses) == (102, 251)
        assert _cnf_digest(cnf, input_vars) == "22ed9484b6391aa6"

    def test_aig_loading_matches_clause_loading(self):
        """The candidate session loads its solver straight from the AIG
        (``load_gates``); that must leave the state the clause route
        (``ensure_vars`` + ``add_clauses``) leaves, under every option set,
        for overlapping cones, constant outputs, bare inputs, duplicate
        and complementary outputs."""
        from repro.bv.aig import AIG, FALSE_LIT, TRUE_LIT

        h, g = bvvar("h", 4), bvvar("g", 4)
        batches = [[
            bveq(bvand(bvadd(h, g), bv(5, 4)), bv(1, 4)),
            bvult(bvmul(h, bv(3, 4)), bvadd(g, bv(9, 4))),
            bveq(bvxor(bvadd(h, g), g), bv(6, 4)),
        ]]
        rng = random.Random(44)
        shared = {"a": 4, "b": 3, "c": 2}
        for case in range(48):
            # 1-4 formulas over shared inputs, so the cones overlap.
            batches.append([
                random_small_formula(rng) if case % 2 else
                random_full_expr(rng, shared, 1, rng.randint(2, 4))
                for _ in range(rng.randint(1, 4))])
        circuits = []
        for batch in batches:
            blaster = BitBlaster()
            circuits.append((blaster.aig, [blaster.blast(constraint)[0]
                                           for constraint in batch]))
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        gate = aig.and_gate(a, b ^ 1)
        for outputs in ([FALSE_LIT], [TRUE_LIT], [a], [gate, gate],
                        [gate, gate ^ 1], [TRUE_LIT, b, FALSE_LIT, gate]):
            circuits.append((aig, outputs))
        seen = set()
        for options in ({}, {"reduce_interval": 2, "max_lbd_keep": 0}):
            for index, (aig, outputs) in enumerate(circuits):
                verdict, outcome = assert_aig_loading_matches(
                    aig, outputs, f"circuit {index}, {options}", **options)
                seen.add((verdict, outcome[0]))
        # Satisfiable, refuted by search, and unsat at load time.
        assert seen == {(True, "sat"), (True, "unsat"), (False, "unsat")}


def _assert_modes_equal(monkeypatch, obligations, hole_widths, **kwargs):
    """A default run and one under the most aggressive clause-DB reduction
    must agree on status, hole values, iteration and example counts:
    reduction may only change how the candidate solver searches.  The
    reduced run must delete a learned clause, or the check is vacuous."""
    plain = synthesize(obligations, hole_widths, solver=SmtSolver(seed=0),
                       **kwargs)
    with monkeypatch.context() as patch:
        reduce_aggressively(patch)
        reduced = synthesize(obligations, hole_widths,
                             solver=SmtSolver(seed=0), **kwargs)
    assert reduced.stats["clauses_deleted"] >= 1
    assert reduced.status == plain.status
    assert reduced.hole_values == plain.hole_values
    assert reduced.iterations == plain.iterations
    assert reduced.examples_used == plain.examples_used
    return plain, reduced


class TestIncrementalCegis:
    # The SAT cases also factor 41 * 43 over two extra holes: no candidate
    # query of theirs is settled by propagation alone, so every one learns
    # clauses for the reduced run to delete.
    def test_lut_synthesis_equal_across_modes(self, monkeypatch):
        a, b = bvvar("a", 1), bvvar("b", 1)
        memory = bvvar("mem", 4)
        lut = bvextract(0, 0, bvlshr(memory, zero_extend(bvconcat(b, a), 2)))
        factors, factoring = factoring_constraints(41 * 43)
        plain, _ = _assert_modes_equal(
            monkeypatch, [Obligation(bvxor(a, b), lut)],
            {"mem": 4, **factors}, hole_constraints=factoring)
        assert plain.status == "sat"
        assert plain.hole_values["mem"] == 0b0110

    def test_multi_iteration_threshold_equal_across_modes(self, monkeypatch):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        factors, factoring = factoring_constraints(41 * 43)
        plain, _ = _assert_modes_equal(
            monkeypatch, [Obligation(bvult(x, bv(700, width)), bvult(x, k))],
            {"k": width, **factors}, hole_constraints=factoring,
            random_probes=0, initial_random_examples=0)
        assert plain.status == "sat"
        assert plain.hole_values["k"] == 700
        assert plain.iterations >= 4  # genuinely multi-iteration

    def test_unsat_equal_across_modes(self, monkeypatch):
        # No two factors in (1, 64) multiply to the prime 4057, and only a
        # search that learns clauses refutes every split.
        width = 12
        f0, f1 = bvvar("f0", width), bvvar("f1", width)
        bounds = [bvult(bv(1, width), f0), bvult(f0, bv(64, width)),
                  bvult(bv(1, width), f1), bvult(f1, bv(64, width))]
        plain, _ = _assert_modes_equal(
            monkeypatch, [Obligation(bv(4057, width), bvmul(f0, f1))],
            {"f0": width, "f1": width}, hole_constraints=bounds)
        assert plain.status == "unsat"

    def test_workload_generator_designs_equal_across_modes(
            self, primitive_library, arch_loader, fast_benchmarks,
            monkeypatch):
        """Real workload designs walk the same CEGIS trajectory, counters
        included, on the flat-arena engine and on the legacy one."""
        import repro.smt.solver as smt_solver
        from repro.core.sketch_gen import DesignInterface, generate_sketch
        from repro.core.synthesis import f_lr_star
        from repro.sat.legacy import LegacyCDCLSolver

        def outcome(sketch, design):
            result = f_lr_star(sketch, design.program,
                               at_time=design.pipeline_depth, cycles=1,
                               budget=Budget(60))
            return (result.status, result.hole_values,
                    result.cegis_iterations, result.stats["propagations"],
                    result.stats["candidate_conflicts"])

        checked = 0
        for arch_name in ("intel-cyclone10lp", "lattice-ecp5"):
            architecture = arch_loader(arch_name)
            for bench in fast_benchmarks(3, architecture=arch_name):
                design = verilog_to_behavioral(bench.verilog)
                interface = DesignInterface(
                    input_widths=dict(design.input_widths),
                    output_width=design.output_width)
                sketch = generate_sketch("dsp", architecture, interface,
                                         primitive_library)
                arena = outcome(sketch, design)
                with monkeypatch.context() as patch:
                    patch.setattr(smt_solver, "CDCLSolver", LegacyCDCLSolver)
                    legacy = outcome(sketch, design)
                assert arena == legacy, bench.name
                checked += 1
        assert checked == 6

    def test_hole_preference_is_answer_invisible(self, monkeypatch):
        """Deciding the hole bits first only changes how the candidate
        solver searches: with ``prefer`` a no-op, two Xilinx maps keep
        their status, hole values and Verilog, and their counters move."""
        from repro.engine.session import MappingSession
        from repro.workloads.generator import XILINX_FORMS, Microbenchmark

        def outcomes():
            results = []
            for name, stages in (("preadd_mul_and", 0), ("mul", 1)):
                form = next(f for f in XILINX_FORMS if f.name == name)
                design = Microbenchmark("xilinx-ultrascale-plus", form, 8,
                                        stages, False)
                result = MappingSession(enable_cache=False).map_verilog(
                    design.verilog, arch="xilinx-ultrascale-plus")
                results.append((result.status, result.hole_values,
                                hashlib.sha256(result.verilog.encode())
                                .hexdigest(), result.stats["propagations"]))
            return results

        preferred = outcomes()
        with monkeypatch.context() as patch:
            patch.setattr(CDCLSolver, "prefer", lambda self, variables: None)
            unpreferred = outcomes()
        assert [answer[:3] for answer in preferred] == \
            [answer[:3] for answer in unpreferred]
        assert [answer[0] for answer in preferred] == ["success"] * 2
        assert [answer[3] for answer in preferred] != \
            [answer[3] for answer in unpreferred]

    def test_repeated_counterexample_degrades_to_unknown(self, monkeypatch):
        from repro.smt.equivalence import EquivalenceResult
        from repro.smt.model import Model
        import repro.smt.cegis as cegis_mod

        # A verifier that always returns the same bogus counterexample
        # simulates a buggy candidate solver; synthesize must degrade to
        # "unknown" with a diagnostic instead of raising.
        def broken_equivalence(lhs, rhs, deadline=None, solver=None, **kwargs):
            return EquivalenceResult(
                "different", Model({"a": 0, "b": 0}, {"a": 1, "b": 1}))

        monkeypatch.setattr(cegis_mod, "check_equivalence", broken_equivalence)
        a, b = bvvar("a", 1), bvvar("b", 1)
        hole = bvvar("h", 1)
        result = synthesize([Obligation(bvand(a, b), bvand(bvand(a, b), hole))],
                            {"h": 1})
        assert result.status == "unknown"
        assert "repeated counterexample" in result.diagnostic

    def test_incremental_stats_are_reported(self):
        from repro.engine.stats import COUNTERS

        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        m = bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        result = synthesize([obligation], {"k": width, "m": width},
                            random_probes=0, initial_random_examples=0)
        assert result.succeeded and result.iterations >= 4
        assert result.stats["candidate_time_seconds"] > 0
        assert result.stats["verify_time_seconds"] > 0
        assert result.stats["propagations"] > 0
        # Exactly the spine's counters: nothing the retired persistent
        # sessions used to report.
        assert tuple(result.stats) == COUNTERS

    def test_each_candidate_constraint_is_blasted_once(self, monkeypatch):
        """The run's one candidate session blasts each constraint once:
        every iteration here reaches the SAT layer, so the constraints
        asserted over the run add up to exactly the final query (hole
        constraints plus one obligation per example), none of them
        twice."""
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        m = bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        holes = [bvult(m, k)]
        asserted = []
        real = IncrementalSmtSession.assert_constraints

        def spy(session, constraints):
            asserted.extend(constraints)
            return real(session, constraints)

        monkeypatch.setattr(IncrementalSmtSession, "assert_constraints", spy)
        result = synthesize([obligation], {"k": width, "m": width},
                            hole_constraints=holes, random_probes=0,
                            initial_random_examples=0)
        assert result.succeeded and result.iterations >= 4
        assert result.candidate_strategy == "sat:fresh"
        assert len(asserted) == len(holes) + result.examples_used
        assert len({id(constraint) for constraint in asserted}) == \
            len(asserted)

    def test_budget_flows_into_incremental_mode(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        budget = Budget(timeout_seconds=0.0).start()
        result = synthesize([Obligation(bvult(x, bv(700, width)), bvult(x, k))],
                            {"k": width}, deadline=budget.deadline,
                            random_probes=0, initial_random_examples=0)
        assert result.status == "unknown"


class TestSolverStateEntailment:
    """Invariant 4: whatever a candidate session's solver keeps after its
    check and lex-min trials, every level-0 literal and every live learned
    clause, is entailed by the session's CNF alone, never by the
    assumptions the trials made."""

    def test_candidate_session_state_is_entailed_by_cnf(self):
        from repro.sat.dpll import DPLLSolver

        units = learned = 0
        # Factoring a semiprime: the search and the trials learn clauses.
        for width, product in ((8, 11 * 13), (9, 19 * 23), (9, 13 * 29),
                               (10, 29 * 31)):
            f0, f1 = bvvar("f0", width), bvvar("f1", width)
            one, bound = bv(1, width), bv(1 << (width // 2 + 1), width)
            session = IncrementalSmtSession()
            session.assert_constraints([
                bveq(bvmul(f0, f1), bv(product, width)),
                bvult(one, f0), bvult(f0, bound),
                bvult(one, f1), bvult(f1, bound)])
            assert session.check().is_sat
            solver = session._solver
            assert solver.solve_calls > 1  # the lex-min trials ran
            cnf = session.cnf
            note = f"width {width}, product {product}"
            # CNF entails every level-0 literal iff CNF and the negation
            # of their conjunction (one clause) are unsat.
            root = solver.trail[:solver.trail_lim[0]] if solver.trail_lim \
                else list(solver.trail)
            refute = CNF(num_vars=cnf.num_vars,
                         clauses=cnf.clauses + [[-lit for lit in root]])
            assert DPLLSolver(refute).solve().is_unsat, note
            for ref in solver._learned:
                clause = solver.clause_literals(ref)
                assert DPLLSolver(cnf).solve(
                    [-lit for lit in clause]).is_unsat, (note, clause)
            units += len(root)
            learned += len(solver._learned)
        assert units and learned, (units, learned)
