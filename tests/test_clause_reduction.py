"""Tests for LBD-based clause-database reduction in the CDCL solver.

Learned clauses are entailed by the problem clauses, so deleting them can
change only the search trajectory — never a status, a canonical model, an
unsat core's validity, or a CEGIS outcome.  These tests force reductions
with aggressive knobs and hold the solver to that.  The knobs live on the
solvers alone: the session and CEGIS tests swap the ``CDCLSolver`` that
:mod:`repro.smt.solver` builds for an aggressively reducing one.
"""

import random

import pytest

from repro.bv import bv, bvvar, bvand, bvmul, bvne, bvult
from repro.engine.budget import Budget
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.legacy import LegacyCDCLSolver
from repro.sat.solver import CDCLSolver
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import IncrementalSmtSession, SmtSolver

from _fixtures import factoring_constraints, reduce_aggressively


def _pigeonhole(holes):
    """holes+1 pigeons into ``holes`` holes: unsat and conflict-heavy, the
    cheapest way to force a large learned database."""
    pigeons = holes + 1

    def var(pigeon, hole):
        return pigeon * holes + hole + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return CNF(num_vars=pigeons * holes, clauses=clauses)


def _random_3sat(rng, num_vars):
    """Near the sat/unsat phase transition (m ≈ 4.3·n): conflict-heavy
    enough that even tiny instances learn clauses and trigger reduction."""
    clauses = []
    for _ in range(int(4.3 * num_vars)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def _random_clauses(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        clause = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, num_vars)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return clauses


class TestReductionMechanics:
    def test_reduction_fires_and_bounds_the_database(self):
        solver = CDCLSolver(_pigeonhole(5), reduce_interval=40, max_lbd_keep=2)
        assert solver.solve().is_unsat
        assert solver.reductions > 0
        assert solver.clauses_deleted > 0
        assert solver.learned_alive < solver.learned_count
        assert solver.db_size_floor <= solver.db_size_peak
        # The peak is bounded by what survives a reduce plus one interval's
        # worth of growth — the invariant the benchmark measures at scale.
        assert solver.db_size_peak <= solver.db_size_floor \
            + solver.clauses_deleted + solver.reduce_interval

    def test_reduce_interval_zero_disables_reduction(self):
        solver = CDCLSolver(_pigeonhole(5), reduce_interval=0)
        assert solver.solve().is_unsat
        assert solver.reductions == 0
        assert solver.clauses_deleted == 0
        assert solver.learned_alive == len(solver._learned)

    def test_glue_threshold_protects_everything_when_maximal(self):
        # With the glue tier covering every possible LBD, reduction passes
        # run but may delete nothing.
        solver = CDCLSolver(_pigeonhole(5), reduce_interval=40,
                            max_lbd_keep=10_000)
        assert solver.solve().is_unsat
        assert solver.reductions > 0
        assert solver.clauses_deleted == 0

    def test_deleted_clauses_leave_no_dangling_watches(self):
        solver = CDCLSolver(_pigeonhole(5), reduce_interval=25, max_lbd_keep=1)
        assert solver.solve().is_unsat
        assert solver.clauses_deleted > 0
        # Compaction must leave no tombstones in the arena and every watcher
        # pointing at a live clause that really watches that literal.
        live = {}
        for off, size, _lbd, flags in solver.iter_clause_refs():
            assert flags in (0, 1)  # no deleted-pending entries survive
            live[off] = size
        for lit, off, _blocker in solver.watcher_entries():
            assert off in live
            assert lit in solver.clause_literals(off)[:2]

    def test_reduction_cost_scales_linearly_with_database_size(self):
        """4x learned clauses must cost ~4x reduction time, not ~16x.

        Pins the compacting-GC replacement of the legacy per-victim
        ``list.remove`` detach.  With 10k six-literal clauses over 300
        variables the watch lists average ~100 entries, so a reintroduced
        per-delete watcher scan would scale with (victims x list length)
        — quadratically in database size — while the single-sweep
        compaction stays linear in arena words.
        """
        import time

        def build(learned):
            num_vars = 300
            rng = random.Random(7)
            solver = CDCLSolver(CNF(num_vars=num_vars, clauses=[]),
                                reduce_interval=0, max_lbd_keep=2)
            for _ in range(learned):
                clause = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, num_vars + 1), 6)]
                solver._learn_clause(clause, rng.randint(3, 12))
            return solver

        def reduce_seconds(learned):
            best = float("inf")
            for _ in range(5):
                solver = build(learned)
                start = time.perf_counter()
                solver._reduce_db()
                best = min(best, time.perf_counter() - start)
                assert solver.clauses_deleted >= learned // 2
            return best

        small, large = reduce_seconds(2_500), reduce_seconds(10_000)
        # Linear scaling predicts 4x; 9x leaves headroom for timer noise
        # while still failing hard on quadratic (~16x) behaviour.
        assert large <= max(small, 1e-4) * 9.0, (small, large)

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            CDCLSolver(reduce_interval=-1)
        with pytest.raises(ValueError):
            CDCLSolver(max_lbd_keep=-1)


class TestReductionSoundness:
    def test_post_reduce_add_clause_and_assumptions_match_fresh(self):
        rng = random.Random(23)
        reduced_runs = 0
        for _ in range(40):
            num_vars = rng.randint(8, 12)
            clauses = _random_3sat(rng, num_vars)
            warm = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses),
                              reduce_interval=2, max_lbd_keep=0)
            warm.solve()
            extra = _random_clauses(rng, num_vars, rng.randint(1, 4))
            for clause in extra:
                warm.add_clause(clause)
            fresh = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses + extra))
            warm_result, fresh_result = warm.solve(), fresh.solve()
            assert warm_result.status == fresh_result.status
            if warm_result.is_sat:
                assignment = [None] + [warm_result.model[v]
                                       for v in range(1, num_vars + 1)]
                assert CNF(num_vars=num_vars,
                           clauses=clauses + extra).evaluate(assignment)
            assumptions = [rng.randint(1, num_vars)
                           * (1 if rng.random() < 0.5 else -1)
                           for _ in range(rng.randint(1, 3))]
            with_units = clauses + extra + [[lit] for lit in assumptions]
            expected = CDCLSolver(CNF(num_vars=num_vars,
                                      clauses=with_units)).solve().status
            assert warm.solve(assumptions).status == expected
            if warm.reductions:
                reduced_runs += 1
        assert reduced_runs > 0  # the sample must actually exercise reduction

    def test_cores_remain_valid_after_reduction(self):
        """An unsat answer under assumptions on a reduced database is
        genuine: its implicit core, every assumption, is unsat with the
        clauses under the legacy engine and DPLL."""
        rng = random.Random(31)
        cores_seen = 0
        for _ in range(60):
            num_vars = rng.randint(6, 10)
            clauses = _random_3sat(rng, num_vars)
            solver = CDCLSolver(CNF(num_vars=num_vars, clauses=clauses),
                                reduce_interval=2, max_lbd_keep=0)
            solver.solve()  # warm up and likely reduce
            assumptions = []
            for v in rng.sample(range(1, num_vars + 1), min(3, num_vars)):
                assumptions.append(v if rng.random() < 0.5 else -v)
            result = solver.solve(assumptions=assumptions)
            if not result.is_unsat:
                continue
            strengthened = CNF(num_vars=num_vars,
                               clauses=clauses + [[lit] for lit in assumptions])
            assert LegacyCDCLSolver(strengthened).solve().is_unsat
            # DPLL is an independent engine: CDCL cannot vouch for itself.
            assert DPLLSolver(strengthened).solve().is_unsat
            cores_seen += 1
        assert cores_seen > 0

    def test_statuses_match_an_unreduced_solver_on_random_cnfs(self):
        rng = random.Random(47)
        for _ in range(60):
            num_vars = rng.randint(3, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(4, 40))
            cnf = CNF(num_vars=num_vars, clauses=clauses)
            reduced = CDCLSolver(cnf, reduce_interval=1, max_lbd_keep=0).solve()
            unreduced = CDCLSolver(cnf, reduce_interval=0).solve()
            assert reduced.status == unreduced.status


class TestSessionReduction:
    def test_smt_session_reduction_preserves_canonical_models(
            self, monkeypatch):
        _, factoring = factoring_constraints(41 * 43)
        batches = [
            [bvult(bvvar("h", 6), bv(40, 6))],
            [bvult(bv(17, 6), bvvar("h", 6))],
            [bvne(bvvar("h", 6), bv(20, 6)), bvne(bvvar("h", 6), bv(18, 6))],
            factoring,
        ]
        aggressive = IncrementalSmtSession()
        plain = IncrementalSmtSession()
        for batch in batches:
            aggressive.assert_constraints(batch)
            plain.assert_constraints(batch)
            with monkeypatch.context() as patch:
                reduce_aggressively(patch)
                lhs = aggressive.check()
            rhs = plain.check()
            assert lhs.status == rhs.status
            assert lhs.model.as_dict() == rhs.model.as_dict()
        # The factoring batch makes the last check learn, and reduce.
        assert aggressive.stats()["clauses_deleted"] > 0
        assert plain.stats()["clauses_deleted"] == 0


class TestCegisModeEqualityUnderReduction:
    """CEGIS with every solver :mod:`repro.smt.solver` builds reducing
    aggressively (``reduce_aggressively``) against default runs."""

    def _interval_instance(self, width=10):
        """A 13-iteration run whose every candidate query also factors
        41 * 43, so each iteration's candidate solver learns clauses."""
        x, k, m = bvvar("x", width), bvvar("k", width), bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        factors, factoring = factoring_constraints(41 * 43)
        return [obligation], {"k": width, "m": width, **factors}, factoring

    def test_mid_run_reduction_leaves_the_run_identical(self, monkeypatch):
        obligations, holes, constraints = self._interval_instance()
        baseline = synthesize(obligations, holes,
                              hole_constraints=constraints,
                              solver=SmtSolver(seed=0),
                              random_probes=0, initial_random_examples=0)
        assert baseline.succeeded and baseline.iterations >= 4
        reduce_aggressively(monkeypatch)
        result = synthesize(obligations, holes, hole_constraints=constraints,
                            solver=SmtSolver(seed=0),
                            random_probes=0, initial_random_examples=0)
        assert result.stats["clauses_deleted"] >= 1
        assert result.status == baseline.status
        assert result.hole_values == baseline.hole_values
        assert result.iterations == baseline.iterations
        assert result.examples_used == baseline.examples_used

    def _semiprime_instance(self, width=12):
        """Factoring a semiprime forces real conflicts, and so learned
        clauses, in the candidate solver."""
        h1, h2 = bvvar("h1", width), bvvar("h2", width)
        return ([Obligation(bv(3599, width), bvmul(h1, h2))],
                {"h1": width, "h2": width},
                [bvult(h1, bv(64, width)), bvult(h2, bv(64, width)),
                 bvult(bv(1, width), h1), bvult(bv(1, width), h2)])

    def test_reduction_telemetry_flows_into_the_result(self, monkeypatch):
        obligations, holes, constraints = self._semiprime_instance()
        with monkeypatch.context() as patch:
            reduce_aggressively(patch)
            result = synthesize(obligations, holes,
                                hole_constraints=constraints,
                                solver=SmtSolver(seed=0), random_probes=0,
                                initial_random_examples=0)
        assert result.succeeded
        assert result.stats["db_size_peak"] > 0
        assert result.stats["clauses_deleted"] > 0
        # At default (patient) knobs this instance never triggers a
        # reduction, so the deletion counter stays zero.
        patient = synthesize(obligations, holes, hole_constraints=constraints,
                             solver=SmtSolver(seed=0), random_probes=0,
                             initial_random_examples=0)
        assert patient.stats["db_size_peak"] > 0
        assert patient.stats["clauses_deleted"] == 0

    def test_throwaway_session_telemetry_is_counted(self, monkeypatch):
        # CEGIS builds a throwaway candidate session per iteration; its
        # reduction work must be folded into the result.
        obligations, holes, constraints = self._semiprime_instance()
        reduce_aggressively(monkeypatch)
        result = synthesize(
            obligations, holes, hole_constraints=constraints,
            solver=SmtSolver(seed=0), random_probes=0,
            initial_random_examples=0)
        assert result.succeeded
        assert result.hole_values in ({"h1": 59, "h2": 61},
                                      {"h1": 61, "h2": 59})
        assert result.stats["db_size_peak"] > 0
        assert result.stats["clauses_deleted"] > 0

    def test_budget_still_degrades_cleanly_with_reduction(self, monkeypatch):
        obligations, holes, constraints = self._interval_instance()
        budget = Budget(timeout_seconds=0.0).start()
        reduce_aggressively(monkeypatch)
        result = synthesize(obligations, holes, hole_constraints=constraints,
                            deadline=budget.deadline, random_probes=0,
                            initial_random_examples=0)
        assert result.status == "unknown"
