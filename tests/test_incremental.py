"""Tests for the incremental solving layer: persistent CDCL, the shared
AIG/CNF context, the incremental SMT session, and incremental CEGIS.

The load-bearing property throughout is *mode equality*: an incremental
(warm, clause-reusing) run must produce exactly the same answers as a
from-scratch run — statuses always, and models canonically (the session
refines every model to the lexicographically smallest input assignment,
which is a property of the formula rather than of the search)."""

import random
import time

import pytest

from repro.bv import (
    bv, bvvar, bvmul, bvand, bvor, bvxor, bvite, bveq, bvne, bvult,
    bvconcat, bvextract, bvlshr, zero_extend,
)
from repro.bv.bitblast import IncrementalContext
from repro.engine.budget import Budget
from repro.engine.session import MappingSession
from repro.hdl.behavioral import verilog_to_behavioral
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import IncrementalSmtSession, SmtSolver


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
            core = solver.last_core
            assert core is not None
            assert set(core) <= set(assumptions)
            check = CDCLSolver(CNF(num_vars=num_vars,
                                   clauses=clauses + [[lit] for lit in core]))
            assert check.solve().is_unsat
            cores_seen += 1
        assert cores_seen > 0  # the sample must actually exercise the path

    def test_solver_reusable_after_assumption_unsat(self):
        cnf = CNF(clauses=[[1, 2], [-1, 2]])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-2]).is_unsat
        assert solver.last_core == [-2]
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

    def test_learned_clauses_retained_across_calls(self):
        rng = random.Random(3)
        # A pigeonhole-flavoured instance that forces real conflicts.
        clauses = _random_clauses(rng, 12, 60)
        solver = CDCLSolver(CNF(num_vars=12, clauses=clauses))
        solver.solve()
        first = solver.learned_count
        solver.solve(assumptions=[1, 2])
        assert solver.learned_count >= first  # never reset between calls

    def test_configuration_knobs_are_validated(self):
        with pytest.raises(ValueError):
            CDCLSolver(branching="magic")
        with pytest.raises(ValueError):
            CDCLSolver(restart_policy="never")

    def test_diversified_configs_agree_on_status(self):
        rng = random.Random(17)
        configs = [
            {},
            {"restart_base": 8, "var_decay": 0.85},
            {"restart_policy": "geometric", "restart_base": 128,
             "default_phase": True},
            {"branching": "static", "phase_saving": False},
        ]
        for _ in range(25):
            num_vars = rng.randint(3, 9)
            clauses = _random_clauses(rng, num_vars, rng.randint(3, 24))
            statuses = {CDCLSolver(CNF(num_vars=num_vars, clauses=clauses),
                                   **config).solve().status
                        for config in configs}
            assert len(statuses) == 1


class TestIncrementalContext:
    def test_literals_are_stable_across_assertions(self):
        context = IncrementalContext()
        hole = bvvar("h", 4)
        context.assert_true(bveq(bvand(hole, bv(3, 4)), bv(1, 4)))
        first = dict(context.input_vars())
        clauses_before = context.cnf.num_clauses
        context.assert_true(bvult(hole, bv(9, 4)))
        second = context.input_vars()
        for name, var in first.items():
            assert second[name] == var  # same bit -> same CNF literal
        # The second obligation only appended clauses; nothing was rebuilt.
        assert context.cnf.num_clauses > clauses_before

    def test_replaying_assertions_reproduces_the_namespace(self):
        constraints = [
            bveq(bvand(bvvar("h", 4), bv(3, 4)), bv(1, 4)),
            bvult(bvvar("h", 4), bv(9, 4)),
            bvne(bvvar("g", 3), bv(0, 3)),
        ]
        incremental = IncrementalContext()
        for constraint in constraints:
            incremental.assert_true(constraint)
        replayed = IncrementalContext()
        for constraint in constraints:
            replayed.assert_true(constraint)
        assert incremental.input_vars() == replayed.input_vars()
        assert incremental.cnf.clauses == replayed.cnf.clauses


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

    def test_restart_preserves_answers(self):
        session = IncrementalSmtSession()
        hole = bvvar("h", 5)
        session.assert_constraints([bvult(bv(6, 5), hole), bvult(hole, bv(30, 5))])
        before = session.check().model["h"]
        session.restart()
        assert session.check().model["h"] == before
        assert session.stats()["solver_restarts"] == 1

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


def _assert_modes_equal(obligations, hole_widths, **kwargs):
    """All four (incremental x incremental_verify) combinations must agree
    on status, hole values, iteration and example counts."""
    results = {}
    for incremental in (False, True):
        for incremental_verify in (False, True):
            results[(incremental, incremental_verify)] = synthesize(
                obligations, hole_widths, incremental=incremental,
                incremental_verify=incremental_verify,
                solver=SmtSolver(seed=0), **kwargs)
    scratch, warm = results[(False, False)], results[(True, False)]
    for key, result in results.items():
        assert result.status == scratch.status, key
        assert result.hole_values == scratch.hole_values, key
        assert result.iterations == scratch.iterations, key
        assert result.examples_used == scratch.examples_used, key
        assert result.incremental is key[0]
        assert result.incremental_verify is key[1]
    assert warm.incremental and not scratch.incremental
    return scratch, warm


class TestIncrementalCegis:
    def test_lut_synthesis_equal_across_modes(self):
        a, b = bvvar("a", 1), bvvar("b", 1)
        memory = bvvar("mem", 4)
        lut = bvextract(0, 0, bvlshr(memory, zero_extend(bvconcat(b, a), 2)))
        scratch, _ = _assert_modes_equal(
            [Obligation(bvxor(a, b), lut)], {"mem": 4})
        assert scratch.status == "sat"
        assert scratch.hole_values["mem"] == 0b0110

    def test_multi_iteration_threshold_equal_across_modes(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        scratch, warm = _assert_modes_equal(
            [Obligation(bvult(x, bv(700, width)), bvult(x, k))], {"k": width},
            random_probes=0, initial_random_examples=0)
        assert scratch.status == "sat"
        assert scratch.hole_values == {"k": 700}
        assert scratch.iterations >= 4  # genuinely multi-iteration

    def test_unsat_equal_across_modes(self):
        width = 8
        a, b, c = bvvar("a", width), bvvar("b", width), bvvar("c", width)
        selector = bvvar("sel", 1)
        product = bvmul(a, b)
        sketch = bvite(selector, bvand(product, c), bvor(product, c))
        scratch, _ = _assert_modes_equal(
            [Obligation(bvxor(bvmul(a, b), c), sketch)], {"sel": 1})
        assert scratch.status == "unsat"

    def test_workload_generator_designs_equal_across_modes(
            self, primitive_library, arch_loader, fast_benchmarks):
        from repro.core.sketch_gen import DesignInterface, generate_sketch
        from repro.core.synthesis import f_lr_star

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
                outcomes = {}
                for incremental in (False, True):
                    for incremental_verify in (False, True):
                        outcomes[(incremental, incremental_verify)] = f_lr_star(
                            sketch, design.program, at_time=design.pipeline_depth,
                            cycles=1, timeout_seconds=60,
                            solver=SmtSolver(seed=0), incremental=incremental,
                            incremental_verify=incremental_verify)
                base = outcomes[(False, False)]
                for key, outcome in outcomes.items():
                    assert outcome.status == base.status, (bench.name, key)
                    assert outcome.hole_values == base.hole_values, \
                        (bench.name, key)
                    assert outcome.cegis_iterations == base.cegis_iterations, \
                        (bench.name, key)
                checked += 1
        assert checked == 6

    def test_mapping_session_incremental_knob(self, mul8_verilog):
        results = {}
        for incremental in (False, True):
            with MappingSession(enable_cache=False,
                                incremental=incremental) as session:
                results[incremental] = session.map_verilog(
                    mul8_verilog, template="dsp", arch="intel-cyclone10lp",
                    timeout_seconds=60)
        assert results[False].status == results[True].status == "success"
        assert results[False].hole_values == results[True].hole_values
        assert results[True].synthesis.incremental
        assert not results[False].synthesis.incremental

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
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        m = bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        result = synthesize([obligation], {"k": width, "m": width},
                            incremental=True, random_probes=0,
                            initial_random_examples=0)
        assert result.succeeded and result.iterations >= 4
        assert result.stats["candidate_time_seconds"] > 0
        # From-scratch mode never retains anything by definition.
        scratch = synthesize([obligation], {"k": width, "m": width},
                             incremental=False, random_probes=0,
                             initial_random_examples=0)
        assert scratch.stats["clauses_retained"] == 0
        assert scratch.stats["solver_restarts"] == 0

    def test_budget_flows_into_incremental_mode(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        budget = Budget(timeout_seconds=0.0).start()
        result = synthesize([Obligation(bvult(x, bv(700, width)), bvult(x, k))],
                            {"k": width}, budget=budget, incremental=True,
                            random_probes=0, initial_random_examples=0)
        assert result.status == "unknown"


class TestSweepEquality:
    def test_parallel_sweep_records_equal_across_modes(self, fast_benchmarks):
        from repro.engine.parallel import SessionSpec, run_sweep
        from repro.harness.runner import ExperimentConfig

        benchmarks = fast_benchmarks(4)
        records = {}
        for incremental in (False, True):
            config = ExperimentConfig(incremental=incremental)
            spec = SessionSpec(incremental=incremental, enable_cache=False)
            result = run_sweep(benchmarks, config, workers=2, session_spec=spec)
            records[incremental] = result.records
        for scratch, warm in zip(records[False], records[True]):
            assert scratch.benchmark == warm.benchmark
            assert scratch.outcome == warm.outcome
            assert scratch.dsps == warm.dsps
            assert scratch.luts == warm.luts
            assert warm.incremental and not scratch.incremental

    def test_parallel_sweep_records_equal_across_verify_modes(
            self, fast_benchmarks):
        from repro.engine.parallel import SessionSpec, run_sweep
        from repro.harness.runner import ExperimentConfig

        benchmarks = fast_benchmarks(4)
        records = {}
        for incremental_verify in (False, True):
            config = ExperimentConfig(incremental_verify=incremental_verify)
            spec = SessionSpec(incremental_verify=incremental_verify,
                               enable_cache=False)
            result = run_sweep(benchmarks, config, workers=2, session_spec=spec)
            records[incremental_verify] = result.records
        for portfolio, warm in zip(records[False], records[True]):
            assert portfolio.benchmark == warm.benchmark
            assert portfolio.outcome == warm.outcome
            assert portfolio.dsps == warm.dsps
            assert portfolio.luts == warm.luts
            assert warm.incremental_verify and not portfolio.incremental_verify


class TestIncrementalVerify:
    def _interval_instance(self, width=10):
        x, k, m = bvvar("x", width), bvvar("k", width), bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        return [obligation], {"k": width, "m": width}

    def test_verify_session_checks_candidates_by_assumption(self):
        from repro.smt.equivalence import IncrementalVerifySession

        width = 8
        x, k = bvvar("x", width), bvvar("k", width)
        obligations = [Obligation(bvult(x, bv(100, width)), bvult(x, k))]
        session = IncrementalVerifySession(obligations, {"k": width},
                                           {"x": width})
        correct = session.check_obligation(0, {"k": 100})
        assert correct.is_unsat  # no counterexample: the candidate is right
        wrong = session.check_obligation(0, {"k": 90})
        assert wrong.is_sat
        # Canonical counterexample: the smallest x with x < 100 but not x < 90.
        assert wrong.model["x"] == 90
        # The context was built once; checking added no clauses.
        assert session.stats()["checks"] == 2

    def test_verify_session_counterexamples_are_canonical(self):
        from repro.smt.equivalence import IncrementalVerifySession

        width = 8
        x, k = bvvar("x", width), bvvar("k", width)
        obligations = [Obligation(bvult(x, bv(100, width)), bvult(x, k))]
        session = IncrementalVerifySession(obligations, {"k": width},
                                           {"x": width})
        for candidate, expected in ((120, 100), (90, 90), (0, 0)):
            result = session.check_obligation(0, {"k": candidate})
            assert result.is_sat
            assert result.model["x"] == expected
        session.restart()
        assert session.check_obligation(0, {"k": 120}).model["x"] == 100
        assert session.stats()["solver_restarts"] == 1

    def test_failure_core_prefix_blocks_the_candidate(self):
        from repro.smt.equivalence import IncrementalVerifySession

        width = 8
        x, k = bvvar("x", width), bvvar("k", width)
        obligations = [Obligation(bvult(x, bv(100, width)), bvult(x, k))]
        session = IncrementalVerifySession(obligations, {"k": width},
                                           {"x": width})
        wrong = session.check_obligation(0, {"k": 90})
        counterexample = {"x": wrong.model["x"]}
        prefix = session.failure_core(0, {"k": 90}, counterexample)
        assert prefix, "a failing candidate must yield a non-trivial core"
        # Every (hole, bit, value) entry matches the refuted candidate.
        for name, bit, value in prefix:
            assert name == "k"
            assert (90 >> bit) & 1 == value

    def test_verify_stats_reported(self):
        obligations, holes = self._interval_instance()
        warm = synthesize(obligations, holes, incremental_verify=True,
                          solver=SmtSolver(seed=0), random_probes=0,
                          initial_random_examples=0)
        assert warm.succeeded and warm.iterations >= 4
        assert warm.incremental_verify
        assert warm.stats["verify_time_seconds"] > 0
        assert warm.stats["cores_pruned"] >= 1  # failures produced pruning cores
        scratch = synthesize(obligations, holes, incremental_verify=False,
                             solver=SmtSolver(seed=0), random_probes=0,
                             initial_random_examples=0)
        assert not scratch.incremental_verify
        assert scratch.stats["cores_pruned"] == 0
        assert scratch.stats["verify_clauses_retained"] == 0

    def test_mapping_session_incremental_verify_knob(self, mul8_verilog):
        results = {}
        for incremental_verify in (False, True):
            with MappingSession(enable_cache=False,
                                incremental_verify=incremental_verify) as session:
                results[incremental_verify] = session.map_verilog(
                    mul8_verilog, template="dsp", arch="intel-cyclone10lp",
                    timeout_seconds=60)
        assert results[False].status == results[True].status == "success"
        assert results[False].hole_values == results[True].hole_values
        assert results[True].synthesis.incremental_verify
        assert not results[False].synthesis.incremental_verify

    def test_budget_flows_into_incremental_verify(self):
        obligations, holes = self._interval_instance()
        budget = Budget(timeout_seconds=0.0).start()
        result = synthesize(obligations, holes, budget=budget,
                            incremental_verify=True, random_probes=0,
                            initial_random_examples=0)
        assert result.status == "unknown"

    def test_const_true_miter_reports_zero_counterexample(self):
        from repro.smt.equivalence import check_equivalence

        # bveq(a, a) folds to constant 1, so the miter against constant 0
        # normalises to constant true: different on *every* assignment.
        # The result must still carry a usable (all-zeros) counterexample —
        # a None here used to crash the CEGIS loop's counterexample
        # extraction.
        a = bvvar("a", 4)
        result = check_equivalence(bveq(a, a), bv(0, 1))
        assert result.is_different
        assert result.strategy == "normalise"
        assert result.counterexample is not None
        assert result.counterexample.get("a", 0) == 0


class TestCoreSoundness:
    """Every core the incremental layers emit must be genuinely unsat when
    re-solved from scratch — a wrong core silently breaks pruning
    completeness (the blocking constraint would cut off live candidates)."""

    @staticmethod
    def _assert_core_unsat_from_scratch(cnf, core, context_label):
        from repro.sat.dpll import DPLLSolver

        fresh = CNF(num_vars=cnf.num_vars,
                    clauses=[list(c) for c in cnf.clauses]
                            + [[lit] for lit in core])
        assert CDCLSolver(fresh).solve().is_unsat, context_label
        # DPLL is an independent engine: a CDCL bug cannot vouch for itself.
        assert DPLLSolver(fresh).solve().is_unsat, context_label

    def test_verification_cores_are_genuinely_unsat(self, monkeypatch):
        import repro.smt.cegis as cegis_mod
        from repro.smt.equivalence import IncrementalVerifySession

        audits = []

        class AuditedSession(IncrementalVerifySession):
            def check_obligation(self, index, hole_values, deadline=None):
                result = IncrementalVerifySession.check_obligation(
                    self, index, hole_values, deadline)
                if result.is_unsat and self._solver.last_core is not None:
                    audits.append((self.context.cnf,
                                   list(self._solver.last_core)))
                return result

            def failure_core(self, index, hole_values, counterexample,
                             deadline=None):
                prefix = IncrementalVerifySession.failure_core(
                    self, index, hole_values, counterexample, deadline)
                if prefix is not None and self._solver.last_core is not None:
                    audits.append((self.context.cnf,
                                   list(self._solver.last_core)))
                return prefix

        monkeypatch.setattr(cegis_mod, "IncrementalVerifySession",
                            AuditedSession)
        width = 10
        x, k, m = bvvar("x", width), bvvar("k", width), bvvar("m", width)
        obligation = Obligation(
            bvand(bvult(x, bv(700, width)), bvult(bv(300, width), x)),
            bvand(bvult(x, k), bvult(m, x)))
        result = synthesize([obligation], {"k": width, "m": width},
                            incremental_verify=True,
                            solver=SmtSolver(seed=0, random_probes=0),
                            random_probes=0, initial_random_examples=0)
        assert result.succeeded
        # Both the final equivalence proof and every failure core audit.
        assert len(audits) >= result.stats["cores_pruned"] >= 1
        for cnf, core in audits:
            self._assert_core_unsat_from_scratch(cnf, core, "verification core")

    def test_candidate_session_cores_are_genuinely_unsat(self):
        rng = random.Random(41)
        audited = 0
        for _ in range(12):
            width = rng.randint(3, 6)
            hole = bvvar("h", width)
            session = IncrementalSmtSession()
            session.assert_constraints([
                bvult(hole, bv(rng.randint(2, (1 << width) - 1), width)),
                bvne(hole, bv(rng.randrange(1 << width), width)),
            ])
            check = session.check()
            solver = session._solver
            assert solver is not None
            bit_vars = list(session.context.input_vars().values())
            for _ in range(8):
                assumptions = [var if rng.random() < 0.5 else -var
                               for var in rng.sample(bit_vars,
                                                     rng.randint(1, len(bit_vars)))]
                outcome = solver.solve(assumptions)
                if not outcome.is_unsat:
                    continue
                core = solver.last_core
                assert core is not None
                assert set(core) <= set(assumptions)
                self._assert_core_unsat_from_scratch(
                    session.context.cnf, core, "candidate-session core")
                audited += 1
        assert audited > 0  # the sample must actually exercise the path
