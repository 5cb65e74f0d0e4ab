"""Tests for the incremental solving layer: incremental CDCL, the shared
AIG/CNF context, the candidate SMT session, and CEGIS on top of them.

The load-bearing property throughout is *canonicity*: a warm solver and a
fresh one must produce exactly the same answers — statuses always, and
models canonically (the session refines every model to the
lexicographically smallest input assignment, which is a property of the
formula rather than of the search)."""

import random
import time

import pytest

from repro.bv import (
    bv, bvvar, bvmul, bvand, bvor, bvxor, bvite, bveq, bvne, bvult,
    bvconcat, bvextract, bvlshr, zero_extend,
)
from repro.bv.bitblast import IncrementalContext
from repro.engine.budget import Budget
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
                    result.propagations, result.restarts, solver.last_core)

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
                # Now and then nothing is added, as in a warm session's
                # later syncs, and the same assumptions are solved again.
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
    """A default run and one under the most aggressive clause-DB reduction
    must agree on status, hole values, iteration and example counts:
    reduction may only change how the candidate solver searches."""
    plain = synthesize(obligations, hole_widths, solver=SmtSolver(seed=0),
                       **kwargs)
    reduced = synthesize(obligations, hole_widths, solver=SmtSolver(seed=0),
                         reduce_interval=2, max_lbd_keep=0, **kwargs)
    assert reduced.status == plain.status
    assert reduced.hole_values == plain.hole_values
    assert reduced.iterations == plain.iterations
    assert reduced.examples_used == plain.examples_used
    return plain, reduced


class TestIncrementalCegis:
    def test_lut_synthesis_equal_across_modes(self):
        a, b = bvvar("a", 1), bvvar("b", 1)
        memory = bvvar("mem", 4)
        lut = bvextract(0, 0, bvlshr(memory, zero_extend(bvconcat(b, a), 2)))
        plain, _ = _assert_modes_equal(
            [Obligation(bvxor(a, b), lut)], {"mem": 4})
        assert plain.status == "sat"
        assert plain.hole_values["mem"] == 0b0110

    def test_multi_iteration_threshold_equal_across_modes(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        plain, _ = _assert_modes_equal(
            [Obligation(bvult(x, bv(700, width)), bvult(x, k))], {"k": width},
            random_probes=0, initial_random_examples=0)
        assert plain.status == "sat"
        assert plain.hole_values == {"k": 700}
        assert plain.iterations >= 4  # genuinely multi-iteration

    def test_unsat_equal_across_modes(self):
        width = 8
        a, b, c = bvvar("a", width), bvvar("b", width), bvvar("c", width)
        selector = bvvar("sel", 1)
        product = bvmul(a, b)
        sketch = bvite(selector, bvand(product, c), bvor(product, c))
        plain, _ = _assert_modes_equal(
            [Obligation(bvxor(bvmul(a, b), c), sketch)], {"sel": 1})
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
                               timeout_seconds=60, solver=SmtSolver(seed=0))
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

    def test_budget_flows_into_incremental_mode(self):
        width = 10
        x, k = bvvar("x", width), bvvar("k", width)
        budget = Budget(timeout_seconds=0.0).start()
        result = synthesize([Obligation(bvult(x, bv(700, width)), bvult(x, k))],
                            {"k": width}, budget=budget,
                            random_probes=0, initial_random_examples=0)
        assert result.status == "unknown"


class TestCoreSoundness:
    """Every core the candidate session's solver emits must be genuinely
    unsat when re-solved from scratch."""

    @staticmethod
    def _assert_core_unsat_from_scratch(cnf, core, context_label):
        from repro.sat.dpll import DPLLSolver

        fresh = CNF(num_vars=cnf.num_vars,
                    clauses=[list(c) for c in cnf.clauses]
                            + [[lit] for lit in core])
        assert CDCLSolver(fresh).solve().is_unsat, context_label
        # DPLL is an independent engine: a CDCL bug cannot vouch for itself.
        assert DPLLSolver(fresh).solve().is_unsat, context_label

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
