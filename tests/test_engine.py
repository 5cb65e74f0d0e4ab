"""Tests for the unified mapping-engine layer: the Budget/Outcome model,
the solver-backend registry, the concurrent portfolio race, the synthesis
cache and the MappingSession lifecycle."""

import threading
import time

import pytest

from repro.engine import (
    DEFAULT_TIMEOUTS,
    Budget,
    SolverBackend,
    SynthesisCache,
    available_backends,
    backend_by_name,
    default_backend_names,
    laptop_timeouts,
    mapping_status,
    program_fingerprint,
    register_backend,
    timeout_for,
    unregister_backend,
)
from repro.engine import stats
from repro.engine.session import MappingSession
from repro.harness.runner import ExperimentConfig, run_lakeroad
from repro.hdl.behavioral import verilog_to_behavioral
from repro.sat.cnf import CNF
from repro.sat.portfolio import SatPortfolio, default_portfolio
from repro.sat.solver import SatResult
from repro.workloads import sample_workloads

from _fixtures import ADD4, AND4, MUL8


class TestBudget:
    def test_paper_timeouts_are_the_single_source(self):
        assert DEFAULT_TIMEOUTS["xilinx-ultrascale-plus"] == 120.0
        assert DEFAULT_TIMEOUTS["lattice-ecp5"] == 40.0
        assert DEFAULT_TIMEOUTS["intel-cyclone10lp"] == 20.0

    def test_laptop_scale_derives_from_paper_table(self):
        laptop = laptop_timeouts()
        for arch, seconds in DEFAULT_TIMEOUTS.items():
            assert laptop[arch] == pytest.approx(seconds / 2)

    def test_experiment_config_defaults_derive_from_engine(self):
        config = ExperimentConfig()
        assert config.timeout_for("xilinx-ultrascale-plus") == \
            pytest.approx(laptop_timeouts()["xilinx-ultrascale-plus"])

    def test_timeout_for_prefers_overrides(self):
        assert timeout_for("sofa", {"sofa": 7.0}) == 7.0
        assert timeout_for("sofa") == DEFAULT_TIMEOUTS["sofa"]
        assert timeout_for("never-heard-of-it", default=3.0) == 3.0

    def test_budget_lifecycle(self):
        budget = Budget(timeout_seconds=100.0)
        assert not budget.started
        budget.start()
        assert budget.started
        assert 0 < budget.remaining() <= 100.0
        assert not budget.expired()

    def test_budget_start_is_idempotent(self):
        budget = Budget(timeout_seconds=1.0).start()
        first_deadline = budget.deadline
        budget.start()
        assert budget.deadline == first_deadline

    def test_unlimited_budget_never_expires(self):
        budget = Budget.unlimited().start()
        assert budget.deadline is None
        assert budget.remaining() is None
        assert not budget.expired()

    def test_for_architecture_override_wins(self):
        assert Budget.for_architecture("xilinx-ultrascale-plus",
                                       override=5.0).timeout_seconds == 5.0
        assert Budget.for_architecture("xilinx-ultrascale-plus").timeout_seconds == 120.0

    def test_mapping_status_conversion(self):
        assert mapping_status("sat") == "success"
        assert mapping_status("unsat") == "unsat"
        assert mapping_status("unknown") == "timeout"
        with pytest.raises(ValueError):
            mapping_status("maybe")


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"cdcl", "dpll"} <= set(available_backends())
        assert default_backend_names()[0] == "cdcl"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            backend_by_name("bitwuzla")

    def test_registered_backend_joins_default_portfolio(self):
        def run(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unknown")

        backend = SolverBackend("test-noop", run, default=True)
        register_backend(backend)
        try:
            assert "test-noop" in [m.name for m in default_portfolio()]
            with pytest.raises(ValueError):
                register_backend(SolverBackend("test-noop", run))
        finally:
            unregister_backend("test-noop")
        assert "test-noop" not in available_backends()

    def test_cancellation_detection(self):
        named = SolverBackend(
            "test-named",
            lambda c, d, a, should_stop=None: SatResult(status="unknown"),
            default=False)
        keyword_only = SolverBackend(
            "test-kwonly",
            lambda c, d, a, *, should_stop=None: SatResult(status="unknown"),
            default=False)
        legacy = SolverBackend("test-legacy", lambda c, d, a: SatResult(status="unknown"),
                               default=False)
        other_fourth = SolverBackend(
            "test-other", lambda c, d, a, verbose=False: SatResult(status="unknown"),
            default=False)
        assert named.supports_cancellation
        assert keyword_only.supports_cancellation
        assert not legacy.supports_cancellation
        assert not other_fourth.supports_cancellation
        # The hook is passed by keyword, so even keyword-only signatures work.
        assert keyword_only.solve(CNF(clauses=[[1]]), None, (), lambda: False).is_unknown


class TestPortfolioRace:
    def _satisfiable_cnf(self):
        return CNF(clauses=[[1, 2], [-1], [-2, 3]])

    def test_fast_member_beats_slow_member(self):
        """The race returns the first definitive answer without waiting for
        (or being confused by) a slower member."""
        slow_calls = []

        def fast(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unsat")

        def slow(cnf, deadline, assumptions, should_stop=None):
            slow_calls.append(time.monotonic())
            for _ in range(200):
                if should_stop is not None and should_stop():
                    return SatResult(status="unknown")
                time.sleep(0.01)
            return SatResult(status="sat", model={})

        portfolio = SatPortfolio([
            SolverBackend("slow", slow),
            SolverBackend("fast", fast),
        ])
        start = time.monotonic()
        result, winner = portfolio.solve(self._satisfiable_cnf())
        elapsed = time.monotonic() - start
        assert winner == "fast"
        assert result.is_unsat
        # The slow member (2 s of sleeping) must not gate the return.
        assert elapsed < 1.0
        assert portfolio.win_counts() == {"fast": 1}

    def test_staggered_member_never_starts_when_race_is_decided(self):
        started = []

        def fast(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="sat", model={})

        def lazy(cnf, deadline, assumptions, should_stop=None):
            started.append(True)
            return SatResult(status="sat", model={})

        portfolio = SatPortfolio([
            SolverBackend("fast", fast),
            SolverBackend("lazy", lazy, stagger=30.0),
        ])
        result, winner = portfolio.solve(self._satisfiable_cnf())
        assert winner == "fast" and result.is_sat
        assert not started

    def test_unknown_members_do_not_win(self):
        def unknown(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unknown")

        def eventually(cnf, deadline, assumptions, should_stop=None):
            time.sleep(0.05)
            return SatResult(status="sat", model={})

        portfolio = SatPortfolio([
            SolverBackend("unknown", unknown),
            SolverBackend("eventually", eventually),
        ])
        result, winner = portfolio.solve(self._satisfiable_cnf())
        assert winner == "eventually"
        assert result.is_sat

    def test_crashing_member_loses_race(self):
        def crash(cnf, deadline, assumptions, should_stop=None):
            raise RuntimeError("boom")

        def steady(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unsat")

        portfolio = SatPortfolio([
            SolverBackend("crash", crash),
            SolverBackend("steady", steady),
        ])
        result, winner = portfolio.solve(self._satisfiable_cnf())
        assert winner == "steady"
        assert result.is_unsat

    def test_all_members_crashing_raises(self):
        """A systematic bug must surface, not masquerade as a timeout."""
        def crash(cnf, deadline, assumptions, should_stop=None):
            raise RuntimeError("boom")

        portfolio = SatPortfolio([
            SolverBackend("crash-a", crash),
            SolverBackend("crash-b", crash),
        ])
        with pytest.raises(RuntimeError, match="boom"):
            portfolio.solve(self._satisfiable_cnf())

    def test_stagger_capped_at_half_remaining_budget(self):
        """A staggered fallback still joins the race when the budget is
        smaller than its configured head start."""
        def unknown(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unknown")

        def fallback(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="sat", model={})

        portfolio = SatPortfolio([
            SolverBackend("primary", unknown),
            SolverBackend("fallback", fallback, stagger=60.0),
        ])
        result, winner = portfolio.solve(self._satisfiable_cnf(),
                                         deadline=time.monotonic() + 1.0)
        assert winner == "fallback"
        assert result.is_sat

    def test_single_member_runs_on_the_calling_thread(self):
        callers = []

        def observed(cnf, deadline, assumptions, should_stop=None):
            callers.append(threading.current_thread())
            return SatResult(status="unsat")

        portfolio = SatPortfolio([SolverBackend("only", observed)])
        result, winner = portfolio.solve(self._satisfiable_cnf())
        assert result.is_unsat and winner == "only"
        assert callers == [threading.current_thread()]
        assert portfolio.win_counts() == {"only": 1}

    def test_stagger_does_not_hold_timeout_hostage(self):
        """A timing-out query returns at its deadline, not after the
        staggered fallback member's full head start."""
        def unknown(cnf, deadline, assumptions, should_stop=None):
            return SatResult(status="unknown")

        portfolio = SatPortfolio([
            SolverBackend("primary", unknown),
            SolverBackend("fallback", unknown, stagger=30.0),
        ])
        start = time.monotonic()
        result, winner = portfolio.solve(self._satisfiable_cnf(),
                                         deadline=time.monotonic() + 0.2)
        elapsed = time.monotonic() - start
        assert result.is_unknown and winner == "none"
        assert elapsed < 5.0  # far below the 30 s stagger


class TestSynthesisCacheUnit:
    def test_fingerprint_stable_across_parses(self):
        first = verilog_to_behavioral(AND4).program
        second = verilog_to_behavioral(AND4).program
        assert first.ids != second.ids  # fresh builder ids each parse...
        assert program_fingerprint(first) == program_fingerprint(second)

    def test_fingerprint_distinguishes_designs(self):
        and4 = verilog_to_behavioral(AND4).program
        add4 = verilog_to_behavioral(ADD4).program
        assert program_fingerprint(and4) != program_fingerprint(add4)

    def test_lru_eviction(self):
        cache = SynthesisCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1
        assert len(cache) == 2

    def test_counters(self):
        cache = SynthesisCache()
        assert cache.get("missing") is None
        cache.put("key", "value")
        assert cache.get("key") == "value"
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}


class TestMappingSession:
    def test_success_propagates_from_cegis_to_result(self):
        session = MappingSession()
        result = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                     timeout_seconds=60)
        assert result.status == "success"
        assert result.synthesis is not None
        assert result.synthesis.status == "sat"
        assert result.program is not None and result.verilog

    def test_unsat_propagates_from_cegis_to_result(self):
        session = MappingSession()
        result = session.map_verilog(ADD4, template="bitwise", arch="sofa",
                                     timeout_seconds=60)
        assert result.status == "unsat"
        assert result.synthesis is not None
        assert result.synthesis.status == "unsat"
        assert result.program is None

    def test_timeout_propagates_from_cegis_to_result(self):
        session = MappingSession()
        # An already-expired budget forces CEGIS to report unknown, which
        # must surface unchanged as the mapping-level "timeout".
        result = session.map_verilog(MUL8, template="dsp", arch="intel-cyclone10lp",
                                     budget=Budget(timeout_seconds=0.0),
                                     validate=False)
        assert result.status == "timeout"
        assert result.synthesis is not None
        assert result.synthesis.status == "unknown"

    def test_unmappable_template_reports_unsat(self):
        session = MappingSession()
        result = session.map_verilog(MUL8, template="dsp", arch="sofa")
        assert result.status == "unsat"

    def test_cache_hit_returns_identical_result(self):
        session = MappingSession()
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        warm = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.status == cold.status
        assert warm.verilog == cold.verilog
        assert warm.hole_values == cold.hole_values
        assert warm.resources == cold.resources
        assert warm.program is cold.program
        assert session.cache_stats()["hits"] == 1
        assert session.cache_stats()["misses"] >= 1

    def test_cache_hits_are_isolated_from_caller_mutation(self):
        session = MappingSession()
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        cold.hole_values["tampered"] = 1
        cold.verilog = "// tampered"
        warm = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        assert warm.cache_hit
        assert "tampered" not in warm.hole_values
        assert warm.verilog != "// tampered"

    def test_timeout_results_are_not_cached(self):
        """A timeout is wall-clock-dependent; one transient occurrence must
        not become sticky for the whole session."""
        session = MappingSession()
        first = session.map_verilog(MUL8, template="dsp", arch="intel-cyclone10lp",
                                    timeout_seconds=0.0, validate=False)
        assert first.status == "timeout"
        second = session.map_verilog(MUL8, template="dsp", arch="intel-cyclone10lp",
                                     timeout_seconds=0.0, validate=False)
        assert not second.cache_hit
        assert session.cache_stats()["entries"] == 0

    def test_cached_synthesis_outcome_is_isolated(self):
        session = MappingSession()
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        cold.synthesis.hole_values["tampered"] = 1
        cold.resources.luts += 99
        warm = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        assert warm.cache_hit
        assert "tampered" not in warm.synthesis.hole_values
        assert warm.resources.luts == cold.resources.luts - 99

    def test_session_adopts_injected_solvers_portfolio(self):
        from repro.smt.solver import SmtSolver

        solver = SmtSolver()
        session = MappingSession(solver=solver)
        assert session.portfolio is solver.portfolio

    def test_session_maps_with_an_injected_portfolio(self):
        portfolio = SatPortfolio([backend_by_name("cdcl")])
        session = MappingSession(portfolio=portfolio)
        assert session.portfolio is portfolio
        assert session.solver.portfolio is portfolio
        result = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                     timeout_seconds=60)
        assert result.status == "success"

    def test_externally_started_budget_is_never_cached(self):
        """A partially-consumed caller budget must not poison the cache:
        its results are not comparable to a fresh full-window run."""
        session = MappingSession()
        shared = Budget(timeout_seconds=60.0).start()
        first = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    budget=shared)
        assert first.status == "success"
        fresh = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=60)
        assert not fresh.cache_hit  # the shared-budget run was not stored

    def test_cache_respects_budget_key(self):
        session = MappingSession()
        session.map_verilog(AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        other = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=61)
        assert not other.cache_hit

    def test_cache_can_be_disabled(self):
        session = MappingSession(enable_cache=False)
        session.map_verilog(AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        again = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=60)
        assert not again.cache_hit
        assert session.cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_default_budget_comes_from_engine_table(self):
        session = MappingSession()
        budget = session.budget_for("lattice-ecp5")
        assert budget.timeout_seconds == DEFAULT_TIMEOUTS["lattice-ecp5"]

    def test_harness_sweep_hits_cache_on_second_run(self):
        session = MappingSession()
        benchmarks = sample_workloads("intel-cyclone10lp", 2, seed=0, max_width=4)
        config = ExperimentConfig(validate=False)
        first = run_lakeroad(benchmarks, config, session=session)
        second = run_lakeroad(benchmarks, config, session=session)
        assert [r.outcome for r in first] == [r.outcome for r in second]
        assert not any(r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert session.cache_stats()["hits"] == len(benchmarks)

    def test_portfolio_wins_tracked_per_session(self):
        session = MappingSession()
        session.map_verilog(ADD4, template="bitwise", arch="sofa", timeout_seconds=60)
        wins = session.portfolio_wins()
        assert all(isinstance(count, int) for count in wins.values())

    def test_trajectory_does_not_depend_on_earlier_maps(self):
        """A multi-iteration map follows the same CEGIS trajectory whatever
        its session verified before it (the determinism invariant that
        lets sweep workers and served requests equal the serial sweep)."""
        mix = ("module mix(input [7:0] a, b, c, d, output [7:0] out);"
               " assign out = (a & b) ^ (c | d); endmodule")
        maj = ("module maj(input [7:0] a, b, c, output [7:0] out);"
               " assign out = (a & b) | (a & c) | (b & c); endmodule")

        def mix_after(*earlier):
            with MappingSession(enable_cache=False) as session:
                for source in (*earlier, mix):
                    result = session.map_verilog(source, template="bitwise",
                                                 arch="sofa", validate=False)
            return (result.synthesis.cegis_iterations, result.hole_values,
                    stats.comparable(result.stats))

        alone = mix_after()
        assert alone[0] == 30
        assert mix_after(maj) == alone
        assert mix_after(mix) == alone
