"""Tests for the unified mapping-engine layer: the Budget/Outcome model,
the synthesis cache and the MappingSession lifecycle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    DEFAULT_TIMEOUTS,
    Budget,
    SynthesisCache,
    laptop_timeouts,
    mapping_status,
    program_fingerprint,
    timeout_for,
)
from repro.engine import stats
from repro.engine.session import MappingSession
from repro.harness.runner import ExperimentConfig, map_benchmark
from repro.hdl.behavioral import verilog_to_behavioral
from repro.workloads.generator import (
    INTEL_FORMS,
    LATTICE_FORMS,
    Microbenchmark,
)

from _fixtures import ADD4, AND4, MUL8


def _module_header(verilog: str):
    """The module name and port names of a mapped module's header."""
    head, _, _ = verilog.partition(");")
    first, *ports = head.splitlines()
    return first.split()[1], [port.split()[-1].rstrip(",") for port in ports]


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
                                     timeout_seconds=0.0, validate=False)
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

    def test_cache_respects_budget_key(self):
        session = MappingSession()
        session.map_verilog(AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        other = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=61)
        assert not other.cache_hit

    def test_cache_can_be_disabled(self):
        """An ``enable_cache=False`` session caches nothing, whatever a
        request's ``use_cache`` says."""
        session = MappingSession(enable_cache=False)
        session.map_verilog(AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        again = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=60)
        assert not again.cache_hit
        design = verilog_to_behavioral(AND4)
        for use_cache in (True, False):
            again = session.map_design(design, template="bitwise", arch="sofa",
                                       timeout_seconds=60, use_cache=use_cache)
            assert not again.cache_hit, use_cache
        assert session.cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_use_cache_false_skips_the_cache_for_one_request(self):
        session = MappingSession()
        design = verilog_to_behavioral(AND4)

        def run(use_cache):
            return session.map_design(design, template="bitwise", arch="sofa",
                                      timeout_seconds=60, use_cache=use_cache)

        assert not run(False).cache_hit
        assert session.cache_stats()["entries"] == 0
        assert not run(None).cache_hit
        assert not run(False).cache_hit
        assert run(True).cache_hit

    def test_default_budget_comes_from_engine_table(self, monkeypatch):
        """A map without a timeout hands synthesis the architecture's
        paper budget, started."""
        import repro.engine.session as session_mod

        seen = []
        real = session_mod.f_lr_star

        def spy(*args, budget, **kwargs):
            seen.append((budget.timeout_seconds, budget.started))
            return real(*args, budget=budget, **kwargs)

        monkeypatch.setattr(session_mod, "f_lr_star", spy)
        MappingSession().map_verilog(MUL8, arch="intel-cyclone10lp",
                                     validate=False)
        assert seen == [(DEFAULT_TIMEOUTS["intel-cyclone10lp"], True)]

    @pytest.mark.parametrize("inputs", ["a, b", "b, a"])
    def test_mapped_module_keeps_the_designs_ports(self, inputs):
        """The mapped module can replace the design port for port: its
        clock, inputs (in declared order) and output keep their names."""
        source = (f"module m(input i_clk, input [7:0] {inputs}, "
                  "output reg [15:0] o); "
                  "always @(posedge i_clk) o <= a * b; endmodule")
        result = MappingSession().map_verilog(source, template="dsp",
                                              arch="intel-cyclone10lp",
                                              validate=False)
        assert result.status == "success"
        name, ports = _module_header(result.verilog)
        assert (name, ports) == ("m_impl", ["i_clk", *inputs.split(", "),
                                            "o"])
        assert "(i_clk)" in result.verilog and "(clk)" not in result.verilog
        assert "  assign o = " in result.verilog

    @pytest.mark.parametrize("source", [
        # A data input named clk: the DSP's clock needs another port.
        "module m(input [7:0] clk, b, output [7:0] out);"
        " assign out = clk * b; endmodule",
        # Ports named like the lowering's internal wires.
        "module m(input [7:0] w_1, b, output [7:0] w_3);"
        " assign w_3 = w_1 * b; endmodule",
    ], ids=["data-input-named-clk", "ports-named-like-wires"])
    def test_mapped_module_never_reuses_a_port_name(self, source):
        result = MappingSession().map_verilog(source, template="dsp",
                                              arch="intel-cyclone10lp",
                                              validate=False)
        assert result.status == "success"
        _, ports = _module_header(result.verilog)
        wires = [line.split()[-1].rstrip(";")
                 for line in result.verilog.splitlines()
                 if line.startswith("  wire ")]
        assert len(set(ports)) == len(ports)
        assert not set(ports) & set(wires), (ports, wires)

    def test_cache_hit_is_named_after_the_design_that_asked(self):
        """Sign twins share one cache entry; each gets its own module."""
        session = MappingSession()
        form = next(form for form in INTEL_FORMS if form.name == "mul")
        mapped = []
        for signed in (True, False):
            twin = Microbenchmark("intel-cyclone10lp", form, 8, 0, signed)
            result = session.map_verilog(twin.verilog, template="dsp",
                                         arch="intel-cyclone10lp",
                                         validate=False)
            mapped.append((result.cache_hit, result.design_name,
                           _module_header(result.verilog)[0]))
        assert mapped == [(False, "mul_w8_p0_s", "mul_w8_p0_s_impl"),
                          (True, "mul_w8_p0_u", "mul_w8_p0_u_impl")]

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

    @pytest.mark.parametrize("cold", ["reset", "subprocess"])
    def test_substitution_memo_hits_map_like_a_fresh_process(self,
                                                             monkeypatch,
                                                             cold):
        """A Lattice design mapped after another form with the same
        interface and depth hits the substitution memo on that earlier
        map's sketch, and its record, counters included, equals the one it
        gets as the first map after ``reset_intern_table()`` or in a new
        interpreter."""
        import repro.smt.cegis as cegis
        from repro.bv.ast import reset_intern_table
        from repro.bv.simplify import _SUBSTITUTE_MEMO

        forms = {form.name: form for form in LATTICE_FORMS}
        first, second = (Microbenchmark("lattice-ecp5", forms[name], 8, 1,
                                        False)
                         for name in ("mul_and", "mul_or"))
        substitute = cegis.substitute
        calls = 0

        def counting(expr, bindings):
            nonlocal calls
            calls += 1
            return substitute(expr, bindings)

        reset_intern_table()
        with MappingSession(enable_cache=False) as session:
            map_benchmark(session, first)
            entries = len(_SUBSTITUTE_MEMO)
            monkeypatch.setattr(cegis, "substitute", counting)
            warm = map_benchmark(session, second).comparable()
        # Some of the second map's substitutions were hits (added nothing).
        assert 0 < len(_SUBSTITUTE_MEMO) - entries < calls

        if cold == "reset":
            reset_intern_table()
            with MappingSession(enable_cache=False) as session:
                fresh = map_benchmark(session, second).comparable()
        else:
            script = (
                "import json, sys\n"
                "from repro.engine.session import MappingSession\n"
                "from repro.harness.runner import map_benchmark\n"
                "from repro.workloads.generator import Microbenchmark\n"
                "with MappingSession(enable_cache=False) as session:\n"
                "    record = map_benchmark(session, Microbenchmark."
                "from_dict(json.loads(sys.argv[1])))\n"
                "print(json.dumps(record.comparable()))\n")
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[1] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", script, json.dumps(second.to_dict())],
                env=env, capture_output=True, text=True, timeout=120)
            assert completed.returncode == 0, completed.stderr
            fresh = json.loads(completed.stdout)
            warm = json.loads(json.dumps(warm))
        assert warm["outcome"] == "success"
        assert warm == fresh
