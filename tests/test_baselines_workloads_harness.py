"""Tests for the baseline mappers, the workload enumeration, the experiment
harness and the CLI."""

import pytest

from repro.baselines import (
    AbcLutMapper,
    SotaIntelMapper,
    SotaLatticeMapper,
    SotaXilinxMapper,
    YosysLikeMapper,
    analyze_design,
    sota_for,
)
from repro.bv import bvadd, bvand, bvmul, bvvar
from repro.cli import build_parser, main
from repro.harness.experiments import (
    default_benchmarks,
    extensibility,
    figure6_completeness,
    figure6_timing,
    figure7_histogram,
    render_completeness_table,
    render_table1,
    render_timing_table,
    resource_reduction,
    table1_primitives,
)
from repro.harness.runner import ExperimentConfig, MappingRecord, run_baselines
from repro.hdl.behavioral import verilog_to_behavioral
from repro.workloads import enumerate_workloads, sample_workloads, workload_counts
from repro.workloads.generator import XILINX_FORMS


def _design(verilog):
    return verilog_to_behavioral(verilog)


ADD_MUL_AND = ("module add_mul_and(input clk, input [7:0] a, b, c, d, output reg [7:0] out);"
               " reg [7:0] r; always @(posedge clk) begin r <= (a+b)*c&d; out <= r; end endmodule")
PLAIN_MUL = ("module mul(input clk, input [7:0] a, b, output [7:0] out);"
             " assign out = a * b; endmodule")
MUL_ADD = ("module mul_add(input clk, input [7:0] a, b, c, output [7:0] out);"
           " assign out = (a * b) + c; endmodule")


class TestDesignFeatureAnalysis:
    def test_plain_multiply(self):
        features = analyze_design(_design(PLAIN_MUL).program)
        assert features.has_multiply
        assert not features.multiply_has_preadd
        assert features.post_op is None
        assert features.pipeline_stages == 0

    def test_preadd_and_post_op(self):
        features = analyze_design(_design(ADD_MUL_AND).program)
        assert features.multiply_has_preadd
        assert features.post_op == "and"
        assert features.pipeline_stages == 2

    def test_mul_add_post_op(self):
        features = analyze_design(_design(MUL_ADD).program)
        assert features.post_op == "add"
        assert not features.multiply_has_preadd


class TestBaselineRules:
    def test_yosys_maps_plain_multiply_on_xilinx(self):
        result = YosysLikeMapper().map(_design(PLAIN_MUL), "xilinx-ultrascale-plus")
        assert result.mapped_to_single_dsp

    def test_yosys_fails_on_add_mul_and(self):
        result = YosysLikeMapper().map(_design(ADD_MUL_AND), "xilinx-ultrascale-plus")
        assert not result.mapped_to_single_dsp
        # Partial mapping: one DSP for the multiplier plus fabric logic,
        # which is exactly the §2.1 failure scenario.
        assert result.resources.dsps == 1
        assert result.resources.luts > 0
        assert result.resources.registers > 0

    def test_yosys_maps_nothing_on_intel(self):
        result = YosysLikeMapper().map(_design(PLAIN_MUL), "intel-cyclone10lp")
        assert not result.mapped_to_single_dsp

    def test_sota_xilinx_fails_on_logic_unit_combination(self):
        result = SotaXilinxMapper().map(_design(ADD_MUL_AND))
        assert not result.mapped_to_single_dsp

    def test_sota_xilinx_maps_mul_add(self):
        result = SotaXilinxMapper().map(_design(MUL_ADD))
        assert result.mapped_to_single_dsp

    def test_sota_lattice_maps_plain_multiply(self):
        result = SotaLatticeMapper().map(_design(PLAIN_MUL))
        assert result.mapped_to_single_dsp

    def test_sota_intel_rejects_signed(self):
        features_mapper = SotaIntelMapper()
        result = features_mapper.map(_design(PLAIN_MUL), is_signed=False)
        assert result.mapped_to_single_dsp

    def test_sota_for_unknown_architecture(self):
        with pytest.raises(KeyError):
            sota_for("sofa")

    def test_abc_lut_mapper_counts_luts(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        result = AbcLutMapper(lut_size=6).map_expressions([bvand(bvadd(a, b), b)])
        assert result.lut_count > 0
        assert result.depth >= 1

    def test_abc_lut_mapper_multiplier_is_larger_than_adder(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        adder = AbcLutMapper().map_expressions([bvadd(a, b)])
        multiplier = AbcLutMapper().map_expressions([bvmul(a, b)])
        assert multiplier.lut_count > adder.lut_count


class TestWorkloads:
    def test_paper_counts_reproduced(self):
        counts = workload_counts()
        assert counts["xilinx-ultrascale-plus"] == 1320
        assert counts["lattice-ecp5"] == 396
        assert counts["intel-cyclone10lp"] == 66

    def test_xilinx_form_count(self):
        assert len(XILINX_FORMS) == 15

    def test_every_microbenchmark_parses_and_imports(self):
        for benchmark in sample_workloads("xilinx-ultrascale-plus", 12, max_width=9):
            design = verilog_to_behavioral(benchmark.verilog)
            assert design.pipeline_depth == benchmark.stages
            assert set(design.input_widths) == set(benchmark.form.inputs)

    def test_sampling_is_deterministic_and_covers_forms(self):
        sample_a = sample_workloads("lattice-ecp5", 12, seed=3)
        sample_b = sample_workloads("lattice-ecp5", 12, seed=3)
        assert [b.name for b in sample_a] == [b.name for b in sample_b]
        assert len({b.form.name for b in sample_a}) == 6

    def test_unknown_architecture_rejected(self):
        with pytest.raises(KeyError):
            enumerate_workloads("sofa")

    def test_signed_variants_generated(self):
        names = {b.name for b in enumerate_workloads("intel-cyclone10lp")}
        assert "mul_w8_p0_u" in names and "mul_w8_p0_s" in names


class TestHarness:
    def test_baseline_runner_produces_records(self):
        benchmarks = sample_workloads("xilinx-ultrascale-plus", 10, max_width=9)
        records = run_baselines(benchmarks)
        assert len(records) == 2 * len(benchmarks)
        assert {record.tool for record in records} == {"sota", "yosys"}

    def test_figure6_completeness_baselines_only(self):
        benchmarks = {"xilinx-ultrascale-plus": sample_workloads("xilinx-ultrascale-plus",
                                                                 12, max_width=9)}
        results = figure6_completeness(benchmarks, include_lakeroad=False)
        summary = results["xilinx-ultrascale-plus"]
        assert summary["total"] == 12
        assert "sota" in summary["tools"] and "yosys" in summary["tools"]
        assert summary["tools"]["sota"]["mapped"] >= summary["tools"]["yosys"]["mapped"]
        assert render_completeness_table(results)

    def test_figure6_timing_rows(self):
        records = [MappingRecord("yosys", "lattice-ecp5", "b", "mul", 8, 0, False,
                                 "success", 0.5),
                   MappingRecord("yosys", "lattice-ecp5", "c", "mul", 8, 1, False,
                                 "fail", 1.5)]
        rows = figure6_timing({"lattice-ecp5": records})
        assert rows[0]["median"] == 1.0
        assert render_timing_table(rows)

    def test_figure7_histogram(self):
        records = [MappingRecord("lakeroad", "x", f"b{i}", "mul", 8, 0, False,
                                 "success", float(i)) for i in range(10)]
        records.append(MappingRecord("lakeroad", "x", "t", "mul", 8, 0, False,
                                     "timeout", 60.0))
        histogram = figure7_histogram(records, bins=5)
        assert sum(histogram["counts"]) == 10
        assert histogram["timeouts"] == 1

    def test_table1_rows_include_paper_numbers(self):
        rows = table1_primitives()
        dsp_row = next(row for row in rows if row["primitive"] == "DSP48E2")
        assert dsp_row["paper_verilog_sloc"] == 896
        assert dsp_row["verilog_sloc"] > 0
        assert render_table1(rows)

    def test_resource_reduction_summary(self):
        lakeroad = MappingRecord("lakeroad", "x", "b1", "mul", 8, 0, False, "success",
                                 1.0, dsps=1, luts=0, registers=0)
        sota = MappingRecord("sota", "x", "b1", "mul", 8, 0, False, "fail",
                             0.1, dsps=1, luts=16, registers=32)
        summary = resource_reduction([lakeroad, sota])
        assert summary["x:sota"]["avg_les_saved"] == 16
        assert summary["x:sota"]["avg_registers_saved"] == 32

    def test_extensibility_rows(self):
        rows = extensibility()
        by_name = {row["architecture"]: row for row in rows}
        assert by_name["sofa"]["description_sloc"] < by_name["xilinx-ultrascale-plus"][
            "description_sloc"] * 6
        assert by_name["xilinx-ultrascale-plus"]["paper_description_sloc"] == 185

    def test_default_benchmarks_are_bounded(self):
        benchmarks = default_benchmarks("lattice-ecp5", count=6)
        assert len(benchmarks) == 6
        assert all(b.width <= 10 for b in benchmarks)

    def test_experiment_config_timeouts(self):
        config = ExperimentConfig()
        assert config.timeout_for("xilinx-ultrascale-plus") > config.timeout_for(
            "intel-cyclone10lp")


@pytest.fixture
def cli_argv(tmp_path, monkeypatch):
    """A command line per subcommand that reaches no real work: stubs fail
    the test if a command maps a design, forks workers or dials a server,
    so every argument and path check must come first."""
    import repro.cli
    import repro.engine.parallel
    import repro.engine.service
    import repro.harness.bench

    def work(*args, **kwargs):
        raise AssertionError("work started before the argument checks")

    monkeypatch.setattr(repro.engine.parallel, "run_sweep", work)
    monkeypatch.setattr(repro.harness.bench, "run_bench", work)
    monkeypatch.setattr(repro.engine.service, "SolverService", work)
    monkeypatch.setattr(repro.engine.service, "ServiceClient", work)
    monkeypatch.setattr(repro.cli, "MappingSession", work)
    design = tmp_path / "and4.v"
    design.write_text("module and4(input [3:0] a, b, output [3:0] out); "
                      "assign out = a & b; endmodule")
    return {"map": [str(design), "--arch-desc", "intel-cyclone10lp"],
            "sweep": ["sweep", "--arch", "intel-cyclone10lp", "--count", "1"],
            "serve": ["serve"],
            "request": ["request", str(design), "--socket",
                        str(tmp_path / "no.sock")],
            "bench": ["bench", "--arch", "intel-cyclone10lp", "--count", "1",
                      "--no-serve", "--output-dir", str(tmp_path / "bench")]}


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["design.v"])
        assert args.template == "dsp"
        assert args.arch_desc == "xilinx-ultrascale-plus"

    def test_missing_file_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["/nonexistent/file.v"])

    def test_end_to_end_on_fast_architecture(self, tmp_path, capsys):
        source = ("module mul(input clk, input [7:0] a, b, output [7:0] out);"
                  " assign out = a * b; endmodule")
        path = tmp_path / "mul.v"
        path.write_text(source)
        output = tmp_path / "mul_impl.v"
        exit_code = main([str(path), "--arch-desc", "intel-cyclone10lp",
                          "--timeout", "30", "--no-validate", "-o", str(output)])
        assert exit_code == 0
        assert "cyclone10lp_mac_mult" in output.read_text()

    def test_unsat_exit_code(self, tmp_path):
        source = ("module nomap(input clk, input [7:0] a, b, output [7:0] out);"
                  " assign out = (a * b) ^ (a + b); endmodule")
        path = tmp_path / "nomap.v"
        path.write_text(source)
        exit_code = main([str(path), "--arch-desc", "intel-cyclone10lp",
                          "--timeout", "30", "--no-validate"])
        assert exit_code in (2, 3)

    @pytest.mark.parametrize("arch,source,extra,message", [
        ("no-such-fpga",
         "module m(input [3:0] a, b, output [3:0] out); assign out = a & b; "
         "endmodule",
         [], "unknown architecture 'no-such-fpga'"),
        ("intel-cyclone10lp",
         "module m(input [3:0] a, output reg [3:0] out); always @(*) out = a; "
         "endmodule",
         [], "expected posedge"),
        ("intel-cyclone10lp",
         "module m(input [3:0] a, b, output [3:0] out); assign out = a & b; "
         "endmodule",
         ["--module", "nope"], "no module named 'nope'"),
        ("intel-cyclone10lp",
         "module m(input clk, input [15:0] d, output [16:0] out); "
         "reg [15:0] r; always @(posedge clk) r <= d; "
         "assign out = r[20:4]; endmodule",
         [], "select [20:4] is out of range"),
        ("intel-cyclone10lp",
         "module m(input [7:0] a, output out); assign out = a[8]; endmodule",
         [], "select [8:8] is out of range"),
        # Verilog reads the MSB here; the frontend would read the LSB.
        ("sofa",
         "module m(input [0:7] a, output out); assign out = a[0]; endmodule",
         ["--template", "bitwise"], "range [0:7] is not supported"),
        # The LSB, which the frontend would take for bit 1.
        ("sofa",
         "module m(input [8:1] a, output out); assign out = a[1]; endmodule",
         ["--template", "bitwise"], "range [8:1] is not supported"),
        ("sofa",
         "module m(input [3:0] a, output [7:0] o); assign o = {0{a}}; "
         "endmodule",
         ["--template", "bitwise"], "replication count 0 is not positive"),
        ("sofa",
         "module m(input [3:0] a, output [7:0] o); assign o = {-1{a}}; "
         "endmodule",
         ["--template", "bitwise"], "replication count -1 is not positive"),
        ("sofa",
         "module m(input [3:0] a); wire [3:0] w; assign w = a; endmodule",
         ["--template", "bitwise"], "module 'm' has no output"),
        # The mapped module could not keep the port: its program has no
        # free variable for it.
        ("sofa",
         "module m(input [3:0] a, output [3:0] o); assign o = 4'd3; "
         "endmodule",
         ["--template", "bitwise"], "input 'a' is never read by output 'o'"),
        ("sofa",
         "module m(input [3:0] a, output [3:0] o); assign o = a ~^ a; "
         "endmodule",
         ["--template", "bitwise"], "input 'a' is never read by output 'o'"),
    ], ids=["unknown-arch", "unsupported-verilog", "missing-module",
            "part-select-past-msb", "bit-select-past-msb", "ascending-range",
            "offset-range", "zero-replication", "negative-replication",
            "no-output", "constant-output", "input-folds-away"])
    def test_input_error_is_one_line_and_exit_1(self, tmp_path, capsys,
                                                arch, source, extra, message):
        path = tmp_path / "design.v"
        path.write_text(source)
        exit_code = main([str(path), "--arch-desc", arch, "--no-validate",
                          *extra])
        stderr = capsys.readouterr().err
        assert exit_code == 1
        assert "Traceback" not in stderr
        [line] = stderr.splitlines()
        assert line.startswith("lakeroad map: error: ") and message in line

    @pytest.mark.parametrize("arch,source,extra", [
        ("xilinx-ultrascale-plus",
         "module m(input i_clk, input [7:0] a, b, output reg [15:0] o); "
         "always @(posedge i_clk) o <= a * b; endmodule", []),
        ("xilinx-ultrascale-plus",
         "module m(input ck, input [7:0] a, b, output reg [15:0] o); "
         "always @(posedge ck) o <= a * b; endmodule", []),
        ("sofa",
         "module m(input [3:0] clk, output [3:0] o); assign o = ~clk; "
         "endmodule", ["--template", "bitwise"]),
    ], ids=["clock-i_clk", "clock-ck", "data-input-named-clk"])
    def test_clock_is_the_always_block_clock_not_a_name(self, tmp_path,
                                                         capsys, arch,
                                                         source, extra):
        """The interface is the inputs the output reads; a clock is what
        ``always @(posedge ...)`` names, whatever it is called."""
        path = tmp_path / "design.v"
        path.write_text(source)
        exit_code = main([str(path), "--arch-desc", arch, *extra])
        stderr = capsys.readouterr().err
        assert exit_code == 0, stderr
        assert "simulation validation: passed" in stderr

    @pytest.mark.parametrize("command,flag,unusable", [
        ("sweep", "--jsonl", "missing-directory"),
        ("sweep", "--stats-json", "missing-directory"),
        ("sweep", "--cache-dir", "under-a-file"),
        ("serve", "--socket", "missing-directory"),
        ("map", "--output", "missing-directory"),
        ("map", "--cache-dir", "under-a-file"),
        ("bench", "--output-dir", "a-file"),
        ("bench", "--output-dir", "under-a-file"),
    ], ids=["sweep-jsonl", "sweep-stats-json", "sweep-cache-dir",
            "serve-socket", "map-output", "map-cache-dir", "bench-output-dir",
            "bench-output-dir-under-a-file"])
    def test_unusable_path_is_one_line_and_exit_1(self, tmp_path, capsys,
                                                  cli_argv, command, flag,
                                                  unusable):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        path = {"missing-directory": str(tmp_path / "missing" / "out"),
                "under-a-file": str(blocker / "cache"),
                "a-file": str(blocker)}[unusable]
        exit_code = main([*cli_argv[command], flag, path])
        stderr = capsys.readouterr().err
        assert exit_code == 1
        [line] = stderr.splitlines()
        assert line.startswith(f"lakeroad {command}: error: ") and path in line

    @pytest.mark.parametrize("command", ["map", "request"])
    @pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
    def test_unreadable_verilog_is_one_line_and_exit_2(self, tmp_path, capsys,
                                                       cli_argv, command,
                                                       unreadable):
        path = tmp_path / "design.v"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"module m(input a, output b); \xff\xfe endmodule")
        argv = [str(path) if arg.endswith("and4.v") else arg
                for arg in cli_argv[command]]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(
            f"lakeroad {command}: error: cannot read {path}: ")

    @pytest.mark.parametrize("command,flag,value", [
        ("map", "--extra-cycles", "-1"),
        ("map", "--timeout", "-1"),
        ("sweep", "--timeout", "-1"),
        ("request", "--extra-cycles", "-1"),
        ("request", "--timeout", "-1"),
        ("request", "--retries", "-1"),
        ("map", "--timeout", "nan"),
        ("sweep", "--timeout", "nan"),
        ("request", "--timeout", "nan"),
    ], ids=["map-extra-cycles", "map-timeout", "sweep-timeout",
            "request-extra-cycles", "request-timeout", "request-retries",
            "map-timeout-nan", "sweep-timeout-nan", "request-timeout-nan"])
    def test_negative_option_is_a_usage_error(self, capsys, cli_argv,
                                              command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv[command], flag, value])
        assert exit_info.value.code == 2
        assert f"{flag} must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("sweep", "--count", "0"),
        ("bench", "--count", "0"),
        ("bench", "--count", "-1"),
        ("bench", "--max-width", "3"),
    ], ids=["sweep-count-zero", "bench-count-zero", "bench-count-negative",
            "bench-max-width-below-8"])
    def test_empty_sample_is_a_usage_error(self, capsys, cli_argv, command,
                                           flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv[command], flag, value])
        assert exit_info.value.code == 2
        assert "the requested sample is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_throughput_assignments_below_one_is_a_usage_error(
            self, capsys, cli_argv, value):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv["bench"], "--throughput-assignments", value])
        assert exit_info.value.code == 2
        assert "--throughput-assignments must be at least 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command,workers", [
        ("sweep", "0"), ("sweep", "-2"), ("serve", "0"),
    ], ids=["sweep-zero", "sweep-negative", "serve-zero"])
    def test_workers_below_one_is_a_usage_error(self, capsys, cli_argv,
                                                command, workers):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv[command], "--workers", workers])
        assert exit_info.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["map", "sweep", "serve"])
    @pytest.mark.parametrize("flag", ["--incremental", "--incremental-verify"])
    def test_retired_cegis_mode_flags_are_unknown(self, capsys, cli_argv,
                                                  command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv[command], flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--min-workers", "1"), ("--max-workers", "3"),
    ], ids=["min-workers", "max-workers"])
    def test_retired_pool_bounds_are_unknown(self, capsys, cli_argv, flag,
                                             value):
        with pytest.raises(SystemExit) as exit_info:
            main([*cli_argv["serve"], flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" \
            in capsys.readouterr().err

    def test_stats_on_a_cache_hit_reports_no_solve(self, tmp_path, capsys):
        path = tmp_path / "and4.v"
        path.write_text("module and4(input [3:0] a, b, output [3:0] out); "
                        "assign out = a & b; endmodule")
        argv = [str(path), "--arch-desc", "lattice-ecp5", "--stats",
                "--no-validate", "--cache-dir", str(tmp_path / "cache")]
        cold_exit = main(argv)
        cold = capsys.readouterr().err
        assert main(argv) == cold_exit
        warm = capsys.readouterr().err
        assert "solver counters:" in cold and "propagations: " in cold
        assert "answered from the cache" not in cold
        # The hit replays an archived solve: it must not print that solve's
        # counters as if it had just run.
        assert "solver: answered from the cache; no solve ran" in warm
        assert "solver counters:" not in warm and "propagations" not in warm
