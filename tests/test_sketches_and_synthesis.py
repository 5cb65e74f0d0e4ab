"""Tests for sketch generation, f_lr / f*_lr, lowering to Verilog, and the
end-to-end Lakeroad flow on the fast architectures."""

import pytest

from repro.arch import load_architecture
from repro.core.interp import interpret
from repro.core.lower import ResourceCount
from repro.core.sketch_gen import DesignInterface, SketchGenerationError, generate_sketch
from repro.core.sublang import is_sketch
from repro.core.synthesis import f_lr, f_lr_star
from repro.core.templates import available_templates, template_by_name
from repro.core.wellformed import check_well_formed
from repro.engine.budget import Budget
from repro.hdl.behavioral import verilog_to_behavioral
from repro.lakeroad import map_verilog
from repro.vendor.library import PrimitiveLibrary

LIBRARY = PrimitiveLibrary()


def _design_interface(inputs, width, out_width=None):
    return DesignInterface(input_widths={name: width for name in inputs},
                           output_width=out_width or width)


class TestTemplates:
    def test_five_templates_shipped(self):
        assert available_templates() == [
            "bitwise", "bitwise-with-carry", "comparison", "dsp", "multiplication"]

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            template_by_name("systolic-array")

    def test_template_descriptions(self):
        for name in available_templates():
            assert template_by_name(name).describe()


class TestSketchGeneration:
    @pytest.mark.parametrize("arch_name", ["xilinx-ultrascale-plus", "lattice-ecp5",
                                            "intel-cyclone10lp"])
    def test_dsp_sketch_per_architecture(self, arch_name):
        arch = load_architecture(arch_name)
        design = _design_interface("ab", 8)
        sketch = generate_sketch("dsp", arch, design, LIBRARY)
        assert is_sketch(sketch.program)
        check_well_formed(sketch.program)
        assert sketch.hole_count() > 0
        assert sketch.program.free_vars() == {"a", "b"}

    def test_dsp_sketch_hole_space_includes_configuration(self):
        arch = load_architecture("xilinx-ultrascale-plus")
        sketch = generate_sketch("dsp", arch, _design_interface("abcd", 8), LIBRARY)
        hole_names = " ".join(sketch.hole_names)
        assert "OPMODE" in hole_names and "ALUMODE" in hole_names

    def test_dsp_sketch_unavailable_on_sofa(self):
        arch = load_architecture("sofa")
        with pytest.raises(SketchGenerationError):
            generate_sketch("dsp", arch, _design_interface("ab", 8), LIBRARY)

    @pytest.mark.parametrize("arch_name", ["xilinx-ultrascale-plus", "lattice-ecp5", "sofa"])
    def test_bitwise_sketch_per_architecture(self, arch_name):
        arch = load_architecture(arch_name)
        sketch = generate_sketch("bitwise", arch, _design_interface("ab", 4), LIBRARY)
        assert is_sketch(sketch.program)
        # One LUT hole per output bit.
        assert sketch.hole_count() == 4

    def test_bitwise_carry_sketch_on_xilinx(self):
        arch = load_architecture("xilinx-ultrascale-plus")
        sketch = generate_sketch("bitwise-with-carry", arch, _design_interface("ab", 8), LIBRARY)
        assert is_sketch(sketch.program)

    def test_bitwise_carry_requires_carry_interface(self):
        arch = load_architecture("sofa")
        with pytest.raises(SketchGenerationError):
            generate_sketch("bitwise-with-carry", arch, _design_interface("ab", 4), LIBRARY)

    def test_multiplication_sketch_width_limit(self):
        arch = load_architecture("sofa")
        with pytest.raises(SketchGenerationError):
            generate_sketch("multiplication", arch, _design_interface("ab", 8), LIBRARY)
        sketch = generate_sketch("multiplication", arch, _design_interface("ab", 2), LIBRARY)
        assert is_sketch(sketch.program)

    def test_comparison_sketch(self):
        arch = load_architecture("sofa")
        sketch = generate_sketch("comparison", arch,
                                 _design_interface("ab", 4, out_width=1), LIBRARY)
        assert is_sketch(sketch.program)


class TestSynthesisWithSketches:
    def _synthesize_verilog(self, source, template, arch_name, **kwargs):
        design = verilog_to_behavioral(source)
        arch = load_architecture(arch_name)
        interface = DesignInterface(dict(design.input_widths), design.output_width)
        sketch = generate_sketch(template, arch, interface, LIBRARY)
        return design, f_lr_star(sketch, design.program, at_time=design.pipeline_depth,
                                 cycles=kwargs.get("cycles", 1),
                                 budget=Budget(kwargs.get("timeout", 60)))

    def test_bitwise_and_on_sofa(self):
        source = "module f(input [3:0] a, b, output [3:0] out); assign out = a & b; endmodule"
        design, outcome = self._synthesize_verilog(source, "bitwise", "sofa")
        assert outcome.succeeded
        # Validate the synthesized LUT configuration by simulation.
        for a in (0b0011, 0b1111, 0b1010):
            for b in (0b0101, 0b0110):
                assert interpret(outcome.program, {"a": [a], "b": [b]}, 0) == a & b

    def test_bitwise_xor_on_xilinx_luts(self):
        source = "module f(input [2:0] a, b, output [2:0] out); assign out = a ^ b; endmodule"
        design, outcome = self._synthesize_verilog(source, "bitwise", "xilinx-ultrascale-plus")
        assert outcome.succeeded
        assert interpret(outcome.program, {"a": [0b101], "b": [0b011]}, 0) == 0b110

    def test_bitwise_cannot_express_addition(self):
        source = "module f(input [3:0] a, b, output [3:0] out); assign out = a + b; endmodule"
        design, outcome = self._synthesize_verilog(source, "bitwise", "sofa")
        assert outcome.status == "unsat"

    def test_multiplication_template_on_sofa(self):
        source = "module f(input [1:0] a, b, output [1:0] out); assign out = a * b; endmodule"
        design, outcome = self._synthesize_verilog(source, "multiplication", "sofa")
        assert outcome.succeeded
        for a in range(4):
            for b in range(4):
                assert interpret(outcome.program, {"a": [a], "b": [b]}, 0) == (a * b) & 0b11

    def test_dsp_template_on_intel_multiply(self):
        source = ("module f(input clk, input [7:0] a, b, output reg [7:0] out);"
                  " always @(posedge clk) out <= a * b; endmodule")
        design, outcome = self._synthesize_verilog(source, "dsp", "intel-cyclone10lp")
        assert outcome.succeeded
        streams = {"a": [3, 5, 7], "b": [9, 11, 13]}
        for t in (1, 2):
            assert interpret(outcome.program, streams, t) == \
                interpret(design.program, streams, t)

    def test_dsp_template_on_lattice_mul_add(self):
        source = ("module f(input clk, input [7:0] a, b, c, output [7:0] out);"
                  " assign out = (a * b) + c; endmodule")
        design, outcome = self._synthesize_verilog(source, "dsp", "lattice-ecp5")
        assert outcome.succeeded

    def test_dsp_template_intel_rejects_three_input_design(self):
        """(a*b)+c cannot fit the two-input Cyclone 10 LP multiplier."""
        source = ("module f(input clk, input [7:0] a, b, c, output [7:0] out);"
                  " assign out = (a * b) + c; endmodule")
        design, outcome = self._synthesize_verilog(source, "dsp", "intel-cyclone10lp",
                                                   timeout=30)
        assert outcome.status in ("unsat", "unknown")


class TestLoweringToVerilog:
    def _lowered_intel_multiply(self):
        source = ("module f(input clk, input [7:0] a, b, output reg [7:0] out);"
                  " always @(posedge clk) out <= a * b; endmodule")
        result = map_verilog(source, template="dsp", arch="intel-cyclone10lp",
                             timeout_seconds=30, validate=False)
        assert result.succeeded
        return result

    def test_single_dsp_resources(self):
        result = self._lowered_intel_multiply()
        assert result.resources.dsps == 1
        assert result.resources.logic_elements == 0

    def test_verilog_contains_primitive_instance(self):
        result = self._lowered_intel_multiply()
        assert "cyclone10lp_mac_mult" in result.verilog
        assert "module f_impl" in result.verilog
        assert "input clk" in result.verilog

    def test_parameters_emitted_as_literals(self):
        result = self._lowered_intel_multiply()
        assert ".REG_OUTPUT(1'h" in result.verilog

    def test_resource_count_arithmetic(self):
        total = ResourceCount(dsps=1, luts=2) + ResourceCount(luts=3, registers=4)
        assert total.dsps == 1 and total.luts == 5 and total.registers == 4
        assert total.logic_elements == 5


class TestLakeroadEndToEnd:
    def test_lattice_multiply_maps_and_validates(self):
        source = ("module mul8(input clk, input [7:0] a, b, output [7:0] out);"
                  " assign out = a * b; endmodule")
        result = map_verilog(source, template="dsp", arch="lattice-ecp5",
                             timeout_seconds=40)
        assert result.succeeded
        assert result.validated is True
        assert result.resources.dsps == 1

    def test_unsat_is_reported_for_unmappable_design(self):
        source = ("module x3(input clk, input [7:0] a, b, output [7:0] out);"
                  " assign out = (a * b) ^ (a + b); endmodule")
        result = map_verilog(source, template="dsp", arch="intel-cyclone10lp",
                             timeout_seconds=30, validate=False)
        assert result.status in ("unsat", "timeout")

    @pytest.mark.slow
    def test_xilinx_add_mul_and_maps_to_single_dsp(self):
        source = ("module add_mul_and(input clk, input [7:0] a, b, c, d,"
                  " output reg [7:0] out);"
                  " reg [7:0] r;"
                  " always @(posedge clk) begin r <= (a+b)*c&d; out <= r; end endmodule")
        result = map_verilog(source, template="dsp", arch="xilinx-ultrascale-plus",
                             timeout_seconds=240)
        assert result.succeeded
        assert result.resources.dsps == 1
        assert result.resources.luts == 0
        assert result.validated is True
