"""Importing behavioral design fragments ("input 1") into ℒbeh.

The behavioral import path is the same extraction pipeline used for vendor
models — parse, elaborate, convert — because a behavioral design is just a
Verilog module without primitive instantiations.  The extra work here is
picking the output port, settling the design's interface (the inputs the
output reads; see :func:`verilog_to_behavioral`) and reporting the
design's pipeline depth (the number of register stages between inputs and
the output), which the mapper uses as the default synthesis timestep
``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.lang import Program, RegNode
from repro.core.sublang import is_behavioral
from repro.core.wellformed import check_well_formed
from repro.hdl.elaborate import ElaborationError, elaborate
from repro.hdl.extract import transition_system_to_program
from repro.hdl.parser import parse_module

__all__ = ["BehavioralDesign", "verilog_to_behavioral", "pipeline_depth"]


@dataclass
class BehavioralDesign:
    """A behavioral design imported from Verilog."""

    name: str
    program: Program
    input_widths: Dict[str, int]
    output_name: str
    output_width: int
    pipeline_depth: int
    verilog: str
    #: The clock input: the first ``always @(posedge ...)`` clock, else an
    #: unread input named ``clk``/``clock``; None for a design with neither.
    clock: Optional[str] = None


def pipeline_depth(program: Program) -> int:
    """The longest chain of registers from any input to the root.

    This is the number of clock cycles after which the design's output
    first reflects its inputs, and therefore the natural choice of ``t``
    for ``f_lr``.
    """
    depth_cache: Dict[int, int] = {}

    def depth(node_id: int) -> int:
        if node_id in depth_cache:
            return depth_cache[node_id]
        node = program[node_id]
        if isinstance(node, RegNode):
            # Mark before recursing so register feedback loops terminate.
            depth_cache[node_id] = 0
            value = 1 + depth(node.data)
        else:
            inputs = node.inputs()
            value = max((depth(i) for i in inputs), default=0)
        depth_cache[node_id] = value
        return value

    return depth(program.root)


def verilog_to_behavioral(source: str, module_name: Optional[str] = None,
                          output: Optional[str] = None) -> BehavioralDesign:
    """Parse and import a behavioral Verilog module into ℒbeh.

    The design's interface is the declared inputs the output reads, in
    declaration order: the synthesized program must read the same free
    variables (§3.3), and the mapped module keeps the design's ports.
    Every other declared input must be a clock — a signal named in
    ``always @(posedge ...)``, or an input named ``clk``/``clock`` —
    since registers model clocking; any other unread input is an
    :class:`~repro.hdl.elaborate.ElaborationError`.
    """
    module = parse_module(source, module_name)
    system = elaborate(module)
    if not system.outputs:
        raise ElaborationError(f"module {system.name!r} has no output")
    program = transition_system_to_program(system, output)
    if not is_behavioral(program):
        raise ValueError("the imported design is not in the behavioral fragment ℒbeh")
    check_well_formed(program)

    chosen_output = output if output is not None else next(iter(system.outputs))
    output_width = program[program.root].width
    read = program.free_vars()
    clocks = [block.clock for block in module.always_blocks]
    for name in system.inputs:
        if name in read or name in clocks:
            continue
        if name.lower() not in ("clk", "clock"):
            raise ElaborationError(
                f"input {name!r} is never read by output {chosen_output!r} "
                f"and is not a clock")
        clocks.append(name)
    input_widths = {name: width for name, width in system.inputs.items()
                    if name in read}
    return BehavioralDesign(
        name=system.name,
        program=program,
        input_widths=input_widths,
        output_name=chosen_output,
        output_width=output_width,
        pipeline_depth=pipeline_depth(program),
        verilog=source,
        clock=clocks[0] if clocks else None,
    )
