"""Compilation of ℒstruct programs to structural Verilog (Section 2.2, step 3).

The translation is a purely one-to-one syntactic mapping — no optimisation
happens here, "reducing the likelihood that bugs could be inserted".  Each
node becomes either a wire with an ``assign`` (constants and wire-level
plumbing) or a vendor-module instantiation (Prim nodes).  The Prim node's
semantics program is *not* emitted; only its metadata is used, exactly as
the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.lang import (
    BVNode,
    OpNode,
    PrimNode,
    Program,
    VarNode,
)
from repro.core.sublang import is_structural

__all__ = ["LoweredDesign", "lower_to_verilog", "ResourceCount"]


@dataclass
class ResourceCount:
    """FPGA resource usage of a lowered design (used by the evaluation)."""

    dsps: int = 0
    luts: int = 0
    carries: int = 0
    registers: int = 0
    muxes: int = 0
    other: int = 0

    @property
    def logic_elements(self) -> int:
        """LEs as defined in §5.1: LUTs, muxes, or carry chains."""
        return self.luts + self.muxes + self.carries

    def __add__(self, other: "ResourceCount") -> "ResourceCount":
        return ResourceCount(
            dsps=self.dsps + other.dsps,
            luts=self.luts + other.luts,
            carries=self.carries + other.carries,
            registers=self.registers + other.registers,
            muxes=self.muxes + other.muxes,
            other=self.other + other.other,
        )


@dataclass
class LoweredDesign:
    """The result of lowering: Verilog text plus a resource report."""

    module_name: str
    verilog: str
    resources: ResourceCount
    instances: List[str] = field(default_factory=list)


_DSP_MODULES = {"DSP48E2", "ALU54A", "MULT18X18C", "lattice_ecp5_dsp",
                "cyclone10lp_mac_mult", "DSP"}
_LUT_MODULES = {"LUT1", "LUT2", "LUT3", "LUT4", "LUT5", "LUT6", "frac_lut4", "LUT"}
_CARRY_MODULES = {"CARRY8", "CCU2C", "CARRY"}


def _classify_primitive(module_name: str) -> str:
    if module_name in _DSP_MODULES:
        return "dsp"
    if module_name in _LUT_MODULES:
        return "lut"
    if module_name in _CARRY_MODULES:
        return "carry"
    if module_name.upper().startswith("MUX"):
        return "mux"
    return "other"


def _verilog_const(value: int, width: int) -> str:
    return f"{width}'h{value:x}"


def lower_to_verilog(program: Program, module_name: str, *,
                     inputs: Iterable[Tuple[str, int]], output_name: str,
                     clock_name: str) -> LoweredDesign:
    """Lower a hole-free ℒstruct program to a structural Verilog module.

    ``inputs`` lists the module's ``(name, width)`` input ports in order
    (the design's declared interface).  ``clock_name`` names the clock
    port that clocked primitives are wired to (a fresh name if a data port
    already has it).  Internal wire and instance names never reuse a port
    name.
    """
    if not is_structural(program):
        raise ValueError("only ℒstruct programs can be lowered to structural Verilog")

    wires: Dict[int, str] = {}
    assigns: List[str] = []
    instances: List[str] = []
    resources = ResourceCount()
    instance_names: List[str] = []
    needs_clock = False

    inputs = list(inputs)
    ports = {name for name, _ in inputs} | {output_name}

    def wire_name(node_id: int) -> str:
        return wires[node_id]

    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        while True:
            counter += 1
            name = f"{prefix}_{counter}"
            if name not in ports:
                return name

    if clock_name in ports:
        clock_name = fresh("clk")
    ports.add(clock_name)

    # Emit every node in dependency order (Kahn-style, combinational only:
    # ℒstruct has no registers so the node graph restricted to inputs() is a
    # DAG).
    remaining = dict(program.nodes)
    emitted: set = set()
    declarations: List[str] = []

    progress = True
    while remaining and progress:
        progress = False
        for node_id in list(remaining):
            node = remaining[node_id]
            if any(dep not in emitted for dep in node.inputs()):
                continue
            progress = True
            del remaining[node_id]
            emitted.add(node_id)

            if isinstance(node, VarNode):
                wires[node_id] = node.name
                continue

            name = fresh("w")
            wires[node_id] = name
            declarations.append(f"  wire [{node.width - 1}:0] {name};")

            if isinstance(node, BVNode):
                assigns.append(f"  assign {name} = {_verilog_const(node.value, node.width)};")
            elif isinstance(node, OpNode):
                assigns.append(_emit_wire_op(node, name, wires))
            elif isinstance(node, PrimNode):
                text, kind, has_clock, instance_name = _emit_prim(
                    node, name, wires, fresh, program, clock_name)
                instances.append(text)
                instance_names.append(instance_name)
                needs_clock = needs_clock or has_clock
                if kind == "dsp":
                    resources.dsps += 1
                elif kind == "lut":
                    resources.luts += 1
                elif kind == "carry":
                    resources.carries += 1
                elif kind == "mux":
                    resources.muxes += 1
                else:
                    resources.other += 1
            else:
                raise TypeError(f"unexpected node in ℒstruct program: {type(node).__name__}")

    if remaining:
        raise ValueError("could not order nodes for emission (cyclic structural program?)")

    root_width = program[program.root].width
    port_decls = []
    if needs_clock:
        port_decls.append(f"  input {clock_name}")
    port_decls += [f"  input [{width - 1}:0] {name}" for name, width in inputs]
    port_decls.append(f"  output [{root_width - 1}:0] {output_name}")

    lines = [f"module {module_name} ("]
    lines.append(",\n".join(port_decls))
    lines.append(");")
    lines.extend(declarations)
    lines.extend(assigns)
    lines.extend(instances)
    lines.append(f"  assign {output_name} = {wire_name(program.root)};")
    lines.append("endmodule")

    return LoweredDesign(module_name=module_name, verilog="\n".join(lines) + "\n",
                         resources=resources, instances=instance_names)


def _emit_wire_op(node: OpNode, name: str, wires: Dict[int, str]) -> str:
    operands = [wires[i] for i in node.operands]
    if node.op == "concat":
        return f"  assign {name} = {{{', '.join(operands)}}};"
    if node.op == "extract":
        hi, lo = node.params
        return f"  assign {name} = {operands[0]}[{hi}:{lo}];"
    if node.op == "zero_extend":
        return f"  assign {name} = {{{node.params[0]}'h0, {operands[0]}}};"
    if node.op == "sign_extend":
        extra = node.params[0]
        src = operands[0]
        return (f"  assign {name} = {{{{{extra}{{{src}[{node.width - extra - 1}]}}}}, {src}}};")
    raise ValueError(f"operator {node.op!r} is not allowed in ℒstruct")


def _emit_prim(node: PrimNode, out_wire: str, wires: Dict[int, str], fresh,
               program: Program, clock_name: str) -> Tuple[str, str, bool, str]:
    metadata = node.metadata
    if metadata is None:
        raise ValueError("Prim node has no compilation metadata")
    bindings = node.binding_map()

    parameters: List[str] = []
    ports: List[str] = []
    for semantic_name, parent_id in sorted(bindings.items()):
        port = metadata.port_name(semantic_name)
        wire = wires[parent_id]
        if semantic_name in metadata.parameter_ports:
            # Parameters must be literal constants in the instantiation; the
            # synthesis result guarantees the bound node is a constant.
            bound = program[parent_id]
            literal = _verilog_const(bound.value, bound.width) if isinstance(bound, BVNode) else wire
            parameters.append(f"    .{port}({literal})")
        else:
            ports.append(f"    .{port}({wire})")
    if metadata.clock_port:
        ports.insert(0, f"    .{metadata.clock_port}({clock_name})")

    output_width = metadata.output_width or node.width
    if output_width > node.width:
        full = fresh("po")
        prelude = f"  wire [{output_width - 1}:0] {full};\n"
        ports.append(f"    .{metadata.output_port}({full})")
        epilogue = f"\n  assign {out_wire} = {full}[{node.width - 1}:0];"
    else:
        prelude = ""
        ports.append(f"    .{metadata.output_port}({out_wire})")
        epilogue = ""

    instance_name = fresh(metadata.module_name)
    text = prelude + f"  {metadata.module_name} "
    if parameters:
        text += "#(\n" + ",\n".join(parameters) + "\n  ) "
    text += f"{instance_name} (\n" + ",\n".join(ports) + "\n  );" + epilogue
    kind = _classify_primitive(metadata.module_name)
    return text, kind, bool(metadata.clock_port), instance_name
