"""ℒlr: the Lakeroad intermediate language (Figure 3 of the paper).

A program is a root node id plus a graph of nodes, each referred to by id.
Node kinds:

* ``BV b``        -- a constant bitvector,
* ``Var x``       -- an input variable,
* ``OP op ids*``  -- a combinational operator over other nodes,
* ``Reg id binit``-- a register (stateful, positive-edge),
* ``Prim bs p``   -- an architecture-specific primitive whose semantics are
  given by the sub-program ``p``; ``bs`` binds ``p``'s free variables to
  node ids of the enclosing program,
* ``Hole x``      -- a syntactic hole (sketches only).

Prim nodes additionally carry metadata (the vendor module name and port /
parameter mapping) used when compiling to structural Verilog; per the paper
the metadata plays no role in the semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Node",
    "BVNode",
    "VarNode",
    "OpNode",
    "RegNode",
    "PrimNode",
    "HoleNode",
    "PrimMetadata",
    "Program",
    "ProgramBuilder",
    "WIRE_OPS",
    "BV_OPS",
]

#: Wire-level operators (OP_w in Figure 3): pure plumbing.
WIRE_OPS = frozenset({"concat", "extract", "zero_extend", "sign_extend"})

#: Bitvector operators (OP_bv in Figure 3).
BV_OPS = frozenset({
    "add", "sub", "mul", "neg", "not", "and", "or", "xor", "xnor",
    "shl", "lshr", "ashr", "ite", "eq", "ne",
    "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge",
    "redand", "redor",
})


class Node:
    """Base class for ℒlr nodes."""

    width: int

    def inputs(self) -> Tuple[int, ...]:
        """The node ids this node reads (the ``inputs`` function of §3.2.1)."""
        return ()


@dataclass(frozen=True)
class BVNode(Node):
    """``BV b`` -- a constant bitvector."""

    value: int
    width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))


@dataclass(frozen=True)
class VarNode(Node):
    """``Var x`` -- an input variable (a free variable of the program)."""

    name: str
    width: int


@dataclass(frozen=True)
class OpNode(Node):
    """``OP op ids*`` -- a combinational operator."""

    op: str
    operands: Tuple[int, ...]
    width: int
    #: extra integer parameters, e.g. ``(hi, lo)`` for extract or the number
    #: of bits for the extension operators.
    params: Tuple[int, ...] = ()

    def inputs(self) -> Tuple[int, ...]:
        return self.operands


@dataclass(frozen=True)
class RegNode(Node):
    """``Reg id binit`` -- a positive-edge register with an initial value."""

    data: int
    init: int
    width: int

    def inputs(self) -> Tuple[int, ...]:
        return (self.data,)


@dataclass(frozen=True)
class PrimMetadata:
    """Compilation metadata carried by a Prim node (not semantically relevant).

    Attributes:
        module_name: the vendor module to instantiate (e.g. ``DSP48E2``).
        architecture: the architecture the primitive belongs to.
        port_map: semantic input variable name -> vendor port name.
        parameter_ports: semantic input variable names that correspond to
            vendor *parameters* (emitted in the ``#( ... )`` list).
        output_port: vendor output port name.
        output_width: declared width of the vendor output port (the
            semantics program's root may be narrower; emission pads).
        clock_port: name of the vendor clock port, or "" for a purely
            combinational primitive; emission wires it to the top-level
            ``clk`` input.
    """

    module_name: str
    architecture: str = ""
    port_map: Tuple[Tuple[str, str], ...] = ()
    parameter_ports: Tuple[str, ...] = ()
    output_port: str = "O"
    output_width: int = 0
    clock_port: str = ""

    def port_name(self, semantic_name: str) -> str:
        for sem, port in self.port_map:
            if sem == semantic_name:
                return port
        return semantic_name


@dataclass(frozen=True)
class PrimNode(Node):
    """``Prim bs p`` -- an architecture-specific primitive.

    ``bindings`` maps the free variable names of the semantics program
    ``semantics`` to node ids of the enclosing program.
    """

    bindings: Tuple[Tuple[str, int], ...]
    semantics: "Program"
    width: int
    metadata: Optional[PrimMetadata] = None

    def binding_map(self) -> Dict[str, int]:
        return dict(self.bindings)

    def inputs(self) -> Tuple[int, ...]:
        return tuple(node_id for _, node_id in self.bindings)


@dataclass(frozen=True)
class HoleNode(Node):
    """``■x`` -- a hole to be filled by synthesis (sketches only)."""

    name: str
    width: int


class Program:
    """An ℒlr program: a root id plus an id → node graph."""

    def __init__(self, root: int, nodes: Mapping[int, Node]) -> None:
        self.root = root
        self.nodes: Dict[int, Node] = dict(nodes)

    # -- notation from §3.2.1 ------------------------------------------------ #
    @property
    def ids(self) -> FrozenSet[int]:
        """``p.ids`` -- the ids of this program's own nodes."""
        return frozenset(self.nodes.keys())

    def __getitem__(self, node_id: int) -> Node:
        """``p[id]`` -- the node with the given id."""
        return self.nodes[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def all_ids(self) -> FrozenSet[int]:
        """``p.all_ids`` -- ids of this program and (recursively) its subprograms."""
        collected = set(self.nodes.keys())
        for node in self.nodes.values():
            if isinstance(node, PrimNode):
                collected |= node.semantics.all_ids()
        return frozenset(collected)

    def free_vars(self) -> FrozenSet[str]:
        """``p.fv`` -- names of this program's Var nodes (not of subprograms)."""
        return frozenset(node.name for node in self.nodes.values()
                         if isinstance(node, VarNode))

    def var_widths(self) -> Dict[str, int]:
        """Free variable name -> width."""
        widths: Dict[str, int] = {}
        for node in self.nodes.values():
            if isinstance(node, VarNode):
                widths[node.name] = node.width
        return widths

    def holes(self) -> Dict[str, HoleNode]:
        """All hole nodes in this program and its subprograms, by name."""
        found: Dict[str, HoleNode] = {}
        for node in self.nodes.values():
            if isinstance(node, HoleNode):
                found[node.name] = node
            elif isinstance(node, PrimNode):
                found.update(node.semantics.holes())
        return found

    def subprograms(self) -> List["Program"]:
        return [node.semantics for node in self.nodes.values()
                if isinstance(node, PrimNode)]

    def node_count(self) -> int:
        """Total node count including subprograms (a proxy for program size)."""
        total = len(self.nodes)
        for sub in self.subprograms():
            total += sub.node_count()
        return total

    # -- functional update --------------------------------------------------- #
    def with_nodes(self, replacements: Mapping[int, Node]) -> "Program":
        """A copy of this program with some nodes replaced."""
        new_nodes = dict(self.nodes)
        new_nodes.update(replacements)
        return Program(self.root, new_nodes)

    def __repr__(self) -> str:
        return f"Program(root={self.root}, nodes={len(self.nodes)})"


class ProgramBuilder:
    """Convenience builder that allocates globally unique node ids.

    Unique ids across all programs built by the same builder satisfy the
    paper's W2 condition (ids of a program and its subprograms are disjoint)
    by construction.
    """

    _counter = itertools.count(1)

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}

    # -- node constructors ---------------------------------------------------- #
    def _add(self, node: Node) -> int:
        node_id = next(ProgramBuilder._counter)
        self.nodes[node_id] = node
        return node_id

    def const(self, value: int, width: int) -> int:
        return self._add(BVNode(value, width))

    def var(self, name: str, width: int) -> int:
        return self._add(VarNode(name, width))

    def op(self, op: str, operands: Sequence[int], width: int,
           params: Sequence[int] = ()) -> int:
        if op not in BV_OPS and op not in WIRE_OPS:
            raise ValueError(f"unknown ℒlr operator {op!r}")
        return self._add(OpNode(op, tuple(operands), width, tuple(params)))

    def reg(self, data: int, init: int, width: int) -> int:
        return self._add(RegNode(data, init, width))

    def prim(self, bindings: Mapping[str, int], semantics: Program, width: int,
             metadata: Optional[PrimMetadata] = None) -> int:
        return self._add(PrimNode(tuple(sorted(bindings.items())), semantics,
                                  width, metadata))

    def hole(self, name: str, width: int) -> int:
        return self._add(HoleNode(name, width))

    # -- finishing ------------------------------------------------------------ #
    def build(self, root: int) -> Program:
        if root not in self.nodes:
            raise ValueError(f"root id {root} is not a node of this builder")
        return Program(root, dict(self.nodes))
