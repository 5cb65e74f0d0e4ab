"""Elaboration: a parsed Verilog module into a word-level transition system.

Elaboration resolves signal widths, evaluates continuous assignments and
``always @(posedge clk)`` blocks, and produces a
:class:`~repro.hdl.btor.TransitionSystem` whose expressions are solver
bitvector terms.  Non-blocking assignments become register next-state
functions; blocking assignments inside always blocks act as combinational
temporaries; ``if``/``else`` chains become nested word-level muxes.

Width handling follows Verilog's context-determined sizing closely enough
for the supported subset: operands of arithmetic and bitwise operators are
extended to the assignment context width (sign-extended when declared
``signed``), comparisons and reductions are self-determined 1-bit results,
and assignments truncate or extend to the target width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bv import (
    bv,
    bvadd,
    bvand,
    bvashr,
    bvconcat,
    bveq,
    bvextract,
    bvite,
    bvlshr,
    bvmul,
    bvne,
    bvneg,
    bvnot,
    bvor,
    bvredand,
    bvredor,
    bvsge,
    bvsgt,
    bvshl,
    bvsle,
    bvslt,
    bvsub,
    bvuge,
    bvugt,
    bvule,
    bvult,
    bvvar,
    bvxnor,
    bvxor,
    sign_extend,
    zero_extend,
)
from repro.bv.ast import BVExpr
from repro.hdl.ast import (
    AlwaysBlock,
    Binary,
    BlockingAssign,
    Concat,
    Expr,
    Identifier,
    IfStatement,
    ModuleDecl,
    NonBlockingAssign,
    Number,
    Replicate,
    Select,
    Statement,
    Ternary,
    Unary,
)
from repro.hdl.btor import TransitionSystem

__all__ = ["ElaborationError", "elaborate"]


class ElaborationError(ValueError):
    """Raised when a module cannot be elaborated."""


@dataclass
class _Signal:
    name: str
    width: int
    kind: str  # "input", "wire", "reg", "output_wire", "output_reg"
    is_signed: bool = False
    init: int = 0


class _LazyWireEnv:
    """A lazy mapping from signal name to resolved wire expression.

    Passing this to :meth:`_Elaborator.build` lets wire-to-wire references
    resolve on demand with memoisation (instead of eagerly materialising
    every wire for every lookup, which would be quadratic or worse).
    Signals that are not driven wires fall through to the caller's default
    (a plain variable), which is exactly what registers and inputs need.
    """

    def __init__(self, elaborator: "_Elaborator") -> None:
        self._elaborator = elaborator

    def get(self, name: str, default: Optional[BVExpr] = None) -> Optional[BVExpr]:
        if name in self._elaborator.wire_defs:
            return self._elaborator._wire_expression(name)
        return default

    def __contains__(self, name: str) -> bool:
        return name in self._elaborator.wire_defs


class _Elaborator:
    def __init__(self, module: ModuleDecl,
                 parameter_overrides: Optional[Mapping[str, int]] = None) -> None:
        self.module = module
        self.signals: Dict[str, _Signal] = {}
        self.parameters: Dict[str, int] = {p.name: p.default for p in module.parameters}
        if parameter_overrides:
            for name, value in parameter_overrides.items():
                if name not in self.parameters:
                    raise ElaborationError(f"module {module.name} has no parameter {name!r}")
                self.parameters[name] = value
        #: wire name -> defining expression (continuous assigns & blocking temps)
        self.wire_defs: Dict[str, Expr] = {}
        #: register name -> next-value HDL expression (after merging always blocks)
        self.reg_next: Dict[str, Expr] = {}
        self._wire_cache: Dict[str, BVExpr] = {}
        self._wire_visiting: set = set()
        self._lazy_env = _LazyWireEnv(self)
        self._collect_signals()

    # ------------------------------------------------------------------ #
    # Signal table
    # ------------------------------------------------------------------ #
    def _collect_signals(self) -> None:
        for port in self.module.ports:
            kind = "input" if port.direction == "input" else (
                "output_reg" if port.is_reg else "output_wire")
            self.signals[port.name] = _Signal(port.name, port.width, kind, port.is_signed)
        for net in self.module.nets:
            if net.name in self.signals:
                # A net declaration can re-declare a port as reg/wire.
                existing = self.signals[net.name]
                if net.kind == "reg" and existing.kind == "output_wire":
                    existing.kind = "output_reg"
                if net.width > 1 and existing.width == 1:
                    existing.width = net.width
                existing.is_signed = existing.is_signed or net.is_signed
                continue
            kind = "reg" if net.kind == "reg" else "wire"
            self.signals[net.name] = _Signal(net.name, net.width, kind, net.is_signed)

    def _signal(self, name: str) -> _Signal:
        if name in self.signals:
            return self.signals[name]
        raise ElaborationError(f"unknown identifier {name!r} in module {self.module.name}")

    # ------------------------------------------------------------------ #
    # Width computation
    # ------------------------------------------------------------------ #
    def self_width(self, expr: Expr) -> int:
        if isinstance(expr, Number):
            return expr.width if expr.width is not None else 32
        if isinstance(expr, Identifier):
            if expr.name in self.parameters:
                return 32
            return self._signal(expr.name).width
        if isinstance(expr, Unary):
            if expr.op in ("!", "&", "|", "^"):
                return 1
            return self.self_width(expr.operand)
        if isinstance(expr, Binary):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return 1
            if expr.op in ("<<", ">>", ">>>"):
                return self.self_width(expr.left)
            return max(self.self_width(expr.left), self.self_width(expr.right))
        if isinstance(expr, Ternary):
            return max(self.self_width(expr.if_true), self.self_width(expr.if_false))
        if isinstance(expr, Concat):
            return sum(self.self_width(part) for part in expr.parts)
        if isinstance(expr, Replicate):
            if expr.count < 1:
                raise ElaborationError(
                    f"replication count {expr.count} is not positive")
            return expr.count * self.self_width(expr.operand)
        if isinstance(expr, Select):
            high = self._const(expr.high)
            low = self._const(expr.low)
            return abs(high - low) + 1
        raise ElaborationError(f"cannot determine width of {expr!r}")

    def _is_signed(self, expr: Expr) -> bool:
        if isinstance(expr, Identifier) and expr.name in self.signals:
            return self.signals[expr.name].is_signed
        if isinstance(expr, (Unary,)):
            return expr.op in ("-", "~") and self._is_signed(expr.operand)
        if isinstance(expr, Binary) and expr.op in ("+", "-", "*", "&", "|", "^"):
            return self._is_signed(expr.left) and self._is_signed(expr.right)
        return False

    def _const(self, expr: Expr) -> int:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Identifier) and expr.name in self.parameters:
            return self.parameters[expr.name]
        if isinstance(expr, Binary):
            left, right = self._const(expr.left), self._const(expr.right)
            table = {"+": left + right, "-": left - right, "*": left * right,
                     "/": left // right if right else 0}
            if expr.op in table:
                return table[expr.op]
        raise ElaborationError(f"expected a constant expression, got {expr!r}")

    # ------------------------------------------------------------------ #
    # Expression building
    # ------------------------------------------------------------------ #
    def _resize(self, value: BVExpr, width: int, signed: bool) -> BVExpr:
        if value.width == width:
            return value
        if value.width > width:
            return bvextract(width - 1, 0, value)
        extra = width - value.width
        return sign_extend(value, extra) if signed else zero_extend(value, extra)

    def build(self, expr: Expr, width: int, env: Mapping[str, BVExpr]) -> BVExpr:
        """Build a solver expression of exactly ``width`` bits for ``expr``.

        Verilog's context-determined sizing means an expression is evaluated
        at the *larger* of the assignment width and its own self-determined
        width, and only then truncated or extended to the target.  We apply
        that rule here so that e.g. ``assign o = (INIT >> addr) & 1'b1;``
        with a 1-bit ``o`` still evaluates the shift at the width of
        ``INIT``.
        """
        self_width = self.self_width(expr)
        if self_width > width:
            wide = self._build_core(expr, self_width, env)
            return self._resize(wide, width, self._is_signed(expr))
        return self._build_core(expr, width, env)

    def _build_core(self, expr: Expr, width: int, env: Mapping[str, BVExpr]) -> BVExpr:
        if isinstance(expr, Number):
            return bv(expr.value, width)
        if isinstance(expr, Identifier):
            if expr.name in self.parameters:
                return bv(self.parameters[expr.name], width)
            signal = self._signal(expr.name)
            base = env.get(expr.name, bvvar(expr.name, signal.width))
            return self._resize(base, width, signal.is_signed)
        if isinstance(expr, Unary):
            return self._build_unary(expr, width, env)
        if isinstance(expr, Binary):
            return self._build_binary(expr, width, env)
        if isinstance(expr, Ternary):
            condition = self._condition(expr.condition, env)
            return bvite(condition,
                         self.build(expr.if_true, width, env),
                         self.build(expr.if_false, width, env))
        if isinstance(expr, Concat):
            parts = [self.build(part, self.self_width(part), env) for part in expr.parts]
            return self._resize(bvconcat(*parts), width, signed=False)
        if isinstance(expr, Replicate):
            part_width = self.self_width(expr.operand)
            part = self.build(expr.operand, part_width, env)
            return self._resize(bvconcat(*([part] * expr.count)), width, signed=False)
        if isinstance(expr, Select):
            high, low = self._const(expr.high), self._const(expr.low)
            operand = self.build(expr.operand, self.self_width(expr.operand), env)
            if not 0 <= low <= high < operand.width:
                raise ElaborationError(
                    f"select [{high}:{low}] is out of range: the operand "
                    f"has bits [{operand.width - 1}:0]")
            return self._resize(bvextract(high, low, operand), width, signed=False)
        raise ElaborationError(f"unsupported expression {expr!r}")

    def _condition(self, expr: Expr, env: Mapping[str, BVExpr]) -> BVExpr:
        value = self.build(expr, self.self_width(expr), env)
        if value.width == 1:
            return value
        return bvredor(value)

    def _build_unary(self, expr: Unary, width: int, env: Mapping[str, BVExpr]) -> BVExpr:
        if expr.op == "~":
            return bvnot(self.build(expr.operand, width, env))
        if expr.op == "-":
            return bvneg(self.build(expr.operand, width, env))
        if expr.op == "!":
            inner = self._condition(expr.operand, env)
            return self._resize(bvnot(inner), width, signed=False)
        operand = self.build(expr.operand, self.self_width(expr.operand), env)
        if expr.op == "&":
            return self._resize(bvredand(operand), width, signed=False)
        if expr.op == "|":
            return self._resize(bvredor(operand), width, signed=False)
        if expr.op == "^":
            result = bvextract(0, 0, operand)
            for index in range(1, operand.width):
                result = bvxor(result, bvextract(index, index, operand))
            return self._resize(result, width, signed=False)
        raise ElaborationError(f"unsupported unary operator {expr.op!r}")

    def _build_binary(self, expr: Binary, width: int, env: Mapping[str, BVExpr]) -> BVExpr:
        op = expr.op
        if op in ("+", "-", "*", "&", "|", "^", "~^", "^~"):
            left = self.build(expr.left, width, env)
            right = self.build(expr.right, width, env)
            table = {"+": bvadd, "-": bvsub, "*": bvmul, "&": bvand, "|": bvor,
                     "^": bvxor, "~^": bvxnor, "^~": bvxnor}
            return table[op](left, right)
        if op in ("<<", ">>", ">>>"):
            left = self.build(expr.left, width, env)
            shift_width = self.self_width(expr.right)
            right = self.build(expr.right, shift_width, env)
            right = self._resize(right, width, signed=False)
            table = {"<<": bvshl, ">>": bvlshr, ">>>": bvashr}
            return table[op](left, right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            operand_width = max(self.self_width(expr.left), self.self_width(expr.right))
            signed = self._is_signed(expr.left) and self._is_signed(expr.right)
            left = self.build(expr.left, operand_width, env)
            right = self.build(expr.right, operand_width, env)
            if signed:
                table = {"==": bveq, "!=": bvne, "<": bvslt, "<=": bvsle,
                         ">": bvsgt, ">=": bvsge}
            else:
                table = {"==": bveq, "!=": bvne, "<": bvult, "<=": bvule,
                         ">": bvugt, ">=": bvuge}
            return self._resize(table[op](left, right), width, signed=False)
        if op in ("&&", "||"):
            left = self._condition(expr.left, env)
            right = self._condition(expr.right, env)
            combined = bvand(left, right) if op == "&&" else bvor(left, right)
            return self._resize(combined, width, signed=False)
        raise ElaborationError(f"unsupported binary operator {op!r}")

    # ------------------------------------------------------------------ #
    # Module evaluation
    # ------------------------------------------------------------------ #
    def _wire_expression(self, name: str) -> BVExpr:
        """The defining expression of a wire, with wire-to-wire references
        resolved recursively and memoised (combinational loops are rejected)."""
        cache = self._wire_cache
        if name in cache:
            return cache[name]
        if name in self._wire_visiting:
            raise ElaborationError(f"combinational loop through wire {name!r}")
        signal = self._signal(name)
        definition = self.wire_defs.get(name)
        if definition is None:
            # Undriven wire: treat as an input-like free variable.
            result = bvvar(name, signal.width)
        else:
            self._wire_visiting.add(name)
            try:
                result = self.build(definition, signal.width, self._lazy_env)
            finally:
                self._wire_visiting.discard(name)
        cache[name] = result
        return result

    def run(self) -> TransitionSystem:
        module = self.module

        # Continuous assignments define wires (possibly by slices).
        sliced: Dict[str, List[Tuple[int, int, Expr]]] = {}
        for assign in module.assigns:
            if assign.high is None:
                if assign.target in self.wire_defs:
                    raise ElaborationError(f"wire {assign.target!r} assigned twice")
                self.wire_defs[assign.target] = assign.value
            else:
                sliced.setdefault(assign.target, []).append(
                    (assign.high, assign.low, assign.value))
        # Initialised net declarations behave like continuous assigns.
        for net in module.nets:
            if net.init is not None and net.kind == "wire":
                self.wire_defs[net.name] = net.init

        if sliced:
            raise ElaborationError("part-select assignment targets are not supported")

        # Always blocks: gather next-value expressions for registers.
        for block in module.always_blocks:
            self._process_always(block)

        # Resolve everything into a transition system.
        system = TransitionSystem(name=module.name)
        for port in module.input_ports():
            system.inputs[port.name] = port.width

        env = self._lazy_env

        register_names = set(self.reg_next)
        for name in register_names:
            signal = self._signal(name)
            system.states[name] = (signal.width, signal.init)
        for name, next_hdl_expr in self.reg_next.items():
            signal = self._signal(name)
            system.next_functions[name] = self.build(next_hdl_expr, signal.width, env)

        for port in module.output_ports():
            signal = self._signal(port.name)
            if port.name in register_names:
                system.outputs[port.name] = bvvar(port.name, signal.width)
            elif port.name in self.wire_defs:
                system.outputs[port.name] = self._wire_expression(port.name)
            else:
                raise ElaborationError(f"output {port.name!r} is never driven")
        return system

    # ------------------------------------------------------------------ #
    def _process_always(self, block: AlwaysBlock) -> None:
        """Convert one always block into register next-value expressions."""
        # Blocking assignments act as combinational temporaries local to the
        # block; we track them in a symbolic environment of HDL expressions
        # by substituting eagerly (sufficient for the supported subset).
        updates: Dict[str, Expr] = {}
        self._process_statements(block.body, condition=None, updates=updates)
        for target, expression in updates.items():
            if target in self.reg_next:
                raise ElaborationError(f"register {target!r} driven from two always blocks")
            self.reg_next[target] = expression

    def _process_statements(self, statements: Tuple[Statement, ...],
                            condition: Optional[Expr],
                            updates: Dict[str, Expr]) -> None:
        for statement in statements:
            if isinstance(statement, (NonBlockingAssign, BlockingAssign)):
                value = statement.value
                previous = updates.get(statement.target, Identifier(statement.target))
                if condition is not None:
                    value = Ternary(condition, value, previous)
                updates[statement.target] = value
            elif isinstance(statement, IfStatement):
                then_condition = statement.condition if condition is None else \
                    Binary("&&", condition, statement.condition)
                self._process_statements(statement.then_body, then_condition, updates)
                if statement.else_body:
                    not_condition = Unary("!", statement.condition)
                    else_condition = not_condition if condition is None else \
                        Binary("&&", condition, not_condition)
                    self._process_statements(statement.else_body, else_condition, updates)
            else:
                raise ElaborationError(f"unsupported statement {statement!r}")


def elaborate(module: ModuleDecl,
              parameter_overrides: Optional[Mapping[str, int]] = None) -> TransitionSystem:
    """Elaborate a parsed module into a word-level transition system."""
    return _Elaborator(module, parameter_overrides).run()
