"""Bit-blasting: word-level bitvector expressions down to an AIG.

Each :class:`~repro.bv.ast.BVExpr` node maps to a vector of AIG literals
(least-significant bit first).  The construction is deterministic, so two
occurrences of the same word-level structure produce the same AIG nodes and
merge under structural hashing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bv.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.bv.ast import BVExpr
from repro.bv.cnf import IncrementalCnf

__all__ = ["BitBlaster", "IncrementalContext", "bitblast"]

Bits = List[int]


class BitBlaster:
    """Translate bitvector expression DAGs into a shared AIG."""

    def __init__(self, aig: AIG | None = None) -> None:
        self.aig = aig if aig is not None else AIG()
        self._cache: Dict[BVExpr, Bits] = {}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def blast(self, expr: BVExpr) -> Bits:
        """Return the literal vector (LSB first) for ``expr``."""
        for node in expr.iter_dag():
            if node not in self._cache:
                self._cache[node] = self._blast_node(node)
        return self._cache[expr]

    def input_bit_name(self, var_name: str, bit: int) -> str:
        return f"{var_name}[{bit}]"

    # ------------------------------------------------------------------ #
    # Per-node translation
    # ------------------------------------------------------------------ #
    def _blast_node(self, node: BVExpr) -> Bits:
        op = node.op
        if op == "const":
            return [TRUE_LIT if (node.value >> i) & 1 else FALSE_LIT for i in range(node.width)]
        if op == "var":
            return [self.aig.add_input(self.input_bit_name(node.name, i))
                    for i in range(node.width)]
        args = [self._cache[a] for a in node.args]
        widths = [a.width for a in node.args]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"bit-blasting not implemented for operator {op!r}")
        return handler(node, args, widths)

    # -- bitwise ---------------------------------------------------------- #
    def _op_not(self, node, args, widths) -> Bits:
        return [self.aig.negate(b) for b in args[0]]

    def _map2(self, gate, vectors: List[Bits]) -> Bits:
        result = vectors[0]
        for vec in vectors[1:]:
            result = [gate(a, b) for a, b in zip(result, vec)]
        return result

    def _op_and(self, node, args, widths) -> Bits:
        return self._map2(self.aig.and_gate, args)

    def _op_or(self, node, args, widths) -> Bits:
        return self._map2(self.aig.or_gate, args)

    def _op_xor(self, node, args, widths) -> Bits:
        return self._map2(self.aig.xor_gate, args)

    def _op_xnor(self, node, args, widths) -> Bits:
        return self._map2(self.aig.xnor_gate, args)

    # -- arithmetic -------------------------------------------------------- #
    def _ripple_add(self, a: Bits, b: Bits, carry_in: int) -> Bits:
        result: Bits = []
        carry = carry_in
        for abit, bbit in zip(a, b):
            s = self.aig.xor_gate(self.aig.xor_gate(abit, bbit), carry)
            carry = self.aig.or_gate(
                self.aig.and_gate(abit, bbit),
                self.aig.and_gate(carry, self.aig.xor_gate(abit, bbit)),
            )
            result.append(s)
        return result

    def _op_add(self, node, args, widths) -> Bits:
        result = args[0]
        for vec in args[1:]:
            result = self._ripple_add(result, vec, FALSE_LIT)
        return result

    def _op_sub(self, node, args, widths) -> Bits:
        a, b = args
        not_b = [self.aig.negate(x) for x in b]
        return self._ripple_add(a, not_b, TRUE_LIT)

    def _op_neg(self, node, args, widths) -> Bits:
        zero = [FALSE_LIT] * node.width
        not_a = [self.aig.negate(x) for x in args[0]]
        return self._ripple_add(zero, not_a, TRUE_LIT)

    def _mul2(self, a: Bits, b: Bits, width: int) -> Bits:
        """Shift-and-add multiplier truncated to ``width`` bits."""
        accumulator = [FALSE_LIT] * width
        for shift, bbit in enumerate(b):
            if shift >= width or bbit == FALSE_LIT:
                continue
            partial = [FALSE_LIT] * shift + [self.aig.and_gate(abit, bbit)
                                             for abit in a[: width - shift]]
            accumulator = self._ripple_add(accumulator, partial, FALSE_LIT)
        return accumulator

    def _op_mul(self, node, args, widths) -> Bits:
        result = args[0]
        for vec in args[1:]:
            result = self._mul2(result, vec, node.width)
        return result

    # -- shifts ------------------------------------------------------------ #
    def _shift_const(self, a: Bits, amount: int, direction: str, fill: int) -> Bits:
        width = len(a)
        if amount >= width:
            return [fill] * width
        if direction == "left":
            return [FALSE_LIT] * amount + a[: width - amount]
        return a[amount:] + [fill] * amount

    def _barrel(self, node, a: Bits, sh: Bits, direction: str, fill_from_sign: bool) -> Bits:
        width = len(a)
        fill = a[-1] if fill_from_sign else FALSE_LIT
        current = a
        for stage, sel in enumerate(sh):
            shift_by = 1 << stage
            if shift_by >= width:
                shifted = [fill] * width
            else:
                shifted = self._shift_const(current, shift_by, direction, fill)
            current = [self.aig.mux(sel, s, c) for s, c in zip(shifted, current)]
        return current

    def _op_shl(self, node, args, widths) -> Bits:
        a, sh = args
        sh_expr = node.args[1]
        if sh_expr.is_const():
            return self._shift_const(a, sh_expr.value, "left", FALSE_LIT)
        return self._barrel(node, a, sh, "left", False)

    def _op_lshr(self, node, args, widths) -> Bits:
        a, sh = args
        sh_expr = node.args[1]
        if sh_expr.is_const():
            return self._shift_const(a, sh_expr.value, "right", FALSE_LIT)
        return self._barrel(node, a, sh, "right", False)

    def _op_ashr(self, node, args, widths) -> Bits:
        a, sh = args
        sh_expr = node.args[1]
        if sh_expr.is_const():
            return self._shift_const(a, sh_expr.value, "right", a[-1])
        return self._barrel(node, a, sh, "right", True)

    # -- structure ---------------------------------------------------------- #
    def _op_concat(self, node, args, widths) -> Bits:
        # Arguments are most-significant first; bit vectors are LSB first.
        result: Bits = []
        for vec in reversed(args):
            result.extend(vec)
        return result

    def _op_extract(self, node, args, widths) -> Bits:
        hi, lo = node.params
        return args[0][lo : hi + 1]

    def _op_ite(self, node, args, widths) -> Bits:
        cond, then_bits, else_bits = args
        sel = cond[0]
        return [self.aig.mux(sel, t, e) for t, e in zip(then_bits, else_bits)]

    # -- predicates ---------------------------------------------------------- #
    def _equal(self, a: Bits, b: Bits) -> int:
        return self.aig.and_many([self.aig.xnor_gate(x, y) for x, y in zip(a, b)])

    def _op_eq(self, node, args, widths) -> Bits:
        return [self._equal(args[0], args[1])]

    def _op_ne(self, node, args, widths) -> Bits:
        return [self.aig.negate(self._equal(args[0], args[1]))]

    def _unsigned_less(self, a: Bits, b: Bits) -> int:
        """a < b, unsigned, via the borrow bit of a - b."""
        less = FALSE_LIT
        for abit, bbit in zip(a, b):
            eq = self.aig.xnor_gate(abit, bbit)
            less = self.aig.or_gate(
                self.aig.and_gate(self.aig.negate(abit), bbit),
                self.aig.and_gate(eq, less),
            )
        return less

    def _signed_less(self, a: Bits, b: Bits) -> int:
        sign_a, sign_b = a[-1], b[-1]
        diff_sign = self.aig.and_gate(sign_a, self.aig.negate(sign_b))
        same_sign = self.aig.xnor_gate(sign_a, sign_b)
        return self.aig.or_gate(diff_sign,
                                self.aig.and_gate(same_sign, self._unsigned_less(a, b)))

    def _op_ult(self, node, args, widths) -> Bits:
        return [self._unsigned_less(args[0], args[1])]

    def _op_ule(self, node, args, widths) -> Bits:
        return [self.aig.negate(self._unsigned_less(args[1], args[0]))]

    def _op_ugt(self, node, args, widths) -> Bits:
        return [self._unsigned_less(args[1], args[0])]

    def _op_uge(self, node, args, widths) -> Bits:
        return [self.aig.negate(self._unsigned_less(args[0], args[1]))]

    def _op_slt(self, node, args, widths) -> Bits:
        return [self._signed_less(args[0], args[1])]

    def _op_sle(self, node, args, widths) -> Bits:
        return [self.aig.negate(self._signed_less(args[1], args[0]))]

    def _op_sgt(self, node, args, widths) -> Bits:
        return [self._signed_less(args[1], args[0])]

    def _op_sge(self, node, args, widths) -> Bits:
        return [self.aig.negate(self._signed_less(args[0], args[1]))]

    def _op_redand(self, node, args, widths) -> Bits:
        return [self.aig.and_many(args[0])]

    def _op_redor(self, node, args, widths) -> Bits:
        return [self.aig.or_many(args[0])]


class IncrementalContext:
    """One persistent AIG + CNF namespace shared across solver queries.

    The context owns a single :class:`AIG`, the :class:`BitBlaster` whose
    node cache fills it, and an :class:`~repro.bv.cnf.IncrementalCnf`
    mirroring it.  Because the blaster's cache and the AIG's structural
    hashing are deterministic, a word-level variable bit-blasts to the same
    AIG input — and therefore the same CNF literal — no matter how many
    expressions have been asserted in between, and each new assertion only
    appends the clauses of its own cone.
    """

    def __init__(self) -> None:
        self.aig = AIG()
        self.blaster = BitBlaster(self.aig)
        self.encoder = IncrementalCnf(self.aig)

    @property
    def cnf(self):
        """The shared CNF (grows monotonically; never rebuilt)."""
        return self.encoder.cnf

    def blast(self, expr: BVExpr) -> Bits:
        """Blast an expression into the shared namespace (no clauses yet)."""
        return self.blaster.blast(expr)

    def assert_true(self, expr: BVExpr) -> None:
        """Permanently constrain a 1-bit expression to hold."""
        if expr.width != 1:
            raise ValueError("only 1-bit expressions can be asserted")
        self.encoder.assert_lit(self.blaster.blast(expr)[0])

    def input_vars(self) -> Dict[str, int]:
        """Stable map from input bit names to CNF variable numbers."""
        return self.encoder.input_vars()


def bitblast(expr: BVExpr, aig: AIG | None = None) -> tuple[AIG, Bits]:
    """Convenience wrapper: blast a single expression into a fresh AIG."""
    blaster = BitBlaster(aig)
    bits = blaster.blast(expr)
    return blaster.aig, bits
