"""Smart constructors for bitvector expressions.

Every constructor performs local rewriting before interning the node:
constant folding, identity/annihilator elimination, mux collapsing, and
pushing extracts through concats and extensions.  This keeps the DAGs that
reach the bit-blaster small and — crucially for the synthesis workload —
lets a fully configured FPGA primitive (whose control inputs are concrete)
collapse down to the plain arithmetic datapath it implements, so that the
equivalence checker can often discharge queries structurally.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bv.ast import BVExpr, COMMUTATIVE_OPS
from repro.bv.ops import apply_op, mask, truncate

__all__ = [
    "bv",
    "bvvar",
    "bvadd",
    "bvsub",
    "bvmul",
    "bvneg",
    "bvnot",
    "bvand",
    "bvor",
    "bvxor",
    "bvxnor",
    "bvshl",
    "bvlshr",
    "bvashr",
    "bvconcat",
    "bvextract",
    "bvite",
    "bveq",
    "bvne",
    "bvult",
    "bvule",
    "bvugt",
    "bvuge",
    "bvslt",
    "bvsle",
    "bvsgt",
    "bvsge",
    "bvredand",
    "bvredor",
    "zero_extend",
    "sign_extend",
]


# --------------------------------------------------------------------------- #
# Leaves
# --------------------------------------------------------------------------- #
def bv(value: int, width: int) -> BVExpr:
    """A constant bitvector of the given width (value is masked)."""
    return BVExpr("const", width, value=truncate(value, width))


def bvvar(name: str, width: int) -> BVExpr:
    """A free bitvector variable."""
    if not name:
        raise ValueError("variable name must be non-empty")
    return BVExpr("var", width, name=name)


def _check_same_width(*exprs: BVExpr) -> int:
    width = exprs[0].width
    for e in exprs[1:]:
        if e.width != width:
            raise ValueError(
                f"width mismatch: {width} vs {e.width} in {[x.to_sexpr(2) for x in exprs]}"
            )
    return width


def _is_const_mux_tree(expr: BVExpr, depth: int = 6) -> bool:
    """True if ``expr`` is a constant, or an ite whose branches are
    (recursively) constant mux trees.

    These appear whenever a primitive's datapath is evaluated on *concrete*
    inputs with *symbolic* configuration holes — the CEGIS candidate step.
    Distributing operators over such trees lets the arithmetic fold away to
    constants, so candidate queries stay small mux networks over hole bits
    instead of symbolic multipliers.
    """
    if depth <= 0:
        return False
    if expr.is_const():
        return True
    if expr.op == "ite":
        return (_is_const_mux_tree(expr.args[1], depth - 1)
                and _is_const_mux_tree(expr.args[2], depth - 1))
    return False


def _distribute_over_mux(op: str, width: int, args: Sequence[BVExpr], params) -> Optional[BVExpr]:
    """If some argument is a constant mux tree (and not a plain constant),
    distribute the operator over its ite; returns None when the rule does
    not apply."""
    for index, arg in enumerate(args):
        if arg.op == "ite" and _is_const_mux_tree(arg):
            condition, on_true, on_false = arg.args
            left = list(args)
            right = list(args)
            left[index] = on_true
            right[index] = on_false
            return bvite(condition,
                         _fold(op, width, left, params),
                         _fold(op, width, right, params))
    return None


def _fold(op: str, width: int, args: Sequence[BVExpr], params=()) -> BVExpr:
    """Build a node, constant-folding if every argument is constant."""
    if all(a.is_const() for a in args):
        value = apply_op(op, width, [a.value for a in args], [a.width for a in args], params)
        return bv(value, width)
    if op == "mul":
        # Only multiplication is worth distributing over constant mux trees:
        # it is by far the most expensive operator to bit-blast, and the
        # CEGIS candidate step (concrete data, symbolic configuration holes)
        # otherwise produces a symbolic multiplier per example.  Cheaper
        # operators are left alone to avoid duplicating sub-DAGs.
        distributed = _distribute_over_mux(op, width, args, params)
        if distributed is not None:
            return distributed
    ordered = tuple(args)
    if op in COMMUTATIVE_OPS:
        # Canonicalise argument order so that commuted expressions intern to
        # the same node (constants last, then by hash — which is
        # process-independent, see repro.bv.ast._string_hash, so the order
        # and every downstream program fingerprint agree across processes).
        ordered = tuple(sorted(args, key=lambda a: (a.is_const(), a._hash)))
    return BVExpr(op, width, ordered, params=params)


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
def bvadd(*args: BVExpr) -> BVExpr:
    width = _check_same_width(*args)
    consts = [a for a in args if a.is_const()]
    rest = [a for a in args if not a.is_const()]
    const_sum = truncate(sum(c.value for c in consts), width) if consts else 0
    if not rest:
        return bv(const_sum, width)
    if const_sum != 0:
        rest.append(bv(const_sum, width))
    if len(rest) == 1:
        return rest[0]
    return _fold("add", width, rest)


def bvsub(a: BVExpr, b: BVExpr) -> BVExpr:
    width = _check_same_width(a, b)
    if b.is_zero():
        return a
    if a is b:
        return bv(0, width)
    return _fold("sub", width, (a, b))


def bvmul(*args: BVExpr) -> BVExpr:
    width = _check_same_width(*args)
    if any(a.is_zero() for a in args):
        return bv(0, width)
    rest = [a for a in args if not (a.is_const() and a.value == 1)]
    if not rest:
        return bv(1, width)
    if len(rest) == 1:
        return rest[0]
    return _fold("mul", width, rest)


def bvneg(a: BVExpr) -> BVExpr:
    if a.is_const():
        return bv(-a.value, a.width)
    return _fold("neg", a.width, (a,))


# --------------------------------------------------------------------------- #
# Bitwise logic
# --------------------------------------------------------------------------- #
def bvnot(a: BVExpr) -> BVExpr:
    if a.is_const():
        return bv(~a.value, a.width)
    if a.op == "not":
        return a.args[0]
    return _fold("not", a.width, (a,))


def bvand(*args: BVExpr) -> BVExpr:
    width = _check_same_width(*args)
    if any(a.is_zero() for a in args):
        return bv(0, width)
    rest = [a for a in args if not a.is_ones()]
    if not rest:
        return bv(mask(width), width)
    if len(rest) == 1:
        return rest[0]
    if len(set(rest)) == 1:
        return rest[0]
    return _fold("and", width, tuple(dict.fromkeys(rest)))


def bvor(*args: BVExpr) -> BVExpr:
    width = _check_same_width(*args)
    if any(a.is_ones() for a in args):
        return bv(mask(width), width)
    rest = [a for a in args if not a.is_zero()]
    if not rest:
        return bv(0, width)
    if len(rest) == 1:
        return rest[0]
    if len(set(rest)) == 1:
        return rest[0]
    return _fold("or", width, tuple(dict.fromkeys(rest)))


def bvxor(*args: BVExpr) -> BVExpr:
    width = _check_same_width(*args)
    rest = [a for a in args if not a.is_zero()]
    if not rest:
        return bv(0, width)
    if len(rest) == 1:
        return rest[0]
    if len(rest) == 2 and rest[0] is rest[1]:
        return bv(0, width)
    return _fold("xor", width, rest)


def bvxnor(a: BVExpr, b: BVExpr) -> BVExpr:
    width = _check_same_width(a, b)
    if a is b:
        return bv(mask(width), width)
    return _fold("xnor", width, (a, b))


# --------------------------------------------------------------------------- #
# Shifts
# --------------------------------------------------------------------------- #
def bvshl(a: BVExpr, amount: BVExpr) -> BVExpr:
    if amount.is_zero():
        return a
    return _fold("shl", a.width, (a, amount))


def bvlshr(a: BVExpr, amount: BVExpr) -> BVExpr:
    if amount.is_zero():
        return a
    return _fold("lshr", a.width, (a, amount))


def bvashr(a: BVExpr, amount: BVExpr) -> BVExpr:
    if amount.is_zero():
        return a
    return _fold("ashr", a.width, (a, amount))


# --------------------------------------------------------------------------- #
# Structure: concat / extract / extension
# --------------------------------------------------------------------------- #
def bvconcat(*args: BVExpr) -> BVExpr:
    """Concatenate bitvectors; the first argument becomes the most significant."""
    if not args:
        raise ValueError("concat requires at least one argument")
    flat: list[BVExpr] = []
    for a in args:
        if a.op == "concat":
            flat.extend(a.args)
        else:
            flat.append(a)
    # Merge adjacent constants.
    merged: list[BVExpr] = []
    for a in flat:
        if merged and merged[-1].is_const() and a.is_const():
            prev = merged.pop()
            merged.append(bv((prev.value << a.width) | a.value, prev.width + a.width))
        else:
            merged.append(a)
    if len(merged) == 1:
        return merged[0]
    width = sum(a.width for a in merged)
    return BVExpr("concat", width, tuple(merged))


#: ``bvextract`` results keyed on ``(hi, lo, node)``.  Nodes are interned,
#: so the rewrite is a pure function of its arguments and a hit is the very
#: node the recursion would build again.  Without the memo an extract walks
#: every path of a shared DAG instead of every node once.  It lives as long
#: as the intern table; ``reset_intern_table`` clears both.
_EXTRACT_MEMO: dict = {}


def bvextract(hi: int, lo: int, a: BVExpr) -> BVExpr:
    """Extract bits ``hi`` down to ``lo`` (inclusive, 0-indexed from the LSB)."""
    key = (hi, lo, a)
    result = _EXTRACT_MEMO.get(key)
    if result is None:
        result = _EXTRACT_MEMO[key] = _extract(hi, lo, a)
    return result


def _extract(hi: int, lo: int, a: BVExpr) -> BVExpr:
    """The rewrite rules behind :func:`bvextract` (which memoizes them)."""
    if not (0 <= lo <= hi < a.width):
        raise ValueError(f"bad extract [{hi}:{lo}] from width {a.width}")
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const():
        return bv((a.value >> lo) & mask(width), width)
    if a.op == "extract":
        _inner_hi, inner_lo = a.params
        return bvextract(inner_lo + hi, inner_lo + lo, a.args[0])
    if a.op in ("and", "or", "xor", "xnor", "not"):
        # Bitwise operators commute with extraction.
        return _apply(a.op, [bvextract(hi, lo, arg) for arg in a.args])
    if a.op == "ite":
        return bvite(a.args[0], bvextract(hi, lo, a.args[1]), bvextract(hi, lo, a.args[2]))
    if lo == 0 and a.op in ("add", "sub", "mul", "neg"):
        # The low bits of modular arithmetic depend only on the low bits of
        # the operands, so a low-part extract can be pushed inside.  This is
        # the rule that collapses a zero-extended DSP datapath back down to
        # the narrow specification width.
        return _apply(a.op, [bvextract(hi, 0, arg) for arg in a.args])
    if a.op == "concat":
        # Walk the concat parts from the least-significant end.
        parts = list(a.args)
        pieces: list[BVExpr] = []
        offset = 0
        for part in reversed(parts):
            part_lo, part_hi = offset, offset + part.width - 1
            if part_hi < lo or part_lo > hi:
                offset += part.width
                continue
            take_lo = max(lo, part_lo) - part_lo
            take_hi = min(hi, part_hi) - part_lo
            pieces.append(bvextract(take_hi, take_lo, part))
            offset += part.width
        pieces.reverse()
        return bvconcat(*pieces)
    return BVExpr("extract", width, (a,), params=(hi, lo))


def zero_extend(a: BVExpr, extra_bits: int) -> BVExpr:
    """Extend ``a`` with ``extra_bits`` zero bits at the top."""
    if extra_bits < 0:
        raise ValueError("extra_bits must be non-negative")
    if extra_bits == 0:
        return a
    return bvconcat(bv(0, extra_bits), a)


def sign_extend(a: BVExpr, extra_bits: int) -> BVExpr:
    """Extend ``a`` with ``extra_bits`` copies of its sign bit at the top."""
    if extra_bits < 0:
        raise ValueError("extra_bits must be non-negative")
    if extra_bits == 0:
        return a
    sign = bvextract(a.width - 1, a.width - 1, a)
    if sign.is_const():
        fill = bv(mask(extra_bits) if sign.value else 0, extra_bits)
        return bvconcat(fill, a)
    replicated = bvconcat(*([sign] * extra_bits))
    return bvconcat(replicated, a)


# --------------------------------------------------------------------------- #
# Selection and predicates
# --------------------------------------------------------------------------- #
def bvite(cond: BVExpr, then_e: BVExpr, else_e: BVExpr) -> BVExpr:
    """Word-level if-then-else; ``cond`` must be a 1-bit expression."""
    if cond.width != 1:
        raise ValueError(f"ite condition must be 1-bit, got width {cond.width}")
    _check_same_width(then_e, else_e)
    if cond.is_const():
        return then_e if cond.value else else_e
    if then_e is else_e:
        return then_e
    return BVExpr("ite", then_e.width, (cond, then_e, else_e))


def _predicate(op: str, a: BVExpr, b: BVExpr) -> BVExpr:
    _check_same_width(a, b)
    if a.is_const() and b.is_const():
        return bv(apply_op(op, 1, [a.value, b.value], [a.width, b.width]), 1)
    if a is b:
        if op in ("eq", "ule", "uge", "sle", "sge"):
            return bv(1, 1)
        if op in ("ne", "ult", "ugt", "slt", "sgt"):
            return bv(0, 1)
    return _fold(op, 1, (a, b))


def bveq(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("eq", a, b)


def bvne(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("ne", a, b)


def bvult(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("ult", a, b)


def bvule(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("ule", a, b)


def bvugt(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("ugt", a, b)


def bvuge(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("uge", a, b)


def bvslt(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("slt", a, b)


def bvsle(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("sle", a, b)


def bvsgt(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("sgt", a, b)


def bvsge(a: BVExpr, b: BVExpr) -> BVExpr:
    return _predicate("sge", a, b)


def _apply(op: str, args: Sequence[BVExpr]) -> BVExpr:
    """Dispatch to the smart constructor for ``op`` (used by rewrite rules)."""
    constructors = {
        "add": bvadd,
        "sub": bvsub,
        "mul": bvmul,
        "neg": bvneg,
        "not": bvnot,
        "and": bvand,
        "or": bvor,
        "xor": bvxor,
        "xnor": bvxnor,
    }
    return constructors[op](*args)


def bvredand(a: BVExpr) -> BVExpr:
    if a.is_const():
        return bv(1 if a.value == mask(a.width) else 0, 1)
    if a.width == 1:
        return a
    return _fold("redand", 1, (a,))


def bvredor(a: BVExpr) -> BVExpr:
    if a.is_const():
        return bv(1 if a.value else 0, 1)
    if a.width == 1:
        return a
    return _fold("redor", 1, (a,))
