"""Bit-parallel (packed) simulation of bitvector expression DAGs.

The layered solve strategy spends its random-probe budget evaluating one
concrete assignment at a time.  This module evaluates K assignments
*simultaneously* — the classic bit-parallel random-simulation technique
from SAT-sweeping equivalence checkers: each W-bit variable is transposed
into W machine words where bit ``i`` of word ``b`` holds assignment ``i``'s
value of bit ``b``, and every DAG node then costs a handful of Python
bigint operations *total* instead of one ``apply_op`` call per assignment.

Kernels are word-parallel throughout:

* bitwise ops and mux are one bigint op per result bit;
* add/sub/neg ripple a packed carry word, compares ripple a borrow word;
* variable shifts run a packed barrel shifter (mux per shift-amount bit);
* mul is a packed shift-add at narrow widths and falls back to a per-lane
  native multiply (block-transpose out, multiply, transpose back) at
  :data:`MUL_LANEWISE_MIN_WIDTH` and above — the measured crossover where
  the shift-add's quadratic ripple work stops paying for itself (see
  ``benchmarks/bench_bitparallel_probe.py``).

Packing itself is a 64x64 bit-matrix block transpose on one big integer
(:func:`_transpose64`), not a per-bit scatter, so transposition costs a
few dozen bigint operations per variable per batch.

Semantics match :mod:`repro.bv.ops` lane-for-lane (the packed-vs-scalar
differential fuzz in ``tests/test_fuzz_differential.py`` holds it to
that), and :data:`PROBE_LANES` is the chunk size the probing consumers
batch at — 64 lanes so a hit is found (and deadlines are honoured) without
evaluating the whole probe budget.

Determinism contract: lanes are numbered by *batch position*, callers scan
hits in lane order (:func:`first_sat_lane` returns the lowest set lane),
and the probing consumers draw batches from the same seeded RNG streams as
the historical scalar loops — so the first satisfying lane is exactly the
first satisfying scalar probe, and packed probing walks the same CEGIS
trajectories the scalar loops did.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.bv.ast import BVExpr
from repro.bv.eval import var_widths

__all__ = [
    "PROBE_LANES",
    "PackedEvaluator",
    "pack_assignments",
    "unpack_lane",
    "first_sat_lane",
]

#: Lanes per probe batch: one machine word of assignments.  Consumers may
#: pass any lane count (Python ints are arbitrary precision) but chunking
#: at 64 keeps early-exit latency and deadline granularity at one word.
PROBE_LANES = 64

Words = List[int]

_WORD_MASK = (1 << 64) - 1


def _transpose_steps():
    """Delta/mask pairs for the in-place 64x64 bit-matrix transpose.

    The matrix lives row-major in one 4096-bit integer (bit ``r*64 + c`` is
    row ``r``, column ``c``).  Each step XOR-swaps the upper-right and
    lower-left ``j x j`` sub-blocks of every ``2j x 2j`` block — the
    Hacker's Delight divide-and-conquer transpose, with the bit pair
    ``(r, c) <-> (r+j, c-j)`` sitting ``j*63`` positions apart.
    """
    steps = []
    for j in (32, 16, 8, 4, 2, 1):
        col_word = 0
        for k in range(64 // (2 * j)):
            col_word |= ((1 << j) - 1) << (j + 2 * j * k)
        mask = 0
        for r in range(64):
            if r % (2 * j) < j:
                mask |= col_word << (r * 64)
        steps.append((j * 63, mask))
    return tuple(steps)


_TRANSPOSE_STEPS = _transpose_steps()


def _transpose64(x: int) -> int:
    """Transpose a 64x64 bit matrix held row-major in one integer."""
    for delta, mask in _TRANSPOSE_STEPS:
        t = ((x >> delta) ^ x) & mask
        x ^= t ^ (t << delta)
    return x


def _pack_values(values: Sequence[int], width: int) -> Words:
    """Bit-slice lane values (already width-masked) into packed words.

    Lanes and bit positions are both processed in 64-wide blocks: each
    block is laid out row-major (row = lane, column = value bit) in one
    big integer, transposed with :func:`_transpose64`, and its rows read
    back out as the result words — a handful of bigint operations instead
    of one Python-level bit scatter per set bit.
    """
    words = [0] * width
    for lane_base in range(0, len(values), 64):
        block = values[lane_base:lane_base + 64]
        for chunk in range(0, width, 64):
            rows = b"".join(((v >> chunk) & _WORD_MASK).to_bytes(8, "little")
                            for v in block)
            x = _transpose64(int.from_bytes(rows.ljust(512, b"\x00"), "little"))
            data = x.to_bytes(512, "little")
            for bit in range(min(64, width - chunk)):
                word = int.from_bytes(data[8 * bit:8 * bit + 8], "little")
                if word:
                    words[chunk + bit] |= word << lane_base
    return words


def _unpack_values(words: Sequence[int], lanes: int) -> List[int]:
    """The inverse of :func:`_pack_values`: per-lane values from words."""
    values = [0] * lanes
    for lane_base in range(0, lanes, 64):
        block_lanes = min(64, lanes - lane_base)
        for chunk in range(0, len(words), 64):
            rows = b"".join(((w >> lane_base) & _WORD_MASK).to_bytes(8, "little")
                            for w in words[chunk:chunk + 64])
            x = _transpose64(int.from_bytes(rows.ljust(512, b"\x00"), "little"))
            data = x.to_bytes(512, "little")
            for lane in range(block_lanes):
                value = int.from_bytes(data[8 * lane:8 * lane + 8], "little")
                if value:
                    values[lane_base + lane] |= value << chunk
    return values


def pack_assignments(assignments: Sequence[Mapping[str, int]],
                     widths: Mapping[str, int]) -> Dict[str, Words]:
    """Transpose assignments into per-variable bit-sliced lane words.

    ``result[name][b]`` has bit ``i`` set iff bit ``b`` of ``name`` is set
    in ``assignments[i]``.  Values are masked to their width, matching the
    scalar evaluator's treatment of oversized bindings.
    """
    packed: Dict[str, Words] = {}
    for name, width in widths.items():
        mask = (1 << width) - 1
        packed[name] = _pack_values(
            [assignment[name] & mask for assignment in assignments], width)
    return packed


def unpack_lane(words: Sequence[int], lane: int) -> int:
    """Read one lane's value back out of a packed word list."""
    value = 0
    for bit, word in enumerate(words):
        if (word >> lane) & 1:
            value |= 1 << bit
    return value


def first_sat_lane(word: int) -> int:
    """The lowest set lane of a 1-bit result word (-1 if none).

    Lanes are batch positions, so this is the packed equivalent of the
    scalar probe loop's "first satisfying assignment wins".
    """
    if not word:
        return -1
    return (word & -word).bit_length() - 1


# --------------------------------------------------------------------------- #
# Word-parallel kernels
# --------------------------------------------------------------------------- #
def _ripple_add(a: Words, b: Words, carry: int = 0) -> Words:
    """Packed ``a + b (+ carry)`` truncated to ``len(a)`` bits per lane."""
    out: Words = []
    for ab, bb in zip(a, b):
        axb = ab ^ bb
        out.append(axb ^ carry)
        carry = (ab & bb) | (carry & axb)
    return out


def _less_unsigned(a: Words, b: Words, m: int) -> int:
    """Packed unsigned ``a < b`` via the subtract-borrow chain (1-bit word)."""
    less = 0
    for ab, bb in zip(a, b):
        eq = (ab ^ bb) ^ m
        less = ((ab ^ m) & bb) | (eq & less)
    return less


def _less_signed(a: Words, b: Words, m: int) -> int:
    sign_a, sign_b = a[-1], b[-1]
    diff_sign = sign_a & (sign_b ^ m)
    same_sign = (sign_a ^ sign_b) ^ m
    return diff_sign | (same_sign & _less_unsigned(a, b, m))


#: Measured crossover for multiply (see ``lakeroad bench`` / the profiling
#: notes in ``benchmarks/bench_bitparallel_probe.py``): the packed
#: shift-add is O(width**2) word operations per node while the lane-wise
#: fallback is O(width) transpose work plus one native multiply per lane.
#: Shift-add wins while its quadratic term is small — measured at 2.8x
#: faster at width 8 and 1.5x at 16, with lane-wise 1.5x ahead by 24.
MUL_LANEWISE_MIN_WIDTH = 20


def _mul2(a: Words, b: Words, m: int) -> Words:
    """Packed shift-add multiply, truncated to ``len(a)`` bits per lane."""
    width = len(a)
    acc = [0] * width
    for shift, gate in enumerate(b[:width]):
        if not gate:
            continue
        partial = [0] * shift + [word & gate for word in a[:width - shift]]
        acc = _ripple_add(acc, partial)
    return acc


def _mul_lanewise(a: Words, b: Words, m: int) -> Words:
    """Per-lane multiply: transpose out, multiply natively, transpose back.

    Profitable for wide operands, where the shift-add kernel's quadratic
    ripple work dwarfs two fast block transposes and K native multiplies.
    """
    lanes = m.bit_length()
    width = len(a)
    mask = (1 << width) - 1
    return _pack_values([(x * y) & mask
                         for x, y in zip(_unpack_values(a, lanes),
                                         _unpack_values(b, lanes))], width)


def _mul(a: Words, b: Words, m: int) -> Words:
    if len(a) >= MUL_LANEWISE_MIN_WIDTH:
        return _mul_lanewise(a, b, m)
    return _mul2(a, b, m)


def _barrel(a: Words, sh: Words, direction: str, fill_from_sign: bool,
            m: int) -> Words:
    """Packed barrel shifter — per-lane variable shift amounts.

    Mirrors the bit-blaster's ``_barrel``: stage ``s`` conditionally
    shifts by ``2**s`` under the packed select word ``sh[s]``, the fill
    bit is the *original* sign for ``ashr`` and zero otherwise, and any
    cumulative shift at or beyond the width saturates to the fill — the
    exact :mod:`repro.bv.ops` semantics of out-of-range shifts.
    """
    width = len(a)
    fill = a[-1] if fill_from_sign else 0
    current = list(a)
    for stage, sel in enumerate(sh):
        shift_by = 1 << stage
        if shift_by >= width:
            shifted = [fill] * width
        elif direction == "left":
            shifted = [0] * shift_by + current[:width - shift_by]
        else:
            shifted = current[shift_by:] + [fill] * shift_by
        if not sel:
            continue
        if sel == m:
            current = shifted
        else:
            keep = sel ^ m
            current = [(s & sel) | (c & keep)
                       for s, c in zip(shifted, current)]
    return current


def _fold_bitwise(args: List[Words], combine) -> Words:
    out = list(args[0])
    for arg in args[1:]:
        out = [combine(x, y) for x, y in zip(out, arg)]
    return out


def _eval_packed(op: str, width: int, args: List[Words],
                 arg_widths: Sequence[int], params: Sequence[int],
                 m: int) -> Words:
    """Apply one operator to packed argument words (lane-parallel)."""
    if op == "and":
        return _fold_bitwise(args, lambda x, y: x & y)
    if op == "or":
        return _fold_bitwise(args, lambda x, y: x | y)
    if op == "xor":
        return _fold_bitwise(args, lambda x, y: x ^ y)
    if op == "xnor":
        return [(x ^ y) ^ m for x, y in zip(args[0], args[1])]
    if op == "not":
        return [word ^ m for word in args[0]]
    if op == "add":
        out = args[0]
        for arg in args[1:]:
            out = _ripple_add(out, arg)
        return out
    if op == "sub":
        return _ripple_add(args[0], [word ^ m for word in args[1]], carry=m)
    if op == "neg":
        return _ripple_add([word ^ m for word in args[0]], [0] * width, carry=m)
    if op == "mul":
        out = args[0]
        for arg in args[1:]:
            out = _mul(out, arg, m)
        return out
    if op == "ite":
        cond = args[0][0]
        keep = cond ^ m
        return [(t & cond) | (f & keep) for t, f in zip(args[1], args[2])]
    if op == "eq":
        diff = 0
        for x, y in zip(args[0], args[1]):
            diff |= x ^ y
        return [diff ^ m]
    if op == "ne":
        diff = 0
        for x, y in zip(args[0], args[1]):
            diff |= x ^ y
        return [diff]
    if op == "ult":
        return [_less_unsigned(args[0], args[1], m)]
    if op == "ule":
        return [_less_unsigned(args[1], args[0], m) ^ m]
    if op == "ugt":
        return [_less_unsigned(args[1], args[0], m)]
    if op == "uge":
        return [_less_unsigned(args[0], args[1], m) ^ m]
    if op == "slt":
        return [_less_signed(args[0], args[1], m)]
    if op == "sle":
        return [_less_signed(args[1], args[0], m) ^ m]
    if op == "sgt":
        return [_less_signed(args[1], args[0], m)]
    if op == "sge":
        return [_less_signed(args[0], args[1], m) ^ m]
    if op == "redand":
        word = m
        for bit in args[0]:
            word &= bit
        return [word]
    if op == "redor":
        word = 0
        for bit in args[0]:
            word |= bit
        return [word]
    if op == "shl":
        return _barrel(args[0], args[1], "left", False, m)
    if op == "lshr":
        return _barrel(args[0], args[1], "right", False, m)
    if op == "ashr":
        return _barrel(args[0], args[1], "right", True, m)
    if op == "concat":
        # args are most-significant first; packed words are LSB-first.
        out: Words = []
        for arg in reversed(args):
            out.extend(arg)
        return out
    if op == "extract":
        hi, lo = params
        return args[0][lo:hi + 1]
    raise ValueError(f"unknown bitvector operator: {op!r}")


class PackedEvaluator:
    """Evaluate one BVExpr DAG over many assignments simultaneously.

    Construction compiles the DAG into a flat instruction list (one slot
    per distinct node, children resolved to slot indices); each
    :meth:`evaluate` call then runs the straight-line program over packed
    lane words, so per-node Python overhead is paid once per *batch*
    instead of once per assignment.
    """

    def __init__(self, expr: BVExpr) -> None:
        self.expr = expr
        #: name -> width of the formula's free variables, in the same
        #: (memoized, discovery-order) iteration order the probing
        #: consumers draw assignments in.
        self.widths = var_widths(expr)
        slots: Dict[BVExpr, int] = {}
        instructions = []
        for node in expr.iter_dag():
            arg_slots = tuple(slots[arg] for arg in node.args)
            arg_widths = tuple(arg.width for arg in node.args)
            slots[node] = len(instructions)
            instructions.append((node.op, node.width, arg_slots, arg_widths,
                                 node.params, node.value, node.name))
        self._instructions = instructions

    # ------------------------------------------------------------------ #
    def evaluate(self, packed_env: Mapping[str, Words], lanes: int) -> Words:
        """Evaluate over a pre-packed environment; returns the root's words.

        ``packed_env`` maps each free variable to its ``width`` lane words
        (see :func:`pack_assignments`); ``lanes`` is the batch size K.
        """
        m = (1 << lanes) - 1
        values: List[Words] = []
        for op, width, arg_slots, arg_widths, params, value, name in \
                self._instructions:
            if op == "const":
                values.append([m if (value >> bit) & 1 else 0
                               for bit in range(width)])
            elif op == "var":
                values.append(packed_env[name])
            else:
                args = [values[slot] for slot in arg_slots]
                values.append(_eval_packed(op, width, args, arg_widths,
                                           params, m))
        return values[-1]

    def evaluate_batch(self, assignments: Sequence[Mapping[str, int]]) -> Words:
        """Pack a batch of scalar assignments and evaluate them all."""
        packed = pack_assignments(assignments, self.widths)
        return self.evaluate(packed, len(assignments))

    def sat_lanes(self, assignments: Sequence[Mapping[str, int]]) -> int:
        """The satisfied-lane word of a 1-bit formula over a batch.

        Bit ``i`` of the result is set iff ``assignments[i]`` satisfies
        the formula; scan with :func:`first_sat_lane` for the
        deterministic in-order winner.
        """
        if self.expr.width != 1:
            raise ValueError("sat_lanes needs a 1-bit (constraint) formula")
        return self.evaluate_batch(assignments)[0]
