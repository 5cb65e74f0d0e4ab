"""Unit and property-based tests for the bitvector expression substrate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.bv.builder as builder
from repro.bv import (
    bv, bvvar, bvadd, bvsub, bvmul, bvneg, bvnot, bvand, bvor, bvxor, bvxnor,
    bvshl, bvlshr, bvashr, bvconcat, bvextract, bvite, bveq, bvne, bvult,
    bvule, bvugt, bvuge, bvslt, bvsle, bvsgt, bvsge, bvredand, bvredor,
    zero_extend, sign_extend, evaluate, free_vars, simplify, substitute,
)
from repro.bv.ast import BVExpr
from repro.bv.ops import apply_op, mask, to_signed


class TestConstants:
    def test_constant_masking(self):
        assert bv(0x1ff, 8).value == 0xff

    def test_negative_constant_wraps(self):
        assert bv(-1, 8).value == 0xff

    def test_interning_makes_equal_constants_identical(self):
        assert bv(5, 8) is bv(5, 8)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            bv(0, 0)

    def test_variable_requires_name(self):
        with pytest.raises(ValueError):
            bvvar("", 4)


class TestLocalSimplification:
    def test_add_constant_folding(self):
        assert bvadd(bv(3, 8), bv(4, 8)) is bv(7, 8)

    def test_add_identity(self):
        a = bvvar("a", 8)
        assert bvadd(a, bv(0, 8)) is a

    def test_add_commutes_to_same_node(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        assert bvadd(a, b) is bvadd(b, a)

    def test_mul_by_zero(self):
        a = bvvar("a", 8)
        assert bvmul(a, bv(0, 8)).is_zero()

    def test_mul_by_one(self):
        a = bvvar("a", 8)
        assert bvmul(a, bv(1, 8)) is a

    def test_sub_self_is_zero(self):
        a = bvvar("a", 8)
        assert bvsub(a, a).is_zero()

    def test_and_with_zero(self):
        a = bvvar("a", 8)
        assert bvand(a, bv(0, 8)).is_zero()

    def test_and_with_ones(self):
        a = bvvar("a", 8)
        assert bvand(a, bv(0xff, 8)) is a

    def test_or_with_ones_saturates(self):
        a = bvvar("a", 8)
        assert bvor(a, bv(0xff, 8)).is_ones()

    def test_xor_self_is_zero(self):
        a = bvvar("a", 8)
        assert bvxor(a, a).is_zero()

    def test_double_negation(self):
        a = bvvar("a", 8)
        assert bvnot(bvnot(a)) is a

    def test_ite_constant_condition(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        assert bvite(bv(1, 1), a, b) is a
        assert bvite(bv(0, 1), a, b) is b

    def test_ite_same_branches(self):
        a = bvvar("a", 8)
        assert bvite(bvvar("c", 1), a, a) is a

    def test_eq_reflexive(self):
        a = bvvar("a", 8)
        assert bveq(a, a).is_true()

    def test_ne_reflexive(self):
        a = bvvar("a", 8)
        assert bvne(a, a).is_false()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bvadd(bvvar("a", 8), bvvar("b", 4))

    def test_ite_requires_one_bit_condition(self):
        with pytest.raises(ValueError):
            bvite(bvvar("c", 2), bvvar("a", 8), bvvar("b", 8))


class TestStructureOps:
    def test_concat_width(self):
        assert bvconcat(bvvar("a", 3), bvvar("b", 5)).width == 8

    def test_concat_constant_merge(self):
        assert bvconcat(bv(0b101, 3), bv(0b01, 2)) is bv(0b10101, 5)

    def test_extract_full_width_is_identity(self):
        a = bvvar("a", 8)
        assert bvextract(7, 0, a) is a

    def test_extract_of_constant(self):
        assert bvextract(3, 1, bv(0b1010, 4)) is bv(0b101, 3)

    def test_extract_of_extract_composes(self):
        a = bvvar("a", 16)
        assert bvextract(1, 0, bvextract(11, 4, a)) is bvextract(5, 4, a)

    def test_extract_of_concat_selects_part(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        assert bvextract(7, 0, bvconcat(a, b)) is b
        assert bvextract(15, 8, bvconcat(a, b)) is a

    def test_extract_bad_range_rejected(self):
        with pytest.raises(ValueError):
            bvextract(8, 0, bvvar("a", 8))

    def test_zero_extend(self):
        a = bvvar("a", 4)
        extended = zero_extend(a, 4)
        assert extended.width == 8
        assert evaluate(extended, {"a": 0xf}) == 0x0f

    def test_sign_extend_negative(self):
        a = bvvar("a", 4)
        extended = sign_extend(a, 4)
        assert evaluate(extended, {"a": 0x8}) == 0xf8

    def test_zero_extend_zero_bits_is_identity(self):
        a = bvvar("a", 4)
        assert zero_extend(a, 0) is a

    def test_extract_pushes_through_bitwise(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        pushed = bvextract(3, 0, bvand(zero_extend(a, 8), zero_extend(b, 8)))
        assert pushed is bvand(bvextract(3, 0, a), bvextract(3, 0, b))

    def test_low_extract_pushes_through_add(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        wide = bvadd(zero_extend(a, 8), zero_extend(b, 8))
        assert bvextract(7, 0, wide) is bvadd(a, b)

    def test_extract_is_linear_on_shared_dags(self, monkeypatch):
        # A ladder of muxes whose branches share the previous rung: 66
        # nodes, but 2**16 paths from the top to ``x``.
        levels = 16
        x, m = bvvar("ladder_x", 16), bvvar("ladder_m", 16)
        top = x
        for level in range(levels):
            top = bvite(bvvar(f"ladder_c{level}", 1), bvand(top, m),
                        bvxor(top, m))
        assert top.size() == 66
        calls = 0
        extract = builder.bvextract

        def counting(hi, lo, a):
            nonlocal calls
            calls += 1
            return extract(hi, lo, a)

        # The rewrite recurses through the module global, so every nested
        # extract is counted.
        monkeypatch.setattr(builder, "bvextract", counting)
        low = builder.bvextract(7, 0, top)
        assert calls <= 8 * levels
        rng = random.Random(0)
        for _ in range(20):
            env = {"ladder_x": rng.getrandbits(16),
                   "ladder_m": rng.getrandbits(16)}
            env.update((f"ladder_c{level}", rng.getrandbits(1))
                       for level in range(levels))
            assert evaluate(low, env) == evaluate(top, env) & 0xFF


class TestMuxDistribution:
    def test_mul_distributes_over_constant_mux_tree(self):
        s = bvvar("s", 1)
        tree = bvite(s, bv(3, 8), bv(5, 8))
        product = bvmul(tree, bv(7, 8))
        # The product folds to a mux over constants: no mul node remains.
        assert all(node.op != "mul" for node in product.iter_dag())
        assert evaluate(product, {"s": 1}) == 21
        assert evaluate(product, {"s": 0}) == 35

    def test_mul_of_symbolic_operands_not_distributed(self):
        a, b, s = bvvar("a", 8), bvvar("b", 8), bvvar("s", 1)
        product = bvmul(bvite(s, a, b), b)
        assert product.op == "mul"


class TestEvaluation:
    def test_free_vars(self):
        expr = bvadd(bvvar("x", 4), bvmul(bvvar("y", 4), bvvar("x", 4)))
        assert free_vars(expr) == frozenset({"x", "y"})

    def test_missing_binding_raises(self):
        with pytest.raises(KeyError):
            evaluate(bvvar("q", 4), {})

    def test_substitute_folds(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        expr = bvand(bvmul(bvadd(a, b), bv(2, 8)), bv(0xf, 8))
        result = substitute(expr, {"a": bv(3, 8), "b": bv(5, 8)})
        assert result is bv(((3 + 5) * 2) & 0xf, 8)

    def test_simplify_is_idempotent(self):
        a = bvvar("a", 8)
        expr = bvadd(a, bvsub(a, a))
        assert simplify(expr) is simplify(simplify(expr))


class TestSubstitutionMemo:
    def test_hit_is_the_node_the_uncached_rebuild_interns(self):
        """A hit needs the same node and the same bindings, in any order,
        and returns the very node ``rebuild`` builds without the memo."""
        from repro.bv.simplify import _SUBSTITUTE_MEMO, rebuild

        a, b, h = bvvar("memo_a", 8), bvvar("memo_b", 8), bvvar("memo_h", 8)
        sketch = bvite(bvult(a, h), bvmul(a, b), bvxor(bvadd(a, h), b))
        bindings = {"memo_a": bv(3, 8), "memo_b": bv(5, 8)}
        cold = substitute(sketch, bindings)
        entries = len(_SUBSTITUTE_MEMO)
        assert substitute(sketch, dict(reversed(bindings.items()))) is cold
        assert entries and len(_SUBSTITUTE_MEMO) == entries
        assert cold is rebuild(sketch, {a: bv(3, 8), b: bv(5, 8)})
        other = substitute(sketch, {"memo_a": bv(3, 8), "memo_b": bv(9, 8)})
        assert other is rebuild(sketch, {a: bv(3, 8), b: bv(9, 8)})
        assert other is not cold

    def test_reset_intern_table_empties_the_table_and_both_memos(self):
        from repro.bv.ast import reset_intern_table
        from repro.bv.simplify import _SUBSTITUTE_MEMO

        x, y = bvvar("reset_x", 8), bvvar("reset_y", 8)
        substitute(bvextract(3, 0, bvadd(x, y)), {"reset_y": bv(1, 8)})
        assert BVExpr._intern and builder._EXTRACT_MEMO and _SUBSTITUTE_MEMO
        reset_intern_table()
        assert not BVExpr._intern
        assert not builder._EXTRACT_MEMO and not _SUBSTITUTE_MEMO
        # A structurally equal node built after the reset is a new object.
        assert bvvar("reset_x", 8) is not x


_WIDTHS = st.integers(min_value=1, max_value=12)


@st.composite
def _two_values(draw):
    width = draw(_WIDTHS)
    x = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    y = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return width, x, y


class TestOperatorSemanticsProperties:
    """Property-based checks: builder + evaluator agree with Python integers."""

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_add_matches_modular_arithmetic(self, data):
        width, x, y = data
        expr = bvadd(bvvar("x", width), bvvar("y", width))
        assert evaluate(expr, {"x": x, "y": y}) == (x + y) & mask(width)

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_sub_matches_modular_arithmetic(self, data):
        width, x, y = data
        expr = bvsub(bvvar("x", width), bvvar("y", width))
        assert evaluate(expr, {"x": x, "y": y}) == (x - y) & mask(width)

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_modular_arithmetic(self, data):
        width, x, y = data
        expr = bvmul(bvvar("x", width), bvvar("y", width))
        assert evaluate(expr, {"x": x, "y": y}) == (x * y) & mask(width)

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_unsigned_comparison(self, data):
        width, x, y = data
        expr = bvult(bvvar("x", width), bvvar("y", width))
        assert evaluate(expr, {"x": x, "y": y}) == int(x < y)

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_signed_comparison(self, data):
        width, x, y = data
        expr = bvslt(bvvar("x", width), bvvar("y", width))
        expected = int(to_signed(x, width) < to_signed(y, width))
        assert evaluate(expr, {"x": x, "y": y}) == expected

    @given(_two_values())
    @settings(max_examples=80, deadline=None)
    def test_xnor_is_not_xor(self, data):
        width, x, y = data
        env = {"x": x, "y": y}
        xnor = bvxnor(bvvar("x", width), bvvar("y", width))
        xor = bvxor(bvvar("x", width), bvvar("y", width))
        assert evaluate(xnor, env) == (~evaluate(xor, env)) & mask(width)

    @given(_two_values())
    @settings(max_examples=60, deadline=None)
    def test_concat_extract_roundtrip(self, data):
        width, x, y = data
        x_var, y_var = bvvar("x", width), bvvar("y", width)
        combined = bvconcat(x_var, y_var)
        env = {"x": x, "y": y}
        assert evaluate(bvextract(width - 1, 0, combined), env) == y
        assert evaluate(bvextract(2 * width - 1, width, combined), env) == x

    @given(_two_values(), st.integers(min_value=0, max_value=15))
    @settings(max_examples=60, deadline=None)
    def test_shift_semantics(self, data, shift):
        width, x, _ = data
        env = {"x": x}
        # The shift amount is itself a width-bit constant, so it wraps.
        effective_shift = shift & mask(width)
        shifted = evaluate(bvshl(bvvar("x", width), bv(shift, width)), env)
        expected = (x << effective_shift) & mask(width) if effective_shift < width else 0
        assert shifted == expected
