"""Tests for the word-level solver, equivalence checking and CEGIS."""

import time

import pytest

from repro.bv import (
    bv, bvvar, bvadd, bvsub, bvmul, bvand, bvor, bvxor, bvite, bveq, bvne,
    bvult, bvextract, bvlshr, bvconcat, zero_extend, evaluate,
)
from repro.smt import check_equivalence, check_sat, synthesize
from repro.smt.cegis import Obligation
from repro.smt.solver import SmtSolver


class TestCheckSat:
    def test_constant_true(self):
        assert check_sat(bv(1, 1)).is_sat

    def test_constant_false(self):
        assert check_sat(bv(0, 1)).is_unsat

    def test_satisfiable_constraint_produces_model(self):
        a = bvvar("a", 8)
        result = check_sat(bveq(bvadd(a, bv(1, 8)), bv(0, 8)))
        assert result.is_sat
        assert result.model["a"] == 0xff

    def test_unsatisfiable_conjunction(self):
        a = bvvar("a", 8)
        result = check_sat([bveq(a, bv(3, 8)), bveq(a, bv(4, 8))])
        assert result.is_unsat

    def test_rejects_wide_constraints(self):
        with pytest.raises(ValueError):
            check_sat(bvvar("a", 8))

    def test_deadline_in_the_past_reports_unknown(self):
        a, b = bvvar("a", 12), bvvar("b", 12)
        hard = bveq(bvmul(a, b), bv(3 * 5 * 7 * 11, 12))
        result = check_sat(hard, deadline=time.monotonic() - 1.0)
        assert result.is_unknown

    def test_model_satisfies_constraint(self):
        a, b = bvvar("a", 6), bvvar("b", 6)
        constraint = bvand(bvult(a, b), bveq(bvand(a, b), bv(4, 6)))
        result = check_sat(constraint)
        assert result.is_sat
        env = {"a": result.model["a"], "b": result.model["b"]}
        assert evaluate(constraint, env) == 1


class TestEquivalence:
    def test_structurally_identical(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        result = check_equivalence(bvadd(a, b), bvadd(b, a))
        assert result.is_equivalent
        assert result.strategy in ("structural", "normalise")

    def test_semantically_equal_but_structurally_different(self):
        a = bvvar("a", 6)
        lhs = bvmul(a, bv(2, 6))
        rhs = bvadd(a, a)
        result = check_equivalence(lhs, rhs)
        assert result.is_equivalent

    def test_different_circuits_give_counterexample(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        result = check_equivalence(bvadd(a, b), bvor(a, b))
        assert result.is_different
        env = result.counterexample.as_dict()
        assert evaluate(bvadd(a, b), env) != evaluate(bvor(a, b), env)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence(bvvar("a", 8), bvvar("b", 4))

    def test_wide_datapath_collapses_structurally(self):
        """The zero-extended DSP-style datapath must prove equal without SAT."""
        width = 8
        a, b, c, d = (bvvar(n, width) for n in "abcd")
        spec = bvand(bvmul(bvadd(a, b), c), d)
        wide = bvextract(width - 1, 0,
                         bvand(bvmul(bvadd(zero_extend(a, 8), zero_extend(b, 8)),
                                     zero_extend(c, 8)),
                               zero_extend(d, 8)))
        result = check_equivalence(spec, wide)
        assert result.is_equivalent
        assert result.strategy in ("structural", "normalise")

    def test_sat_layer_counterexamples_are_canonical(self):
        # Without probes every counterexample comes from the portfolio race;
        # canonical=True makes it the smallest x with x < 100 != x < k,
        # whichever member won.
        width = 8
        x = bvvar("x", width)
        solver = SmtSolver(random_probes=0)
        for candidate, expected in ((120, 100), (90, 90), (0, 0)):
            result = check_equivalence(bvult(x, bv(candidate, width)),
                                       bvult(x, bv(100, width)),
                                       solver=solver, canonical=True)
            assert result.is_different
            assert result.strategy.startswith("sat:")
            assert result.counterexample["x"] == expected

    def test_const_true_miter_reports_zero_counterexample(self):
        # bveq(a, a) folds to constant 1, so the miter against constant 0
        # normalises to constant true: different on *every* assignment.
        # The result must still carry a usable (all-zeros) counterexample —
        # a None here used to crash the CEGIS loop's counterexample
        # extraction.
        a = bvvar("a", 4)
        result = check_equivalence(bveq(a, a), bv(0, 1))
        assert result.is_different
        assert result.strategy == "normalise"
        assert result.counterexample is not None
        assert result.counterexample.get("a", 0) == 0


class TestCegis:
    def test_lut2_and_function(self):
        a, b = bvvar("a", 1), bvvar("b", 1)
        lut_memory = bvvar("mem", 4)
        index = bvconcat(b, a)
        lut_out = bvextract(0, 0, bvlshr(lut_memory, zero_extend(index, 2)))
        result = synthesize(Obligation(bvand(a, b), lut_out), {"mem": 4})
        assert result.succeeded
        assert result.hole_values["mem"] == 0b1000

    def test_lut2_xor_function(self):
        a, b = bvvar("a", 1), bvvar("b", 1)
        lut_memory = bvvar("mem", 4)
        index = bvconcat(b, a)
        lut_out = bvextract(0, 0, bvlshr(lut_memory, zero_extend(index, 2)))
        result = synthesize(Obligation(bvxor(a, b), lut_out), {"mem": 4})
        assert result.succeeded
        assert result.hole_values["mem"] == 0b0110

    def test_operation_selector_hole(self):
        width = 8
        a, b, c = bvvar("a", width), bvvar("b", width), bvvar("c", width)
        selector = bvvar("sel", 2)
        product = bvmul(a, b)
        sketch = bvite(bveq(selector, bv(0, 2)), bvand(product, c),
                       bvite(bveq(selector, bv(1, 2)), bvor(product, c),
                             bvadd(product, c)))
        spec = bvadd(bvmul(a, b), c)
        result = synthesize(Obligation(spec, sketch), {"sel": 2})
        assert result.succeeded
        # The else-branch of the selector covers both remaining encodings.
        assert result.hole_values["sel"] in (2, 3)

    def test_unsat_when_sketch_cannot_express_spec(self):
        width = 8
        a, b, c = bvvar("a", width), bvvar("b", width), bvvar("c", width)
        selector = bvvar("sel", 1)
        product = bvmul(a, b)
        sketch = bvite(selector, bvand(product, c), bvor(product, c))
        spec = bvxor(bvmul(a, b), c)
        result = synthesize(Obligation(spec, sketch), {"sel": 1})
        assert result.status == "unsat"

    def test_hole_constraints_restrict_solutions(self):
        a = bvvar("a", 4)
        hole = bvvar("k", 4)
        sketch = bvadd(a, hole)
        spec = bvadd(a, bv(5, 4))
        forbidden = bvne(hole, bv(5, 4))
        result = synthesize(Obligation(spec, sketch), {"k": 4},
                            hole_constraints=[forbidden])
        assert result.status == "unsat"

    def test_multiple_obligations(self):
        """Sequential-style synthesis: the same hole must satisfy both timesteps."""
        a0, a1 = bvvar("a@0", 4), bvvar("a@1", 4)
        hole = bvvar("k", 4)
        obligations = [
            Obligation(bvadd(a0, bv(3, 4)), bvadd(a0, hole)),
            Obligation(bvadd(a1, bv(3, 4)), bvadd(a1, hole)),
        ]
        result = synthesize(obligations, {"k": 4})
        assert result.succeeded
        assert result.hole_values["k"] == 3

    def test_no_obligations_rejected(self):
        with pytest.raises(ValueError):
            synthesize([], {"k": 4})

    def test_width_mismatch_in_obligation_rejected(self):
        with pytest.raises(ValueError):
            Obligation(bvvar("a", 4), bvvar("b", 5))

    def test_timeout_reports_unknown(self):
        a, b = bvvar("a", 12), bvvar("b", 12)
        hole = bvvar("k", 12)
        sketch = bvmul(bvmul(a, b), hole)
        spec = bvmul(bvmul(a, b), bv(7, 12))
        result = synthesize(Obligation(spec, sketch), {"k": 12},
                            deadline=time.monotonic() - 1.0)
        assert result.status == "unknown"
