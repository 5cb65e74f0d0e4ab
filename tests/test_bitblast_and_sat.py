"""Tests for bit-blasting, the AIG, CNF encoding and the SAT solvers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bv import (
    bv, bvvar, bvadd, bvsub, bvmul, bvand, bvor, bvxor, bvite, bveq, bvne,
    bvult, bvslt, bvashr, bvlshr, bvshl, bvconcat, bvextract, zero_extend,
    sign_extend, evaluate,
)
from repro.bv.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.bv.bitblast import bitblast
from repro.bv.cnf import aig_to_cnf
from repro.sat import CNF, CDCLSolver, DPLLSolver
from repro.sat.portfolio import SatPortfolio
from repro.sat.solver import _luby


class TestAig:
    def test_constants(self):
        aig = AIG()
        assert aig.and_gate(TRUE_LIT, TRUE_LIT) == TRUE_LIT
        assert aig.and_gate(FALSE_LIT, TRUE_LIT) == FALSE_LIT

    def test_structural_hashing(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert aig.and_gate(a, b) == aig.and_gate(b, a)

    def test_complementary_inputs_fold_to_false(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.and_gate(a, AIG.negate(a)) == FALSE_LIT

    def test_mux_selects(self):
        aig = AIG()
        s, a, b = aig.add_input("s"), aig.add_input("a"), aig.add_input("b")
        out = aig.mux(s, a, b)
        assert aig.simulate({"s": 1, "a": 1, "b": 0}, [out]) == [1]
        assert aig.simulate({"s": 0, "a": 1, "b": 0}, [out]) == [0]

    def test_xor_gate_truth_table(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        out = aig.xor_gate(a, b)
        for x in (0, 1):
            for y in (0, 1):
                assert aig.simulate({"a": x, "b": y}, [out]) == [x ^ y]


def _simulate_expression(expr, env):
    """Evaluate an expression through the AIG and compare with the word level."""
    aig, bits = bitblast(expr)
    bit_env = {}
    for name, value in env.items():
        for i in range(64):
            bit_env[f"{name}[{i}]"] = (value >> i) & 1
    inputs = {name: bit_env.get(name, 0) for name in aig.inputs}
    out_bits = aig.simulate(inputs, bits)
    return sum(bit << i for i, bit in enumerate(out_bits))


class TestBitBlasting:
    @pytest.mark.parametrize("builder,pyop", [
        (bvadd, lambda x, y, m: (x + y) & m),
        (bvsub, lambda x, y, m: (x - y) & m),
        (bvmul, lambda x, y, m: (x * y) & m),
        (bvand, lambda x, y, m: x & y),
        (bvor, lambda x, y, m: x | y),
        (bvxor, lambda x, y, m: x ^ y),
    ])
    def test_binary_operators(self, builder, pyop):
        rng = random.Random(7)
        for _ in range(20):
            width = rng.randint(1, 10)
            x, y = rng.getrandbits(width), rng.getrandbits(width)
            expr = builder(bvvar("x", width), bvvar("y", width))
            assert _simulate_expression(expr, {"x": x, "y": y}) == pyop(x, y, (1 << width) - 1)

    def test_comparisons(self):
        rng = random.Random(3)
        for _ in range(30):
            width = rng.randint(1, 8)
            x, y = rng.getrandbits(width), rng.getrandbits(width)
            env = {"x": x, "y": y}
            expr_u = bvult(bvvar("x", width), bvvar("y", width))
            expr_s = bvslt(bvvar("x", width), bvvar("y", width))
            assert _simulate_expression(expr_u, env) == evaluate(expr_u, env)
            assert _simulate_expression(expr_s, env) == evaluate(expr_s, env)

    def test_variable_shifts(self):
        rng = random.Random(11)
        for _ in range(30):
            width = rng.randint(2, 8)
            x, sh = rng.getrandbits(width), rng.getrandbits(width)
            env = {"x": x, "s": sh}
            for builder in (bvshl, bvlshr, bvashr):
                expr = builder(bvvar("x", width), bvvar("s", width))
                assert _simulate_expression(expr, env) == evaluate(expr, env)

    def test_mux_and_structure(self):
        rng = random.Random(5)
        for _ in range(30):
            width = rng.randint(1, 8)
            x, y = rng.getrandbits(width), rng.getrandbits(width)
            env = {"x": x, "y": y}
            expr = bvite(bvult(bvvar("x", width), bvvar("y", width)),
                         bvconcat(bvvar("x", width), bvvar("y", width)),
                         sign_extend(bvvar("y", width), width))
            assert _simulate_expression(expr, env) == evaluate(expr, env)

    @given(st.integers(min_value=1, max_value=10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_bitblast_agrees_with_evaluator(self, width, data):
        x = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        y = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        expr = bvand(bvmul(bvadd(bvvar("x", width), bvvar("y", width)), bvvar("y", width)),
                     zero_extend(bvextract(width - 1, 0, bvvar("x", width)), 0))
        env = {"x": x, "y": y}
        assert _simulate_expression(expr, env) == evaluate(expr, env)


class TestCnf:
    def test_dimacs_roundtrip(self):
        cnf = CNF()
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        text = cnf.to_dimacs()
        parsed = CNF.from_dimacs(text)
        assert parsed.clauses == cnf.clauses
        assert parsed.num_vars == cnf.num_vars

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            CNF().add_clause([0])

    def test_evaluate_assignment(self):
        cnf = CNF(clauses=[[1, 2], [-1, 2]])
        assert cnf.evaluate([None, False, True])
        assert not cnf.evaluate([None, True, False])


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _random_cnf(rng, num_vars, num_clauses):
    cnf = CNF(num_vars=num_vars)
    for _ in range(num_clauses):
        clause_length = rng.randint(1, 3)
        clause = []
        for _ in range(clause_length):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        cnf.add_clause(clause)
    return cnf


class TestSatSolvers:
    def test_trivially_sat(self):
        cnf = CNF(clauses=[[1], [2, -1]])
        result = CDCLSolver(cnf).solve()
        assert result.is_sat
        assert cnf.evaluate([None] + [result.model[v] for v in range(1, cnf.num_vars + 1)])

    def test_trivially_unsat(self):
        cnf = CNF(clauses=[[1], [-1]])
        assert CDCLSolver(cnf).solve().is_unsat
        assert DPLLSolver(cnf).solve().is_unsat

    def test_assumptions(self):
        cnf = CNF(clauses=[[1, 2]])
        assert CDCLSolver(cnf).solve(assumptions=[-1, -2]).is_unsat
        assert CDCLSolver(cnf).solve(assumptions=[-1]).is_sat

    def test_pigeonhole_unsat(self):
        # 3 pigeons, 2 holes: variable p(i,h) = 2*i + h + 1.
        cnf = CNF()
        for pigeon in range(3):
            cnf.add_clause([2 * pigeon + 1, 2 * pigeon + 2])
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-(2 * p1 + hole + 1), -(2 * p2 + hole + 1)])
        assert CDCLSolver(cnf).solve().is_unsat
        assert DPLLSolver(cnf).solve().is_unsat

    def test_cdcl_agrees_with_dpll_on_random_formulas(self):
        rng = random.Random(0)
        for trial in range(40):
            cnf = _random_cnf(rng, num_vars=rng.randint(3, 9), num_clauses=rng.randint(3, 25))
            cdcl = CDCLSolver(cnf.copy()).solve()
            dpll = DPLLSolver(cnf.copy()).solve()
            assert cdcl.status == dpll.status, cnf.to_dimacs()
            if cdcl.is_sat:
                assignment = [None] + [cdcl.model[v] for v in range(1, cnf.num_vars + 1)]
                assert cnf.evaluate(assignment)

    def test_portfolio_returns_winner(self):
        cnf = CNF(clauses=[[1, 2], [-1], [-2, 3]])
        result = SatPortfolio().solve(CDCLSolver(cnf))
        assert result.is_sat
        assert result.model[2] and result.model[3] and not result.model[1]

    def test_miter_of_equivalent_circuits_is_unsat(self):
        width = 5
        a, b = bvvar("a", width), bvvar("b", width)
        lhs = bvadd(a, b)
        rhs = bvsub(bvadd(bvadd(a, b), b), b)
        miter = bvne(lhs, rhs)
        aig, bits = bitblast(miter)
        cnf, _ = aig_to_cnf(aig, bits)
        assert CDCLSolver(cnf).solve().is_unsat

    def test_miter_of_different_circuits_is_sat(self):
        width = 5
        a, b = bvvar("a", width), bvvar("b", width)
        miter = bvne(bvadd(a, b), bvor(a, b))
        aig, bits = bitblast(miter)
        cnf, input_vars = aig_to_cnf(aig, bits)
        result = CDCLSolver(cnf).solve()
        assert result.is_sat
