"""Shared test constants and helpers (imported by conftest fixtures and
by the tests): workload samples, a random-expression generator, the
brute-force oracle for canonical lex-min models, and the clause-route
oracle for loading a solver straight from an AIG.

Lives in its own module (not ``conftest.py``) so test files can import the
constants directly — ``import conftest`` is ambiguous from the repo root,
where ``benchmarks/conftest.py`` shadows this directory's.
"""

import functools
import random

from repro.bv import (
    bv, bvvar, bvadd, bvsub, bvmul, bvand, bvor, bvxor, bvxnor, bvnot,
    bvneg, bveq, bvne, bvult, bvule, bvugt, bvuge, bvslt, bvsle, bvsgt,
    bvsge, bvite, bvshl, bvlshr, bvashr, bvconcat, bvextract, bvredand,
    bvredor, zero_extend,
)
from repro.bv.bitblast import BitBlaster
from repro.bv.cnf import aig_to_cnf, lit_to_cnf, tseitin_gates
from repro.bv.eval import evaluate, var_widths
from repro.sat.solver import CDCLSolver
from repro.smt.solver import (
    IncrementalSmtSession, SmtSolver, check_sat, lex_min_model,
)
from repro.workloads import sample_workloads

#: 4-bit bitwise AND — the cheapest mappable design (LUT templates).
AND4 = ("module f(input [3:0] a, b, output [3:0] out);"
        " assign out = a & b; endmodule")
#: 4-bit adder (carry-chain / LUT templates).
ADD4 = ("module g(input [3:0] a, b, output [3:0] out);"
        " assign out = a + b; endmodule")
#: 8-bit combinational multiply — the cheapest DSP-template design.
MUL8 = ("module mul(input clk, input [7:0] a, b, output [7:0] out);"
        " assign out = a * b; endmodule")


#: The most aggressive clause-database reduction: reduce after every other
#: learned clause and protect nothing but locked clauses.
AGGRESSIVE_REDUCTION = {"reduce_interval": 2, "max_lbd_keep": 0}


def reduce_aggressively(patch, engine=CDCLSolver) -> None:
    """Build every solver :mod:`repro.smt.solver` makes (candidate
    sessions, verification lex-min refiners) as ``engine`` with
    :data:`AGGRESSIVE_REDUCTION`.  ``patch`` is pytest's ``monkeypatch`` or
    one of its contexts; the module looks its ``CDCLSolver`` up at call
    time, so no reduction setting needs plumbing above the solver."""
    import repro.smt.solver as smt_solver

    patch.setattr(smt_solver, "CDCLSolver",
                  functools.partial(engine, **AGGRESSIVE_REDUCTION))


def factoring_constraints(product: int):
    """The 12-bit holes ``f0``/``f1`` (name → width) and the hole
    constraints ``f0 * f1 == product`` with both factors in (1, 64).

    Unit propagation cannot factor, so every candidate query that carries
    them searches and learns clauses: conjoined to a CEGIS run, they give
    clause-database reduction something to delete."""
    f0, f1 = bvvar("f0", 12), bvvar("f1", 12)
    one, bound = bv(1, 12), bv(64, 12)
    return ({"f0": 12, "f1": 12},
            [bveq(bvmul(f0, f1), bv(product, 12)),
             bvult(one, f0), bvult(f0, bound),
             bvult(one, f1), bvult(f1, bound)])


def small_workloads(count: int = 4, architecture: str = "intel-cyclone10lp",
                    seed: int = 0, max_width: int = 8):
    """A small stratified workload sample (quick to synthesize)."""
    return sample_workloads(architecture, count, seed=seed,
                            max_width=max_width)


_FULL_BINARY_OPS = (bvadd, bvsub, bvmul, bvand, bvor, bvxor, bvxnor,
                    bvshl, bvlshr, bvashr)
_FULL_PREDICATES = (bveq, bvne, bvult, bvule, bvugt, bvuge,
                    bvslt, bvsle, bvsgt, bvsge)


def random_full_expr(rng: random.Random, variables, width: int, depth: int):
    """A random ``width``-bit expression over ``variables`` (name → width)
    drawn from the *complete* operator set — shifts, signed compares,
    concat/extract, reductions — so the packed evaluator's every kernel
    gets fuzzed, not just the CEGIS-friendly subset of the fuzz suite's
    ``_random_expr``.  Leaves prefer variables (adapting widths by extract
    / zero-extension) so expressions rarely constant-fold away."""
    if depth <= 0 or rng.random() < 0.2:
        named = [name for name, w in variables.items() if w == width]
        if named and rng.random() < 0.85:
            return bvvar(rng.choice(named), width)
        if variables and rng.random() < 0.8:
            name = rng.choice(sorted(variables))
            leaf = bvvar(name, variables[name])
            if leaf.width > width:
                return bvextract(width - 1, 0, leaf)
            if leaf.width < width:
                return zero_extend(leaf, width - leaf.width)
            return leaf
        return bv(rng.getrandbits(width), width)
    roll = rng.random()
    if width == 1 and roll < 0.3:
        operand_width = rng.randint(1, 6)
        if rng.random() < 0.4:
            source = random_full_expr(rng, variables, operand_width, depth - 1)
            return rng.choice((bvredand, bvredor))(source)
        return rng.choice(_FULL_PREDICATES)(
            random_full_expr(rng, variables, operand_width, depth - 1),
            random_full_expr(rng, variables, operand_width, depth - 1))
    if roll < 0.12:
        return rng.choice((bvnot, bvneg))(
            random_full_expr(rng, variables, width, depth - 1))
    if roll < 0.24:
        condition = random_full_expr(rng, variables, 1, depth - 1)
        return bvite(condition,
                     random_full_expr(rng, variables, width, depth - 1),
                     random_full_expr(rng, variables, width, depth - 1))
    if roll < 0.34 and width >= 2:
        low_width = rng.randint(1, width - 1)
        return bvconcat(
            random_full_expr(rng, variables, width - low_width, depth - 1),
            random_full_expr(rng, variables, low_width, depth - 1))
    if roll < 0.44:
        source_width = width + rng.randint(0, 4)
        lo = rng.randint(0, source_width - width)
        return bvextract(lo + width - 1, lo,
                         random_full_expr(rng, variables, source_width,
                                           depth - 1))
    return rng.choice(_FULL_BINARY_OPS)(
        random_full_expr(rng, variables, width, depth - 1),
        random_full_expr(rng, variables, width, depth - 1))


def random_small_formula(rng: random.Random):
    """A random predicate over at most 10 input bits, small enough to
    enumerate: two :func:`random_full_expr` operands compared."""
    variables = {"a": rng.randint(2, 4), "b": rng.randint(1, 3),
                 "c": rng.randint(1, 3)}
    width = rng.randint(2, 4)
    return rng.choice(_FULL_PREDICATES)(
        random_full_expr(rng, variables, width, rng.randint(1, 3)),
        random_full_expr(rng, variables, width, rng.randint(1, 3)))


def _bit_value(assignment, bit_name: str) -> int:
    name, _, index = bit_name.rpartition("[")
    return (assignment[name] >> int(index[:-1])) & 1


def assert_canonical_lex_min(constraint, note: str = "") -> None:
    """Hold the canonical models of ``constraint`` to a brute-force oracle.

    ``constraint`` is a 1-bit formula over a few input bits; every
    assignment is enumerated.  ``check_sat(canonical=True)`` must return
    the minimum of the variables' values in name order, and the candidate
    session the minimum of the input bits in CNF-variable order.  The
    full CNF model :func:`lex_min_model` returns must satisfy every clause
    and agree with the session on the input bits.
    """
    widths = var_widths(constraint)
    names = sorted(widths)
    models = []
    for encoded in range(1 << sum(widths.values())):
        assignment = {}
        for name in names:
            assignment[name] = encoded & ((1 << widths[name]) - 1)
            encoded >>= widths[name]
        if evaluate(constraint, assignment):
            models.append(assignment)

    session = IncrementalSmtSession()
    session.assert_constraints([constraint])
    candidate = session.check()
    result = check_sat(constraint, solver=SmtSolver(random_probes=0),
                       canonical=True)
    assert candidate.is_sat == result.is_sat == bool(models), note
    if not models:
        return
    got = {name: result.model.get(name, 0) for name in names}
    want = min(models, key=lambda a: [a[name] for name in names])
    assert got == want, f"check_sat: {got} != lex-min {want} {note}"

    order = sorted(session.input_vars, key=session.input_vars.get)
    want = min(models, key=lambda a: ([_bit_value(a, bit) for bit in order],
                                      [a[name] for name in names]))
    got = {name: candidate.model.get(name, 0) for name in names}
    assert got == want, f"session: {got} != lex-min {want} {note}"

    blaster = BitBlaster()
    outputs = blaster.blast(constraint)
    cnf, input_vars = aig_to_cnf(blaster.aig, outputs)
    solver = CDCLSolver(cnf)
    model = lex_min_model(solver, sorted(input_vars.values()),
                          solver.solve().model, blaster.aig, outputs)
    assert cnf.evaluate([None] + [model[var]
                                  for var in range(1, cnf.num_vars + 1)]), \
        f"the lex-min model violates the CNF {note}"
    assert {bit: int(model[var]) for bit, var in input_vars.items()} == \
        {bit: _bit_value(want, bit) for bit in input_vars}, note


def plain_tseitin_clauses(aig, outputs):
    """The Tseitin clauses of the cones of ``outputs``, built the plain way:
    the constant-false unit, then output by output the gate clauses of the
    nodes that output's cone adds, in ascending node index, then one unit
    per output.  An oracle for the order :func:`repro.bv.cnf.tseitin_gates`
    gives, which the arena loader and :func:`aig_to_cnf` share."""
    clauses = [[-1]]
    encoded = {0}
    for output in outputs:
        cone = set()
        stack = [output >> 1]
        while stack:
            index = stack.pop()
            if index in cone or index in encoded:
                continue
            cone.add(index)
            if not aig.is_input(index):
                stack.extend(lit >> 1 for lit in aig.node(index))
        encoded |= cone
        for index in sorted(cone):
            if aig.is_input(index):
                continue
            left, right = map(lit_to_cnf, aig.node(index))
            clauses += [[-(index + 1), left], [-(index + 1), right],
                        [index + 1, -left, -right]]
    return clauses + [[lit_to_cnf(lit)] for lit in outputs]


def loaded_state(solver):
    """Every field of a ``CDCLSolver`` that loading writes, by name."""
    return {"num_vars": solver.num_vars, "arena": solver._arena,
            "watches": solver._watches, "trail": solver.trail,
            "trail_lim": solver.trail_lim,
            "propagation_head": solver.propagation_head,
            "vals": solver._vals, "levels": solver._levels,
            "reasons": solver._reasons, "heap": solver._order.heap,
            "zeros": solver._order.zeros, "live": solver._order.live,
            "ok": solver._ok}


def solve_snapshot(solver, result):
    """Every externally observable artefact of one query, order included."""
    model = None if result.model is None else list(result.model.items())
    return (result.status, model, result.conflicts, result.decisions,
            result.propagations, result.restarts, list(solver.trail),
            solver.learned_count,
            solver.clauses_deleted, solver.db_size_peak,
            solver.db_size_floor, solver.reductions,
            solver.propagations_total, solver.watcher_visits,
            solver.total_conflicts)


def next_solve(solver):
    """Status, model (in emission order) and search counters of the next
    ``solve()``."""
    result = solver.solve()
    model = None if result.model is None else list(result.model.items())
    return (result.status, model, result.conflicts, result.decisions,
            result.propagations)


def assert_aig_loading_matches(aig, outputs, note="", **options):
    """``CDCLSolver.load_gates`` over :func:`tseitin_gates` must leave the
    state ``ensure_vars`` plus ``add_clauses`` leave over the plain clause
    list, field for field, and the next solve must walk the same search.
    :func:`aig_to_cnf` must give that clause list too.  Returns the load
    verdict and the solve's :func:`next_solve` outcome."""
    clauses = plain_tseitin_clauses(aig, outputs)
    assert aig_to_cnf(aig, outputs)[0].clauses == clauses, note
    loaded, reference = CDCLSolver(**options), CDCLSolver(**options)
    verdict = loaded.load_gates(aig.num_nodes, tseitin_gates(aig, outputs),
                                [lit_to_cnf(lit) for lit in outputs])
    reference.ensure_vars(aig.num_nodes)
    assert verdict == reference.add_clauses(clauses), note
    want = loaded_state(reference)
    for name, got in loaded_state(loaded).items():
        assert got == want[name], f"{name} differs {note}"
    outcome = next_solve(loaded)
    assert outcome == next_solve(reference), note
    return verdict, outcome
