"""Clause-database reduction on a long multi-design warm-solver sweep.

A CDCL solver kept warm across many queries — without learned-clause
management — grows its watch lists monotonically with every design it
survives, so propagation slows and memory is unbounded.  This benchmark
replays that lifecycle directly on one incremental
:class:`~repro.sat.solver.CDCLSolver`: a sequence of planted (satisfiable
by construction) phase-transition 3-SAT "designs" over disjoint variable
ranges is appended with ``add_clause`` and interrogated with warm
assumption solves, with LBD reduction disabled versus enabled.

Measured claims:

* **identity** — every query answers the same status with and without
  reduction (learned clauses are entailed; deletion is invisible);
* **bounded memory** — the learned-database peak stays within ~2× of the
  post-reduce floor, while the unreduced database grows without bound
  (the reduced peak must come in well under the unreduced one);
* **no slowdown** — reduced wall time stays within a small factor of the
  unreduced run (it is typically faster: shorter watch lists mean cheaper
  propagation), with per-run propagation rates printed for inspection.
"""

import random
import time

import pytest

from repro.sat.solver import CDCLSolver

#: Sweep shape: DESIGNS planted 3-SAT instances of NUM_VARS variables at
#: clause ratio 4.3, QUERIES warm assumption solves each.
NUM_VARS = 80
NUM_CLAUSES = int(4.3 * NUM_VARS)
DESIGNS = 28
QUERIES = 5

#: Reduction knobs under test (the solver defaults are more patient; the
#: benchmark reduces often enough to observe many cycles in one run).
REDUCE_INTERVAL = 200
MAX_LBD_KEEP = 3

#: The reduced run may use at most this fraction of the unreduced peak.
PEAK_RATIO_CEILING = 0.6

#: Reduced wall time must stay within this factor of the unreduced run
#: (generous against CI timing noise; the typical ratio is <= 1.0).
SLOWDOWN_CEILING = 1.5


def _planted_design(rng, offset):
    """A satisfiable-by-construction 3-SAT block over a fresh var range.

    Satisfiability matters: the designs share one solver, so a single
    unsat block would poison the database root-unsat for every later
    design.  Each clause is patched to agree with a hidden assignment.
    """
    truth = {v: rng.random() < 0.5 for v in range(1, NUM_VARS + 1)}
    clauses = []
    for _ in range(NUM_CLAUSES):
        chosen = rng.sample(range(1, NUM_VARS + 1), 3)
        literals = [v if rng.random() < 0.5 else -v for v in chosen]
        if not any((lit > 0) == truth[abs(lit)] for lit in literals):
            fix = rng.randrange(3)
            literals[fix] = chosen[fix] if truth[chosen[fix]] else -chosen[fix]
        clauses.append([lit + offset if lit > 0 else lit - offset
                       for lit in literals])
    return clauses


def _run_sweep(reduce_interval):
    rng = random.Random(5)
    solver = CDCLSolver(reduce_interval=reduce_interval,
                        max_lbd_keep=MAX_LBD_KEEP)
    statuses = []
    propagations = 0
    start = time.monotonic()
    for design in range(DESIGNS):
        offset = design * NUM_VARS
        for clause in _planted_design(rng, offset):
            solver.add_clause(clause)
        for _ in range(QUERIES):
            assumptions = [rng.choice((1, -1)) * (rng.randint(1, NUM_VARS) + offset)
                           for _ in range(4)]
            result = solver.solve(assumptions)
            statuses.append(result.status)
            propagations += result.propagations
    elapsed = time.monotonic() - start
    return {
        "statuses": statuses,
        "elapsed": elapsed,
        "propagations": propagations,
        "learned": solver.learned_count,
        "alive": solver.learned_alive,
        "peak": solver.db_size_peak,
        "floor": solver.db_size_floor,
        "deleted": solver.clauses_deleted,
        "reductions": solver.reductions,
    }


@pytest.mark.benchmark(group="clause-reduction")
def test_clause_reduction_bounds_db_without_slowdown(benchmark):
    unreduced = _run_sweep(0)

    reduced = benchmark.pedantic(_run_sweep, args=(REDUCE_INTERVAL,),
                                 iterations=1, rounds=1)

    # Identity first: deletion must be answer-invisible on every query.
    assert reduced["statuses"] == unreduced["statuses"], \
        "clause-DB reduction changed a query status"
    assert "unsat" in reduced["statuses"] and "sat" in reduced["statuses"], \
        "the sweep must exercise both outcomes"

    # Reduction genuinely ran and the database is bounded: the peak stays
    # within ~2x of the post-reduce floor (plus one interval of growth),
    # while the unreduced database just accumulates everything.
    assert reduced["reductions"] >= 5
    assert reduced["deleted"] > 0
    assert reduced["peak"] <= 2 * max(reduced["floor"], REDUCE_INTERVAL), (
        f"learned-DB peak {reduced['peak']} exceeds 2x the post-reduce "
        f"floor {reduced['floor']}")
    assert reduced["peak"] <= PEAK_RATIO_CEILING * unreduced["peak"], (
        f"reduced peak {reduced['peak']} is not meaningfully below the "
        f"unbounded peak {unreduced['peak']}")
    assert unreduced["deleted"] == 0 and unreduced["alive"] <= unreduced["peak"]

    # Propagation must not get slower per unit time (shorter watch lists).
    assert reduced["elapsed"] <= SLOWDOWN_CEILING * unreduced["elapsed"], (
        f"reduction slowed the sweep: {reduced['elapsed']:.2f}s vs "
        f"{unreduced['elapsed']:.2f}s unreduced")

    for label, run in (("unreduced", unreduced), ("reduced", reduced)):
        rate = run["propagations"] / run["elapsed"] if run["elapsed"] else 0.0
        print(f"\n{label}: {run['elapsed']:.2f}s, "
              f"{run['learned']} learned / {run['alive']} alive, "
              f"peak {run['peak']}, floor {run['floor']}, "
              f"{run['deleted']} deleted over {run['reductions']} reductions, "
              f"{rate:,.0f} props/s")
