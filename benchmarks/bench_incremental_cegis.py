"""Incremental vs from-scratch CEGIS on multi-iteration instances.

The incremental synthesis core keeps one CDCL context alive across a whole
CEGIS run: hole variables map to stable CNF literals, each counterexample
appends only its own obligations' clauses, and learned clauses survive from
iteration to iteration.  From-scratch mode re-substitutes, re-bit-blasts
and cold-starts the solver every round — so the more iterations a run
needs, the more work incrementality saves.

This benchmark uses threshold/interval synthesis instances whose CEGIS runs
take many iterations by construction (every counterexample tightens a
bound), with random probing disabled so the candidate step actually
exercises the solver.  Both modes must return identical statuses and hole
values — the wall-clock of the candidate phase is the only thing allowed
to differ.
"""

import pytest

from repro.bv import bv, bvvar, bvand, bvult
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import SmtSolver

#: Minimum candidate-phase speedup the incremental mode must show on the
#: multi-iteration (>= 4 rounds) instances, incremental vs from-scratch.
SPEEDUP_FLOOR = 1.5

WIDTH = 12


def _instances():
    x = bvvar("x", WIDTH)
    k = bvvar("k", WIDTH)
    m = bvvar("m", WIDTH)
    return {
        "threshold": ([Obligation(bvult(x, bv(2900, WIDTH)), bvult(x, k))],
                      {"k": WIDTH}),
        "interval": ([Obligation(
            bvand(bvult(x, bv(2900, WIDTH)), bvult(bv(700, WIDTH), x)),
            bvand(bvult(x, k), bvult(m, x)))],
            {"k": WIDTH, "m": WIDTH}),
    }


def _run(mode_incremental: bool):
    outcomes = {}
    for name, (obligations, holes) in _instances().items():
        # A fresh verification-side solver per run: the two modes must see
        # identical probing RNG streams for a trajectory-level comparison.
        outcomes[name] = synthesize(
            obligations, holes, incremental=mode_incremental,
            solver=SmtSolver(seed=0),
            random_probes=0, initial_random_examples=0, max_iterations=256)
    return outcomes


@pytest.mark.benchmark(group="incremental-cegis")
def test_incremental_candidate_step_speedup(benchmark):
    scratch = _run(False)

    warm = benchmark.pedantic(_run, args=(True,), iterations=1, rounds=1)

    total_scratch = 0.0
    total_warm = 0.0
    for name in scratch:
        cold, inc = scratch[name], warm[name]
        # Identity first: speed means nothing if the answers drift.
        assert cold.status == inc.status == "sat", name
        assert cold.hole_values == inc.hole_values, name
        assert cold.iterations == inc.iterations >= 4, \
            f"{name} must be genuinely multi-iteration"
        assert inc.incremental and not cold.incremental
        total_scratch += cold.stats["candidate_time_seconds"]
        total_warm += inc.stats["candidate_time_seconds"]

    speedup = total_scratch / total_warm if total_warm else float("inf")
    print(f"\ncandidate-step wall time: from-scratch {total_scratch:.3f}s, "
          f"incremental {total_warm:.3f}s ({speedup:.2f}x)")
    for name in scratch:
        print(f"  {name}: {scratch[name].iterations} iterations, "
              f"{warm[name].stats['clauses_retained']} learned clauses "
              f"retained, {scratch[name].stats['candidate_time_seconds']:.3f}s"
              f" -> {warm[name].stats['candidate_time_seconds']:.3f}s")
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental candidate step only {speedup:.2f}x faster "
        f"(expected >= {SPEEDUP_FLOOR}x)")
