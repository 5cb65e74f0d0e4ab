"""Incremental vs fresh verification on multi-iteration CEGIS instances.

The incremental verifier keeps one assumption-gated miter session alive
across a whole CEGIS run: the sketch cone and spec miters are bit-blasted
once (hole variables left free), each candidate binds its hole values as
assumptions over the stable hole literals, and the CDCL solver's learned
clauses and branching activity survive from iteration to iteration.  The
fresh (portfolio) path re-substitutes, re-bit-blasts and cold-starts the
race on every verification query — so the more iterations a run needs and
the heavier the shared cone, the more incrementality saves.

These instances put a polynomial cone (shared multiplier network) inside an
interval check, so every verification query drags the full cone through the
SAT layer; verify-side random probing is disabled so the comparison
measures the SAT layer rather than the shared probing fast path.  Both
modes must return identical statuses, hole values and iteration counts —
the wall-clock of the verification phase is the only thing allowed to
differ.
"""

import pytest

from repro.bv import bv, bvvar, bvadd, bvand, bvmul, bvult
from repro.smt.cegis import Obligation, synthesize
from repro.smt.solver import SmtSolver

#: Minimum verification-phase speedup the incremental verifier must show on
#: the multi-iteration (>= 4 rounds) instances, incremental vs fresh.
SPEEDUP_FLOOR = 1.5


def _interval_instance(width, lo, hi, polynomial):
    x = bvvar("x", width)
    k, m = bvvar("k", width), bvvar("m", width)
    square = bvmul(x, x)
    f = bvadd(bvmul(square, x), square) if polynomial else square
    spec = bvand(bvult(f, bv(hi, width)), bvult(bv(lo, width), f))
    sketch = bvand(bvult(f, k), bvult(m, f))
    return [Obligation(spec, sketch)], {"k": width, "m": width}


def _instances():
    return {
        "square-interval": _interval_instance(10, 80, 600, polynomial=False),
        "poly-interval": _interval_instance(13, 700, 2900, polynomial=True),
    }


def _run(incremental_verify: bool):
    outcomes = {}
    for name, (obligations, holes) in _instances().items():
        # A fresh verification-side solver per run (probing disabled): the
        # two modes must see identical fast-path behavior so the SAT layer
        # is the only difference under measurement.
        outcomes[name] = synthesize(
            obligations, holes, incremental_verify=incremental_verify,
            solver=SmtSolver(seed=0, random_probes=0),
            random_probes=0, initial_random_examples=0, max_iterations=256)
    return outcomes


@pytest.mark.benchmark(group="incremental-verify")
def test_incremental_verify_step_speedup(benchmark):
    fresh = _run(False)

    warm = benchmark.pedantic(_run, args=(True,), iterations=1, rounds=1)

    total_fresh = 0.0
    total_warm = 0.0
    for name in fresh:
        cold, inc = fresh[name], warm[name]
        # Identity first: speed means nothing if the answers drift.
        assert cold.status == inc.status == "sat", name
        assert cold.hole_values == inc.hole_values, name
        assert cold.iterations == inc.iterations >= 4, \
            f"{name} must be genuinely multi-iteration"
        assert inc.incremental_verify and not cold.incremental_verify
        assert inc.stats["cores_pruned"] >= 1, \
            f"{name} produced no pruning cores — the failure-core path is idle"
        total_fresh += cold.stats["verify_time_seconds"]
        total_warm += inc.stats["verify_time_seconds"]

    speedup = total_fresh / total_warm if total_warm else float("inf")
    print(f"\nverify-step wall time: fresh {total_fresh:.3f}s, "
          f"incremental {total_warm:.3f}s ({speedup:.2f}x)")
    for name in fresh:
        print(f"  {name}: {fresh[name].iterations} iterations, "
              f"{warm[name].stats['verify_clauses_retained']} learned "
              f"clauses retained, {warm[name].stats['cores_pruned']} pruning "
              f"cores, {fresh[name].stats['verify_time_seconds']:.3f}s -> "
              f"{warm[name].stats['verify_time_seconds']:.3f}s")
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental verify step only {speedup:.2f}x faster "
        f"(expected >= {SPEEDUP_FLOOR}x)")
