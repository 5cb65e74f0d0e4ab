"""Bit-parallel probing: packed vs scalar throughput, and run-to-run identity.

The packed evaluator (``repro.bv.bitsim``) answers "does any of these 64
random assignments satisfy the formula?" with word-parallel kernels over
bit-transposed lanes instead of 64 scalar ``evaluate`` walks.  Two things
must hold for it to be shippable:

* it must actually be fast — the probe phase is pure overhead when the
  formula is unsatisfiable under all probes, so the engine only earns its
  keep with a large constant-factor win on the miters tier-1 synthesis
  really probes;
* it must be invisible — probing draws from the same seeded RNG stream as
  the historical scalar loop and rewinds it on a hit, so every CEGIS
  trajectory (statuses, hole values, iteration counts) repeats exactly
  from one fresh session to the next, and turning probing off changes no
  verdict.

This benchmark asserts both: a >= ``SPEEDUP_FLOOR`` packed-over-scalar
throughput ratio on real tier-1 equivalence miters (identity of every lane
checked first), and byte-identical end-to-end mapping outcomes across two
fresh sessions at the default probe budget.
"""

import random

import pytest

from repro.arch import load_architecture
from repro.bv import bvand, bveq
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator, unpack_lane
from repro.bv.eval import evaluate, var_widths
from repro.core.equivalence import output_pairs
from repro.core.sketch_gen import DesignInterface, generate_sketch
from repro.engine.session import MappingSession
from repro.harness.bench import probe_throughput
from repro.hdl.behavioral import verilog_to_behavioral
from repro.vendor.library import PrimitiveLibrary
from repro.workloads import sample_workloads

#: Minimum packed-over-scalar throughput ratio on tier-1 miters.  The
#: measured headroom is ~11x on the obligation miters and ~14x on the
#: representative DSP formula; 8x is the acceptance floor from the
#: bit-parallel engine's design goal, left slack for noisy CI runners.
SPEEDUP_FLOOR = 8.0

#: Random assignments evaluated per miter on each side (a multiple of
#: PROBE_LANES so the packed side runs only full batches).
ASSIGNMENTS = 4096

ARCH = "intel-cyclone10lp"
DESIGN_COUNT = 4


def _tier1_miters():
    """Real equivalence miters: sketch-vs-design obligations for tier-1
    workloads, exactly the formulas the probe layer sees during mapping."""
    library = PrimitiveLibrary()
    miters = []
    for benchmark in sample_workloads(ARCH, DESIGN_COUNT, seed=0, max_width=8):
        design = verilog_to_behavioral(benchmark.verilog)
        arch = load_architecture(benchmark.architecture)
        interface = DesignInterface(input_widths=dict(design.input_widths),
                                    output_width=design.output_width)
        sketch = generate_sketch("dsp", arch, interface, library)
        pairs = output_pairs(sketch.program, design.program,
                             design.pipeline_depth, 1)
        equalities = [bveq(d, s) for _, s, d in pairs]
        formula = equalities[0] if len(equalities) == 1 else bvand(*equalities)
        miters.append((benchmark.name, formula))
    return miters


@pytest.mark.benchmark(group="bitparallel-probe")
def test_packed_probe_throughput_on_tier1_miters(benchmark):
    import time

    miters = _tier1_miters()
    workload = []
    for name, formula in miters:
        widths = sorted(var_widths(formula).items())
        rng = random.Random(0)
        batch = [{n: rng.getrandbits(w) for n, w in widths}
                 for _ in range(ASSIGNMENTS)]
        workload.append((name, formula, batch))

    scalar_results = {}
    scalar_seconds = 0.0
    for name, formula, batch in workload:
        start = time.perf_counter()
        scalar_results[name] = [evaluate(formula, a) for a in batch]
        scalar_seconds += time.perf_counter() - start

    evaluators = {name: PackedEvaluator(formula)
                  for name, formula, _ in workload}

    def packed_pass():
        results = {}
        for name, _, batch in workload:
            evaluator = evaluators[name]
            words_per_batch = []
            for base in range(0, ASSIGNMENTS, PROBE_LANES):
                words_per_batch.append(
                    evaluator.evaluate_batch(batch[base:base + PROBE_LANES]))
            results[name] = words_per_batch
        return results

    start = time.perf_counter()
    packed_results = packed_pass()
    packed_seconds = time.perf_counter() - start
    benchmark.pedantic(packed_pass, iterations=1, rounds=1)

    # Identity first: speed means nothing if any lane disagrees with the
    # scalar evaluator.
    for name, _, _ in workload:
        expected = scalar_results[name]
        for batch_index, words in enumerate(packed_results[name]):
            for lane in range(PROBE_LANES):
                got = unpack_lane(words, lane)
                assert got == expected[batch_index * PROBE_LANES + lane], (
                    f"{name}: lane {lane} of batch {batch_index} "
                    f"disagrees with scalar evaluate")

    total = len(workload) * ASSIGNMENTS
    speedup = scalar_seconds / packed_seconds if packed_seconds else float("inf")
    print(f"\nprobe throughput over {len(workload)} tier-1 miters "
          f"({total} assignments each side):")
    print(f"  scalar {total / scalar_seconds:,.0f}/s, "
          f"packed {total / packed_seconds:,.0f}/s ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"packed probing only {speedup:.1f}x faster than scalar on tier-1 "
        f"miters (expected >= {SPEEDUP_FLOOR}x)")

    # The representative-formula number `lakeroad bench` snapshots must
    # clear the same floor.
    snapshot = probe_throughput(ASSIGNMENTS)
    print(f"  representative DSP miter: {snapshot['speedup']:.1f}x")
    assert snapshot["speedup"] >= SPEEDUP_FLOOR, (
        f"representative-miter probing only {snapshot['speedup']:.1f}x "
        f"(expected >= {SPEEDUP_FLOOR}x)")


def _map_all(random_probes: int):
    outcomes = {}
    with MappingSession(enable_cache=False,
                        random_probes=random_probes) as session:
        for benchmark in sample_workloads(ARCH, DESIGN_COUNT, seed=0,
                                          max_width=8):
            design = verilog_to_behavioral(benchmark.verilog)
            result = session.map_design(design, template="dsp",
                                        arch=benchmark.architecture)
            synthesis = result.synthesis
            outcomes[benchmark.name] = {
                "status": result.status,
                "hole_values": dict(synthesis.hole_values) if synthesis else {},
                "iterations": synthesis.cegis_iterations if synthesis else 0,
                "probe_lanes": result.stats["probe_lanes_evaluated"],
            }
    return outcomes


@pytest.mark.benchmark(group="bitparallel-probe")
def test_cegis_outcomes_identical_across_runs(benchmark):
    """End-to-end mapping with packed probing enabled must repeat its
    trajectory exactly on a fresh session, and probing must not change
    which designs solve."""
    baseline = _map_all(random_probes=32)
    assert any(o["status"] == "success" for o in baseline.values()), (
        "run-identity check is vacuous: no tier-1 design solved")
    assert any(o["probe_lanes"] > 0 for o in baseline.values()), (
        "run-identity check is vacuous: packed probing never ran")

    rerun = benchmark.pedantic(_map_all, args=(32,), iterations=1, rounds=1)
    for name, expected in baseline.items():
        got = rerun[name]
        assert got["status"] == expected["status"], (
            f"{name}: status diverged between runs")
        assert got["hole_values"] == expected["hole_values"], (
            f"{name}: hole values diverged between runs")
        assert got["iterations"] == expected["iterations"], (
            f"{name}: iteration count diverged between runs")

    # Probing is an accelerator, not an oracle: disabling it may change the
    # CEGIS trajectory (different counterexample order) but never the verdict.
    unprobed = _map_all(random_probes=0)
    for name, expected in baseline.items():
        assert unprobed[name]["status"] == expected["status"], (
            f"{name}: outcome changed when probing was disabled")
        assert unprobed[name]["probe_lanes"] == 0, (
            f"{name}: probes ran despite random_probes=0")

    statuses = sorted(o["status"] for o in baseline.values())
    print(f"\noutcomes identical across runs "
          f"(probes on and off): {statuses}")
