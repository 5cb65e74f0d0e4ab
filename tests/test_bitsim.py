"""Unit tests for the bit-parallel simulation engine (repro.bv.bitsim).

The packed evaluator's contract has two halves, and both are load-bearing:

* **semantics** — every kernel matches the scalar evaluator lane-for-lane
  (the differential fuzz in ``test_fuzz_differential.py`` sweeps this at
  scale; here we pin the edge cases and both multiply kernels);
* **determinism** — the probing consumers draw from the same seeded RNG
  streams, in the same per-variable order, as the historical scalar
  loops, and leave the stream in the same position.  That equivalence is
  what keeps statuses, hole values and counterexample sequences
  byte-identical to the scalar loops' trajectories, so it gets its own
  reference-implementation tests.
"""

import random

import pytest

from repro.bv import (
    bv,
    bvadd,
    bvand,
    bvashr,
    bvconcat,
    bveq,
    bvextract,
    bvite,
    bvlshr,
    bvmul,
    bvne,
    bvneg,
    bvnot,
    bvor,
    bvredand,
    bvredor,
    bvshl,
    bvsge,
    bvsgt,
    bvsle,
    bvslt,
    bvsub,
    bvuge,
    bvugt,
    bvule,
    bvult,
    bvvar,
    bvxnor,
    bvxor,
)
from repro.bv.ast import BVExpr
from repro.bv.bitblast import BitBlaster
from repro.bv.bitsim import (
    MUL_LANEWISE_MIN_WIDTH,
    PROBE_LANES,
    PackedEvaluator,
    _mul2,
    _mul_lanewise,
    _pack_values,
    _transpose64,
    _unpack_values,
    first_sat_lane,
    pack_assignments,
    unpack_lane,
)
from repro.bv.eval import evaluate, free_vars, var_widths


def _lanes_match_scalar(expr: BVExpr, batch):
    """Assert the packed evaluation of ``batch`` equals per-lane scalar."""
    words = PackedEvaluator(expr).evaluate_batch(batch)
    assert len(words) == expr.width
    for lane, assignment in enumerate(batch):
        assert unpack_lane(words, lane) == evaluate(expr, assignment), \
            (expr, lane, assignment)


def _random_batch(widths, rng, lanes):
    return [{name: rng.getrandbits(width) for name, width in widths.items()}
            for _ in range(lanes)]


# --------------------------------------------------------------------------- #
# Transposition and packing
# --------------------------------------------------------------------------- #
class TestPacking:
    def test_transpose64_moves_every_bit(self):
        rng = random.Random(1)
        x = rng.getrandbits(4096)
        t = _transpose64(x)
        for _ in range(256):
            r, c = rng.randrange(64), rng.randrange(64)
            assert (x >> (r * 64 + c)) & 1 == (t >> (c * 64 + r)) & 1

    def test_transpose64_is_an_involution(self):
        rng = random.Random(2)
        for _ in range(8):
            x = rng.getrandbits(4096)
            assert _transpose64(_transpose64(x)) == x

    @pytest.mark.parametrize("width", [1, 8, 13, 64, 65, 100])
    @pytest.mark.parametrize("lanes", [1, 5, 64, 100])
    def test_pack_unpack_round_trip(self, width, lanes):
        rng = random.Random(width * 1000 + lanes)
        values = [rng.getrandbits(width) for _ in range(lanes)]
        words = _pack_values(values, width)
        assert len(words) == width
        assert _unpack_values(words, lanes) == values
        for lane, value in enumerate(values):
            assert unpack_lane(words, lane) == value

    def test_pack_assignments_masks_oversized_values(self):
        packed = pack_assignments([{"x": 0b1111}], {"x": 2})
        assert unpack_lane(packed["x"], 0) == 0b11

    def test_pack_assignments_bit_semantics(self):
        # result[name][b] bit i == bit b of assignments[i][name].
        packed = pack_assignments([{"x": 0b01}, {"x": 0b10}], {"x": 2})
        assert packed["x"][0] == 0b01  # bit 0 set only in lane 0
        assert packed["x"][1] == 0b10  # bit 1 set only in lane 1

    def test_first_sat_lane(self):
        assert first_sat_lane(0) == -1
        assert first_sat_lane(0b1) == 0
        assert first_sat_lane(0b1010000) == 4
        assert first_sat_lane(1 << 63) == 63


# --------------------------------------------------------------------------- #
# Kernel edge cases (scalar evaluate is the oracle)
# --------------------------------------------------------------------------- #
class TestKernels:
    def test_arithmetic_carry_chains(self):
        a, b = bvvar("a", 8), bvvar("b", 8)
        edge = [0, 1, 127, 128, 254, 255]
        batch = [{"a": x, "b": y} for x in edge for y in edge][:PROBE_LANES]
        for expr in (bvadd(a, b), bvsub(a, b), bvneg(a), bvnot(a),
                     bvadd(a, b, bv(1, 8))):
            _lanes_match_scalar(expr, batch)

    def test_comparison_boundaries(self):
        a, b = bvvar("a", 4), bvvar("b", 4)
        # All 16x16 pairs cover every boundary: equal, off-by-one, and the
        # signed wrap at 7/8 (the sign-flip cases ripple chains get wrong).
        pairs = [{"a": x, "b": y} for x in range(16) for y in range(16)]
        for op in (bvult, bvule, bvugt, bvuge, bvslt, bvsle, bvsgt, bvsge,
                   bveq, bvne):
            for base in range(0, len(pairs), PROBE_LANES):
                _lanes_match_scalar(op(a, b), pairs[base:base + PROBE_LANES])

    def test_shift_saturation_and_sign_fill(self):
        a, sh = bvvar("a", 5), bvvar("sh", 5)
        # Shift amounts at and beyond the width must saturate (to the sign
        # for ashr); 5 is not a power of two, catching barrel-stage bugs.
        batch = [{"a": value, "sh": amount}
                 for value in (0, 1, 0b10000, 0b11111, 0b10101)
                 for amount in (0, 1, 4, 5, 6, 31)][:PROBE_LANES]
        for op in (bvshl, bvlshr, bvashr):
            _lanes_match_scalar(op(a, sh), batch)

    def test_structural_ops(self):
        rng = random.Random(3)
        a, b, c = bvvar("a", 5), bvvar("b", 3), bvvar("c", 1)
        batch = _random_batch({"a": 5, "b": 3, "c": 1}, rng, PROBE_LANES)
        for expr in (bvconcat(a, b), bvextract(3, 1, a), bvredand(a),
                     bvredor(a), bvite(c, a, bvnot(a)), bvxnor(b, b),
                     bvxor(a, a), bvand(a, a, bvnot(a)), bvor(a, bvnot(a))):
            _lanes_match_scalar(expr, batch)

    @pytest.mark.parametrize("width", [4, 8, MUL_LANEWISE_MIN_WIDTH, 24])
    def test_multiply_both_kernels(self, width):
        # Widths straddle MUL_LANEWISE_MIN_WIDTH so both the packed
        # shift-add and the lane-wise fallback run against the oracle.
        rng = random.Random(width)
        a, b = bvvar("a", width), bvvar("b", width)
        batch = _random_batch({"a": width, "b": width}, rng, PROBE_LANES)
        batch[0] = {"a": 0, "b": (1 << width) - 1}
        batch[1] = {"a": (1 << width) - 1, "b": (1 << width) - 1}
        _lanes_match_scalar(bvmul(a, b), batch)

    def test_multiply_kernels_agree_with_each_other(self):
        rng = random.Random(9)
        width, m = 16, (1 << PROBE_LANES) - 1
        a = _pack_values([rng.getrandbits(width) for _ in range(PROBE_LANES)],
                         width)
        b = _pack_values([rng.getrandbits(width) for _ in range(PROBE_LANES)],
                         width)
        assert _mul2(a, b, m) == _mul_lanewise(a, b, m)

    def test_partial_batches_and_wide_batches(self):
        a, b = bvvar("a", 7), bvvar("b", 7)
        expr = bveq(bvadd(a, b), bvmul(a, b))
        rng = random.Random(4)
        for lanes in (1, 3, PROBE_LANES, 100):
            _lanes_match_scalar(expr, _random_batch({"a": 7, "b": 7},
                                                    rng, lanes))

    def test_sat_lanes_requires_one_bit_formula(self):
        with pytest.raises(ValueError):
            PackedEvaluator(bvadd(bvvar("a", 4), bvvar("b", 4))).sat_lanes(
                [{"a": 1, "b": 2}])

    def test_sat_lanes_marks_exactly_the_satisfying_lanes(self):
        a = bvvar("a", 4)
        expr = bvult(a, bv(3, 4))
        batch = [{"a": value} for value in (5, 2, 9, 0, 3, 1)]
        hits = PackedEvaluator(expr).sat_lanes(batch)
        assert hits == 0b101010
        assert first_sat_lane(hits) == 1


# --------------------------------------------------------------------------- #
# AIG packed simulation
# --------------------------------------------------------------------------- #
class TestAigSimulatePacked:
    def test_matches_scalar_simulation_on_blasted_design(self):
        a, b = bvvar("a", 4), bvvar("b", 4)
        blaster = BitBlaster()
        bits = blaster.blast(bvadd(bvmul(a, b), bvite(bvult(a, b), a, b)))
        aig = blaster.aig
        rng = random.Random(5)
        lanes = 64
        patterns = [{name: rng.getrandbits(1) for name in aig.inputs}
                    for _ in range(lanes)]
        input_words = {
            name: sum(patterns[i][name] << i for i in range(lanes))
            for name in aig.inputs
        }
        packed = aig.simulate_packed(input_words, bits, lanes=lanes)
        for i, pattern in enumerate(patterns):
            scalar = aig.simulate(pattern, bits)
            assert [(word >> i) & 1 for word in packed] == scalar, i

    def test_lane_mask_truncates_oversized_words(self):
        aig = BitBlaster().aig
        blaster = BitBlaster()
        bits = blaster.blast(bvnot(bvvar("x", 1)))
        aig = blaster.aig
        # Bits beyond the lane count must not leak into outputs.
        (out,) = aig.simulate_packed({name: ~0 for name in aig.inputs},
                                     bits, lanes=4)
        assert out == 0


# --------------------------------------------------------------------------- #
# Memoized free_vars / var_widths
# --------------------------------------------------------------------------- #
class TestVarWidthsMemoization:
    def test_caches_are_isolated_from_caller_mutation(self):
        expr = bvadd(bvvar("a", 4), bvvar("b", 4))
        first = var_widths(expr)
        first["intruder"] = 99
        first["a"] = 1
        assert var_widths(expr) == {"a": 4, "b": 4}
        assert free_vars(expr) == frozenset({"a", "b"})

    def test_width_conflict_raises(self):
        conflicted = bvconcat(bvvar("x", 2), bvvar("x", 3))
        with pytest.raises(ValueError, match="used at widths"):
            var_widths(conflicted)

    def test_matches_legacy_discovery_order(self):
        # The probing RNG draws one value per variable in var_widths
        # iteration order, so the memoized traversal must reproduce the
        # legacy first-discovery order exactly — not just the same set.
        def legacy_order(expr):
            seen = []
            for node in expr.iter_dag():
                if node.op == "var" and node.name not in seen:
                    seen.append(node.name)
            return seen

        rng = random.Random(6)
        names = [f"v{i}" for i in range(6)]
        for _ in range(50):
            pool = [bvvar(rng.choice(names), 4) for _ in range(4)]
            for _ in range(10):
                x, y = rng.choice(pool), rng.choice(pool)
                pool.append(rng.choice((bvadd, bvsub, bvand, bvor, bvxor,
                                        bvmul))(x, y))
            expr = pool[-1]
            assert list(var_widths(expr)) == legacy_order(expr), expr


# --------------------------------------------------------------------------- #
# Probe-layer determinism: the packed loop vs a scalar reference
# --------------------------------------------------------------------------- #
def _scalar_probe_reference(formula, seed, probes):
    """The historical one-probe-at-a-time layer 2, reimplemented verbatim.

    Returns (model_or_None, rng): the first satisfying assignment within
    the probe budget, and the RNG left exactly where the scalar loop
    stopped drawing.
    """
    rng = random.Random(seed)
    widths = var_widths(formula)
    for _ in range(probes):
        assignment = {name: rng.getrandbits(width)
                      for name, width in widths.items()}
        if evaluate(formula, assignment):
            return assignment, rng
    return None, rng


class TestProbeDeterminism:
    def test_hit_model_and_stream_position_match_scalar(self):
        from repro.smt.solver import SmtSolver

        # ~1/16 hit probability per probe: hits land mid-batch, which is
        # exactly the case the rewind-and-replay logic must get right.
        formula = bveq(bvvar("x", 4), bv(11, 4))
        hits_checked = 0
        for seed in range(8):
            expected, reference_rng = _scalar_probe_reference(formula, seed, 96)
            solver = SmtSolver(random_probes=96, seed=seed)
            result = solver.check([formula])
            if expected is not None:
                assert result.status == "sat"
                assert result.strategy == "simulate"
                assert {name: result.model[name] for name in expected} \
                    == expected, seed
                hits_checked += 1
            # The stream must sit exactly where the scalar loop left it —
            # this is what keeps every downstream CEGIS trajectory
            # byte-identical.
            assert solver.rng.getrandbits(64) \
                == reference_rng.getrandbits(64), seed
        assert hits_checked > 0

    def test_miss_consumes_the_full_budget_identically(self):
        from repro.smt.solver import SmtSolver

        # Unsat but not constant-foldable: no square is 3 modulo 16, so
        # every probe misses and layer 3 settles it.
        x = bvvar("x", 4)
        unsat = bveq(bvmul(x, x), bv(3, 4))
        _, reference_rng = _scalar_probe_reference(unsat, 3, 40)
        solver = SmtSolver(random_probes=40, seed=3)
        result = solver.check([unsat])
        assert result.status == "unsat"
        assert result.probe_lanes == 40
        assert solver.rng.getrandbits(64) == reference_rng.getrandbits(64)

    def test_probe_lanes_counts_chunks_not_the_budget(self):
        from repro.smt.solver import SmtSolver

        # A formula satisfied by ~half of assignments hits in chunk one,
        # so only PROBE_LANES lanes are ever evaluated of the 640 budget.
        formula = bvult(bvvar("x", 8), bv(128, 8))
        solver = SmtSolver(random_probes=640, seed=0)
        result = solver.check([formula])
        assert result.status == "sat"
        assert result.probe_lanes == PROBE_LANES


# --------------------------------------------------------------------------- #
# Telemetry flow: CegisResult -> SynthesisOutcome -> MappingRecord -> sweep
# --------------------------------------------------------------------------- #
class TestProbeTelemetry:
    def test_cegis_counts_candidate_probe_lanes(self):
        from repro.smt.cegis import Obligation, synthesize
        from repro.smt.solver import SmtSolver

        x, k = bvvar("x", 4), bvvar("k", 4)
        outcome = synthesize([Obligation(spec=bvult(x, bv(9, 4)),
                                         sketch=bvult(x, k))],
                             {"k": 4}, solver=SmtSolver(seed=0))
        assert outcome.status == "sat"
        assert outcome.stats["probe_lanes_evaluated"] > 0

    def test_zero_probes_disables_probing_and_telemetry(self):
        from repro.smt.cegis import Obligation, synthesize
        from repro.smt.solver import SmtSolver

        x, k = bvvar("x", 4), bvvar("k", 4)
        probed = synthesize([Obligation(spec=bvult(x, bv(9, 4)),
                                        sketch=bvult(x, k))],
                            {"k": 4}, solver=SmtSolver(seed=0))
        unprobed = synthesize([Obligation(spec=bvult(x, bv(9, 4)),
                                          sketch=bvult(x, k))],
                              {"k": 4}, random_probes=0,
                              solver=SmtSolver(random_probes=0, seed=0))
        assert unprobed.status == probed.status == "sat"
        assert unprobed.stats["probe_lanes_evaluated"] == 0
        assert unprobed.stats["probe_hits"] == 0

    def test_record_and_sweep_aggregation(self):
        from dataclasses import replace

        from repro.engine.parallel import SweepResult
        from repro.engine.session import MappingSession
        from repro.harness.runner import ExperimentConfig, map_benchmark
        from repro.workloads.generator import sample_workloads

        benchmark = sample_workloads("intel-cyclone10lp", 1, seed=0,
                                     max_width=8)[0]
        with MappingSession() as session:
            record = map_benchmark(session, benchmark, ExperimentConfig())
            cached = map_benchmark(session, benchmark, ExperimentConfig())
        assert record.stats["probe_lanes_evaluated"] > 0
        assert cached.cache_hit
        # A hit replays the counters of the solve that produced it...
        assert cached.stats == record.stats
        # ...but sweep aggregation counts only the records that ran
        # synthesis.
        sweep = SweepResult(records=[record, cached])
        for key in ("probe_lanes_evaluated", "probe_hits",
                    "prefilter_cex_found", "propagations"):
            assert sweep.stats[key] == record.stats[key], key
        # Counters add, except the db_size_peak high-water mark, which
        # keeps the maximum; the cache hit's larger numbers never count.
        small = replace(record, stats=dict(record.stats, db_size_peak=5,
                                           propagations=7))
        large = replace(record, stats=dict(record.stats, db_size_peak=9,
                                           propagations=11))
        hit = replace(cached, stats=dict(cached.stats, db_size_peak=100,
                                         propagations=1000))
        totals = SweepResult(records=[small, hit, large]).stats
        assert totals["db_size_peak"] == 9
        assert totals["propagations"] == 18
        # And the wire format round-trips the counters map.
        assert type(record).from_dict(record.to_dict()) == record


# --------------------------------------------------------------------------- #
# CLI threading: lakeroad bench
# --------------------------------------------------------------------------- #
class TestCliThreading:
    def test_bench_writes_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["bench", "--arch", "intel-cyclone10lp", "--count", "1",
                   "--throughput-assignments", "256",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        snapshots = list(tmp_path.glob("BENCH_*.json"))
        assert len(snapshots) == 1
        import json

        snapshot = json.loads(snapshots[0].read_text())
        assert snapshot["totals"]["benchmarks"] == 1
        assert snapshot["probe_throughput"]["speedup"] > 0
        assert {"probe_lanes_evaluated", "probe_hits",
                "prefilter_cex_found"} <= set(snapshot["probes"])
        assert capsys.readouterr().out.strip() == str(snapshots[0])
