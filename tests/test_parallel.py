"""Tests for the parallel execution layer: sharded sweeps, record
transport, and baseline labeling."""

import pytest

from repro.baselines import YosysLikeMapper, sota_for
from repro.engine.parallel import SessionSpec, run_lakeroad_parallel, run_sweep
from repro.engine.session import MappingSession
from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    records_from_jsonl,
    records_to_jsonl,
    run_baselines,
    run_lakeroad,
)
from repro.workloads import sample_workloads

from _fixtures import small_workloads as _fast_benchmarks


# --------------------------------------------------------------------------- #
# Sharded sweeps
# --------------------------------------------------------------------------- #
class TestShardedSweep:
    def test_parallel_records_match_serial_in_content_and_order(self):
        """The ISSUE's acceptance bar: workers=4 must reproduce the serial
        records exactly (modulo timing fields), identically ordered."""
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig(validate=False)
        serial = run_lakeroad_parallel(benchmarks, config, workers=1)
        parallel = run_lakeroad_parallel(benchmarks, config, workers=4)
        assert [r.comparable() for r in serial] == [r.comparable() for r in parallel]
        assert [r.benchmark for r in parallel] == [b.name for b in benchmarks]

    def test_run_sweep_aggregates_worker_stats(self):
        benchmarks = _fast_benchmarks(4)
        result = run_sweep(benchmarks, ExperimentConfig(validate=False), workers=2)
        assert result.workers == 2
        assert len(result.records) == len(benchmarks)
        stats = result.cache_stats
        # Every benchmark was either synthesized (a miss) or served from a
        # worker's warm cache (a hit).
        assert stats["hits"] + stats["misses"] == len(benchmarks)
        assert sum(result.portfolio_wins.values()) >= 0

    def test_workers_capped_at_benchmark_count(self):
        benchmarks = _fast_benchmarks(2)
        result = run_sweep(benchmarks, ExperimentConfig(validate=False), workers=16)
        assert result.workers == 2
        assert len(result.records) == 2

    def test_run_lakeroad_workers_knob_delegates_to_sharding(self):
        benchmarks = _fast_benchmarks(3)
        config = ExperimentConfig(validate=False)
        serial = run_lakeroad(benchmarks, config)
        sharded = run_lakeroad(benchmarks, config, workers=2)
        assert [r.comparable() for r in serial] == [r.comparable() for r in sharded]

    def test_run_lakeroad_workers_from_config(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig(validate=False, workers=2)
        records = run_lakeroad(benchmarks, config)
        assert [r.benchmark for r in records] == [b.name for b in benchmarks]

    def test_injected_session_rejected_for_multiprocess_runs(self):
        benchmarks = _fast_benchmarks(2)
        with pytest.raises(ValueError):
            run_lakeroad(benchmarks, ExperimentConfig(validate=False),
                         session=MappingSession(), workers=2)
        with pytest.raises(ValueError):
            run_sweep(benchmarks, ExperimentConfig(validate=False),
                      session=MappingSession(), workers=2)

    def test_empty_benchmark_list(self):
        result = run_sweep([], ExperimentConfig(validate=False), workers=4)
        assert result.records == [] and result.workers == 1

    def test_serial_run_lakeroad_honours_config_cache_dir(self, tmp_path):
        """Regression: the serial (workers=1) path must build its session
        from the config's session knobs, not silently fall back
        to the default in-memory session."""
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig(validate=False, cache_dir=str(tmp_path))
        cold = run_lakeroad(benchmarks, config)
        # (Later cold records may legitimately hit in-session: sign twins
        # share a canonical fingerprint.  The first one cannot.)
        assert not cold[0].cache_hit
        warm = run_lakeroad(benchmarks, config)  # fresh session, same disk
        assert all(r.cache_hit for r in warm)

    def test_workers_share_the_disk_cache(self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig(validate=False, cache_dir=str(tmp_path))
        cold = run_sweep(benchmarks, config, workers=2)
        warm = run_sweep(benchmarks, config, workers=2)
        assert warm.record_cache_hits == len(benchmarks)
        assert warm.hit_rate == 1.0
        assert [r.comparable() for r in cold.records] == \
            [r.comparable() for r in warm.records]

    def test_session_spec_builds_configured_sessions(self, tmp_path):
        spec = SessionSpec(cache_dir=str(tmp_path), enable_cache=False,
                           incremental=True, random_probes=7)
        with spec.build() as session:
            assert not session.enable_cache
            assert session.incremental and not session.incremental_verify
            assert session.random_probes == 7


# --------------------------------------------------------------------------- #
# Record transport
# --------------------------------------------------------------------------- #
class TestRecordTransport:
    def _record(self):
        return MappingRecord(tool="lakeroad", architecture="sofa", benchmark="b",
                             form="mul", width=8, stages=1, signed=True,
                             outcome="success", time_seconds=1.25, dsps=1,
                             luts=2, registers=3, cache_hit=True,
                             tool_variant="")

    def test_dict_round_trip(self):
        record = self._record()
        assert MappingRecord.from_dict(record.to_dict()) == record

    def test_from_dict_ignores_unknown_keys(self):
        data = self._record().to_dict()
        data["future_field"] = "whatever"
        assert MappingRecord.from_dict(data) == self._record()

    def test_jsonl_round_trip(self, tmp_path):
        records = [self._record(),
                   MappingRecord(tool="yosys", architecture="lattice-ecp5",
                                 benchmark="c", form="mul_add", width=10,
                                 stages=0, signed=False, outcome="fail",
                                 time_seconds=0.5, tool_variant="yosys")]
        path = records_to_jsonl(records, tmp_path / "records.jsonl")
        assert records_from_jsonl(path) == records

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records_to_jsonl([self._record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(records_from_jsonl(path)) == 1


# --------------------------------------------------------------------------- #
# Baseline tool labeling
# --------------------------------------------------------------------------- #
class TestBaselineLabels:
    def test_records_carry_family_and_variant(self):
        benchmarks = sample_workloads("lattice-ecp5", 2, seed=0, max_width=8)
        records = run_baselines(benchmarks)
        by_tool = {record.tool for record in records}
        assert by_tool == {"sota", "yosys"}
        variants = {record.tool_variant for record in records if record.tool == "sota"}
        assert variants == {"sota-lattice"}
        assert all(record.tool_variant == "yosys"
                   for record in records if record.tool == "yosys")

    def test_labels_come_from_the_mapper_not_list_position(self):
        assert sota_for("intel-cyclone10lp").family == "sota"
        assert sota_for("intel-cyclone10lp").name == "sota-intel"
        assert YosysLikeMapper().family == "yosys"
        assert YosysLikeMapper().name == "yosys"
