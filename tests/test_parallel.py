"""Tests for the parallel execution layer: sharded sweeps, record
transport, the sweep summary, and baseline labeling."""

import json
import multiprocessing
import os
import re
import signal
import time
from collections import Counter

import pytest

import repro.engine.parallel as parallel_mod
from repro.baselines import YosysLikeMapper, sota_for
from repro.cli import main
from repro.engine import stats
from repro.engine.diskcache import peek_entry_count
from repro.engine.parallel import (
    SessionSpec,
    SweepInterrupted,
    merge_cache_stats,
    run_sweep,
)
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
from loadgen import make_fake_serve


# --------------------------------------------------------------------------- #
# Sharded sweeps
# --------------------------------------------------------------------------- #
class TestShardedSweep:
    def test_parallel_records_match_serial_in_content_and_order(self):
        """The ISSUE's acceptance bar: workers=4 must reproduce the serial
        records exactly (modulo timing fields), identically ordered."""
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig(validate=False)
        serial = run_sweep(benchmarks, config, workers=1).records
        parallel = run_sweep(benchmarks, config, workers=4).records
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
        # Both workers report the shared database's row count; the merge
        # counts it once.
        stored = peek_entry_count(tmp_path)
        assert cold.cache_stats["entries"] == warm.cache_stats["entries"] \
            == stored > 0

    def test_merge_counts_a_shared_store_once(self):
        reports = [{"hits": 1, "misses": 2, "entries": 3, "errors": 0},
                   {"hits": 4, "misses": 1, "entries": 5, "errors": 1}]
        shared, separate = Counter(), Counter()
        for report in reports:
            merge_cache_stats(shared, report, shared_store=True)
            merge_cache_stats(separate, report, shared_store=False)
        assert shared == {"hits": 5, "misses": 3, "entries": 5, "errors": 1}
        assert separate == {"hits": 5, "misses": 3, "entries": 8, "errors": 1}

    def test_session_spec_builds_configured_sessions(self, tmp_path):
        spec = SessionSpec(cache_dir=str(tmp_path), enable_cache=False,
                           random_probes=7)
        with spec.build() as session:
            assert not session.enable_cache
            assert session.random_probes == 7


# --------------------------------------------------------------------------- #
# Interrupts and worker failures (on the fake solve)
# --------------------------------------------------------------------------- #
def _fake_solve(monkeypatch, benchmark: str, action) -> None:
    """Swap the workers' unit of work for the deterministic fake solve,
    running ``action`` when it reaches ``benchmark``.  The patch lands
    before ``run_sweep`` forks, so every worker inherits it."""
    serve = make_fake_serve(0.05)

    def fake(session, request):
        if request.benchmark == benchmark:
            action()
        return serve(session, request)

    monkeypatch.setattr(parallel_mod, "map_request", fake)


def _raise():
    raise ValueError("boom")


class TestShardedInterrupts:
    def test_sigint_drains_the_completed_records(self, monkeypatch):
        benchmarks = _fast_benchmarks(6)
        names = [b.name for b in benchmarks]
        _fake_solve(monkeypatch, names[1],
                    lambda: os.kill(os.getppid(), signal.SIGINT))
        before = set(multiprocessing.active_children())
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(benchmarks, ExperimentConfig(), workers=2)
        drained = [r.benchmark for r in info.value.result.records]
        assert names[1] in drained and len(drained) < len(names)
        assert drained == sorted(drained, key=names.index)
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize("action", [lambda: os._exit(1), _raise],
                             ids=["worker-exits", "worker-raises"])
    def test_a_failing_worker_stops_the_sweep(self, monkeypatch, action):
        benchmarks = _fast_benchmarks(6)
        victim = benchmarks[3].name
        _fake_solve(monkeypatch, victim, action)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=re.escape(victim)):
            run_sweep(benchmarks, ExperimentConfig(), workers=2)
        assert time.monotonic() - started < 10
        assert set(multiprocessing.active_children()) <= before


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

    def test_flat_counter_keys_of_older_records_load(self, tmp_path):
        # A line as records_to_jsonl wrote it while every counter was its
        # own top-level key, before they moved into the nested stats map.
        flat = (
            '{"tool": "lakeroad", "architecture": "intel-cyclone10lp", '
            '"benchmark": "mul_w8_p0_u", "form": "mul", "width": 8, '
            '"stages": 0, "signed": false, "outcome": "success", '
            '"time_seconds": 0.085, "dsps": 1, "luts": 0, "registers": 0, '
            '"cache_hit": false, "tool_variant": "", "incremental": true, '
            '"clauses_retained": 3, "solver_restarts": 1, '
            '"incremental_verify": true, "verify_clauses_retained": 4, '
            '"cores_pruned": 2, "clauses_deleted": 5, "db_size_peak": 6, '
            '"propagations": 201, "watcher_visits": 600, '
            '"solver_solve_seconds": 0.25, "probe_lanes_evaluated": 32, '
            '"probe_hits": 1, "prefilter_cex_found": 1}')
        path = tmp_path / "archived.jsonl"
        path.write_text(flat + "\n")
        [record] = records_from_jsonl(path)
        # The retired keys (the incremental flags and the counters of the
        # persistent sessions) are dropped, not lifted into the stats.
        assert record.stats == dict(
            stats.new(), clauses_deleted=5, db_size_peak=6,
            propagations=201, watcher_visits=600,
            solver_solve_seconds=0.25, probe_lanes_evaluated=32,
            probe_hits=1, prefilter_cex_found=1)
        assert record.outcome == "success" and record.dsps == 1
        # Written back out, it round-trips in the nested form.
        rewritten = records_to_jsonl([record], tmp_path / "nested.jsonl")
        assert records_from_jsonl(rewritten) == [record]
        # A nested record of the same era drops its retired counters too,
        # so they cannot reappear in merged sweep totals.
        nested = record.to_dict()
        nested["stats"].update(solver_restarts=1, clauses_retained=3,
                               verify_clauses_retained=4, cores_pruned=2)
        assert MappingRecord.from_dict(nested) == record


# --------------------------------------------------------------------------- #
# The sweep summary (lakeroad sweep --stats-json)
# --------------------------------------------------------------------------- #
class TestSweepSummary:
    #: Every key a non-distributed sweep summary carries.
    SUMMARY_KEYS = {
        "architectures", "cache", "clauses_deleted", "db_size_peak",
        "hit_rate", "interrupted", "outcomes", "prefilter_cex_found",
        "probe_hits", "probe_lanes_evaluated", "propagations",
        "propagations_per_second", "random_probes", "record_cache_hits",
        "solver_solve_seconds", "total", "watcher_visits",
        "watcher_visits_per_propagation", "workers",
    }

    def test_stats_json_keeps_every_summary_key(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        records_path = tmp_path / "records.jsonl"
        assert main(["sweep", "--arch", "intel-cyclone10lp", "--count", "2",
                     "--max-width", "8", "--no-cache",
                     "--jsonl", str(records_path),
                     "--stats-json", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert self.SUMMARY_KEYS <= set(summary)
        assert summary["total"] == 2 and summary["record_cache_hits"] == 0
        # The summary's counters are the records' counters, merged.
        records = records_from_jsonl(records_path)
        assert summary["probe_lanes_evaluated"] == sum(
            record.stats["probe_lanes_evaluated"] for record in records) > 0
        assert summary["db_size_peak"] == max(
            record.stats["db_size_peak"] for record in records)
        assert "solver counters:" in capsys.readouterr().err

    def test_full_enumeration_is_capped_by_an_explicit_max_width(
            self, tmp_path):
        records_path = tmp_path / "records.jsonl"
        assert main(["sweep", "--full", "--max-width", "8",
                     "--arch", "intel-cyclone10lp", "--no-cache",
                     "--jsonl", str(records_path)]) == 0
        names = sorted(r.benchmark for r in records_from_jsonl(records_path))
        assert names == sorted(f"mul_w8_p{stages}_{sign}"
                               for stages in range(3) for sign in "us")


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
