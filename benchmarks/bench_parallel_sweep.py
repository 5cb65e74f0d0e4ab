"""Sharded-sweep scaling: wall-clock at workers ∈ {1, 2, 4}, cold vs warm.

The evaluation sweep is embarrassingly parallel, so wall-clock should fall
as workers are added (modulo per-query variance and process start-up), and
a warm persistent cache should collapse the sweep to read time regardless
of worker count.  Laptop scale uses the sampled workloads; set
``LAKEROAD_BENCH_FULL=1`` for the complete enumeration.
"""

import pytest

from repro.engine.parallel import SessionSpec, run_sweep
from repro.harness.runner import ExperimentConfig


@pytest.fixture
def sweep_benchmarks(intel_benchmarks, lattice_benchmarks):
    return list(intel_benchmarks) + list(lattice_benchmarks)


def _config(experiment_config):
    return ExperimentConfig(timeout_seconds=dict(experiment_config.timeout_seconds),
                            validate=False)


@pytest.mark.benchmark(group="parallel-sweep")
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cold_sweep_scaling(benchmark, experiment_config, sweep_benchmarks, workers):
    """Cold sweep (no persistent cache): scaling with worker count."""
    benchmarks = sweep_benchmarks

    def run():
        # No cache_dir and a fresh per-round session: every round pays
        # full synthesis cost, so rounds measure compute scaling.
        return run_sweep(benchmarks, _config(experiment_config), workers=workers)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert len(result.records) == len(benchmarks)
    assert result.workers == min(workers, len(benchmarks))
    print(f"\nworkers={workers}: outcomes {result.outcome_counts()}")


@pytest.mark.benchmark(group="parallel-sweep")
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_warm_disk_cache_sweep(benchmark, experiment_config, sweep_benchmarks,
                               tmp_path, workers):
    """Second sweep over a persistent cache: should be nearly free."""
    benchmarks = sweep_benchmarks
    spec = SessionSpec(cache_dir=str(tmp_path / f"cache-w{workers}"))
    config = _config(experiment_config)
    cold = run_sweep(benchmarks, config, workers=workers, session_spec=spec)

    def run():
        return run_sweep(benchmarks, config, workers=workers, session_spec=spec)

    warm = benchmark.pedantic(run, iterations=1, rounds=1)
    assert [r.outcome for r in warm.records] == [r.outcome for r in cold.records]
    # Timeouts are never persisted, so only terminating runs must hit.
    terminating = sum(1 for r in cold.records if r.outcome != "timeout")
    assert warm.record_cache_hits >= terminating
    print(f"\nworkers={workers}: warm hit rate {warm.hit_rate:.0%} "
          f"({warm.record_cache_hits}/{len(warm.records)})")
