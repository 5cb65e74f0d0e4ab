"""Figure 7: histogram of Lakeroad synthesis runtimes (terminating runs).

The paper's observation is that most synthesis queries terminate quickly
with a long tail of slower queries; this benchmark regenerates the histogram
data for the sampled workloads and checks the same skew.
"""

import dataclasses
import os

import pytest

from repro.engine.parallel import run_sweep
from repro.harness.experiments import figure7_histogram

FULL_SCALE = os.environ.get("LAKEROAD_BENCH_FULL", "0") == "1"


@pytest.mark.benchmark(group="figure7")
def test_figure7_runtime_histogram(benchmark, experiment_config,
                                   lattice_benchmarks, intel_benchmarks):
    # Runtime distributions must come from cold synthesis, not cache hits.
    config = dataclasses.replace(experiment_config, use_cache=False)

    def run():
        records = run_sweep(list(lattice_benchmarks) + list(intel_benchmarks),
                            config).records
        return figure7_histogram(records, bins=10), records

    histogram, records = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\nbin edges:", [round(edge, 2) for edge in histogram["bin_edges"]])
    print("counts   :", histogram["counts"])
    print("terminating:", histogram["terminating"], "timeouts:", histogram["timeouts"])
    assert histogram["terminating"] > 0
    # Every terminating run is accounted for in exactly one bin, and every
    # timeout is accounted for outside the bins.
    assert sum(histogram["counts"]) == histogram["terminating"]
    lakeroad_records = [r for r in records if r.tool == "lakeroad"]
    assert histogram["timeouts"] == \
        sum(1 for r in lakeroad_records if r.outcome == "timeout")
    assert histogram["terminating"] + histogram["timeouts"] == len(lakeroad_records)
    times = sorted(r.time_seconds for r in records
                   if r.tool == "lakeroad" and r.outcome in ("success", "unsat"))
    if FULL_SCALE:
        # The paper's right-skew ("most queries terminate quickly, long
        # thin tail") emerges on the full enumeration with wide bitwidths;
        # the stratified laptop sample is too small and uniform for it.
        median = times[len(times) // 2]
        mean = sum(times) / len(times)
        assert median <= mean * 1.05
