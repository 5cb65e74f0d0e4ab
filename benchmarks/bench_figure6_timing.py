"""Figure 6 (bottom): mapping time per tool (median / min / max).

Regenerates the timing table.  Absolute numbers differ from the paper's
(industrial solvers on a 64-core server vs a pure-Python stack), but the
shape holds: baseline pattern matchers are fast and flat, Lakeroad's
synthesis times are larger and highly variable.
"""

import dataclasses

import pytest

from repro.engine.parallel import run_sweep
from repro.harness.experiments import figure6_timing, render_timing_table
from repro.harness.runner import run_baselines


@pytest.mark.benchmark(group="figure6-timing")
def test_figure6_timing_lattice(benchmark, experiment_config, lattice_benchmarks):
    # Timing must measure cold synthesis, not hits on a warm session cache.
    config = dataclasses.replace(experiment_config, use_cache=False)

    def run():
        records = run_sweep(lattice_benchmarks, config).records
        records += run_baselines(lattice_benchmarks)
        return figure6_timing({"lattice-ecp5": records})

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\n" + render_timing_table(rows))
    by_tool = {row["tool"]: row for row in rows}
    # Lakeroad's max/min spread is wider than the baselines' (long tail).
    assert by_tool["lakeroad"]["max"] >= by_tool["yosys"]["max"]


@pytest.mark.benchmark(group="figure6-timing")
def test_figure6_timing_intel(benchmark, experiment_config, intel_benchmarks):
    config = dataclasses.replace(experiment_config, use_cache=False)

    def run():
        records = run_sweep(intel_benchmarks, config).records
        records += run_baselines(intel_benchmarks)
        return figure6_timing({"intel-cyclone10lp": records})

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\n" + render_timing_table(rows))
    assert {row["tool"] for row in rows} == {"lakeroad", "sota", "yosys"}
