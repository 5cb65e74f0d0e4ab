"""§5.1 resource reduction: LEs / registers saved by Lakeroad vs baselines.

The paper reports average savings of several LEs and registers per
microbenchmark (multiplied across a large design by module reuse).  This
benchmark regenerates the per-baseline averages on the sampled workloads.
"""

import pytest

from repro.engine.parallel import run_sweep
from repro.harness.experiments import resource_reduction
from repro.harness.runner import run_baselines


@pytest.mark.benchmark(group="resource-reduction")
def test_resource_reduction_lattice(benchmark, experiment_config, lattice_benchmarks):
    def run():
        records = run_sweep(lattice_benchmarks, experiment_config).records
        records += run_baselines(lattice_benchmarks)
        return resource_reduction(records)

    summary = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\nresource reduction vs baselines:")
    for key, data in sorted(summary.items()):
        print(f"  {key:28s} LEs saved={data['avg_les_saved']:.1f} "
              f"registers saved={data['avg_registers_saved']:.1f} "
              f"(n={data['benchmarks']})")
    assert summary, "expected at least one baseline comparison"
    # Whenever Lakeroad succeeds it uses a single DSP and no fabric, so the
    # savings against any baseline that spilled to LUTs must be non-negative.
    for data in summary.values():
        assert data["avg_les_saved"] >= 0
