"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artifacts (see
the "Experiment index" in EXPERIMENTS.md).  The default configuration is laptop-scale:
stratified workload subsamples, small bitwidths and short per-query
timeouts.  Set the environment variable ``LAKEROAD_BENCH_FULL=1`` to run the
complete 1320/396/66 enumeration with the paper's timeouts (hours of
runtime, as in the original artifact).
"""

import os

import pytest

from repro.harness.runner import ExperimentConfig
from repro.workloads import enumerate_workloads, sample_workloads

FULL_SCALE = os.environ.get("LAKEROAD_BENCH_FULL", "0") == "1"

#: Laptop-scale sample sizes per architecture.
SAMPLE_SIZES = {
    "xilinx-ultrascale-plus": 3,
    "lattice-ecp5": 8,
    "intel-cyclone10lp": 6,
}


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    if FULL_SCALE:
        return ExperimentConfig(timeout_seconds={
            "xilinx-ultrascale-plus": 120.0,
            "lattice-ecp5": 40.0,
            "intel-cyclone10lp": 20.0,
        })
    return ExperimentConfig(timeout_seconds={
        "xilinx-ultrascale-plus": 60.0,
        "lattice-ecp5": 20.0,
        "intel-cyclone10lp": 10.0,
    })


def benchmarks_for(architecture: str):
    """The workload set a benchmark runs for one architecture."""
    if FULL_SCALE:
        return enumerate_workloads(architecture)
    return sample_workloads(architecture, SAMPLE_SIZES[architecture], max_width=8)


@pytest.fixture(scope="session")
def xilinx_benchmarks():
    return benchmarks_for("xilinx-ultrascale-plus")


@pytest.fixture(scope="session")
def lattice_benchmarks():
    return benchmarks_for("lattice-ecp5")


@pytest.fixture(scope="session")
def intel_benchmarks():
    return benchmarks_for("intel-cyclone10lp")
