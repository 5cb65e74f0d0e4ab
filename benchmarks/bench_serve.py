"""Service-mode throughput: warm worker pool vs per-request cold starts.

``lakeroad serve`` amortizes interpreter start-up, architecture loading and
sketch compilation across requests, and its front door coalesces duplicate
in-flight queries and answers repeats from the cache without touching a
worker.  These benchmarks measure that amortization: a pipelined burst
against a warm pool must beat one-process-per-request by at least the 5x
floor the CI smoke job gates on (in practice it is orders of magnitude).
"""

import time

import pytest

from repro.engine.parallel import SessionSpec, run_sweep
from repro.engine.service import MapRequest, ServerThread, ServiceClient, SolverService
from repro.harness.bench import bench_serve
from repro.harness.runner import ExperimentConfig, MappingRecord


@pytest.mark.benchmark(group="serve")
def test_warm_pool_vs_cold_process(benchmark):
    """The headline number: requests/sec served warm vs cold subprocesses."""

    def run():
        return bench_serve(architectures=["intel-cyclone10lp"], count=4,
                           requests=32, workers=2, cold_requests=2)

    section = benchmark.pedantic(run, iterations=1, rounds=1)
    warm = section["serve_warm"]
    print(f"\ncold process: {section['cold_process']['requests_per_second']:.2f} req/s, "
          f"warm serve: {warm['requests_per_second']:.1f} req/s "
          f"({section['speedup_vs_cold']:.0f}x), "
          f"p50 {warm['p50_latency_seconds'] * 1e3:.1f} ms, "
          f"p95 {warm['p95_latency_seconds'] * 1e3:.1f} ms")
    assert warm["failed"] == 0
    assert section["warm_hit_rate"] >= 0.5
    assert section["speedup_vs_cold"] >= 5.0


@pytest.mark.benchmark(group="serve")
def test_duplicate_burst_coalesces_to_unique_solves(benchmark, intel_benchmarks):
    """A burst with many duplicates costs only the unique solves."""
    config = ExperimentConfig()
    requests = [MapRequest.from_benchmark(b, config)
                for b in intel_benchmarks] * 8

    def run():
        with SolverService(SessionSpec(), workers=2) as service:
            futures = [service.submit(r) for r in requests]
            for future in futures:
                future.result(timeout=600)
            return service.stats()

    stats = benchmark.pedantic(run, iterations=1, rounds=1)
    unique = len({(r.verilog, r.arch, r.template) for r in requests})
    print(f"\n{stats['requests']} requests -> {stats['dispatched']} dispatched "
          f"({stats['coalesced']} coalesced, warm rate {stats['warm_hit_rate']:.0%})")
    assert stats["dispatched"] <= unique
    assert stats["warm_hit_rate"] >= 0.75


@pytest.mark.benchmark(group="serve")
def test_socket_roundtrip_latency_warm(benchmark, tmp_path, intel_benchmarks):
    """Per-request latency through the full socket stack once warm, and
    record equality against the serial sweep the service replaces."""
    benchmarks = list(intel_benchmarks)[:4]
    config = ExperimentConfig()
    serial = run_sweep(benchmarks, config, workers=1).records
    socket_path = tmp_path / "bench.sock"
    with SolverService(SessionSpec(), workers=2) as service:
        with ServerThread(service, socket_path):
            with ServiceClient(socket_path) as client:
                warmup = [client.map_verilog(
                    b.verilog, arch=b.architecture, benchmark=b.name,
                    form=b.form.name, width=b.width, stages=b.stages,
                    signed=b.signed) for b in benchmarks]

                def run():
                    started = time.perf_counter()
                    responses = [client.map_verilog(
                        b.verilog, arch=b.architecture, benchmark=b.name,
                        form=b.form.name, width=b.width, stages=b.stages,
                        signed=b.signed) for b in benchmarks]
                    elapsed = time.perf_counter() - started
                    return responses, elapsed

                responses, elapsed = benchmark.pedantic(
                    run, iterations=1, rounds=1)

    assert all(r["ok"] for r in warmup + responses)

    serial_side = [r.comparable() for r in serial]
    served_side = [MappingRecord.from_dict(r["record"]).comparable()
                   for r in responses]
    assert serial_side == served_side
    print(f"\nwarm socket round-trip: "
          f"{elapsed / len(benchmarks) * 1e3:.2f} ms/request "
          f"({len(benchmarks)} sequential requests)")
