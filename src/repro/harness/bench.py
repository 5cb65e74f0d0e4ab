"""``lakeroad bench``: a one-command performance snapshot.

The bench harness measures the numbers ROADMAP experiments and CI trend
lines care about and writes them to ``BENCH_<rev>.json`` (``<rev>`` is the
short git revision, or ``unknown`` outside a checkout):

* **probe throughput** — scalar ``evaluate`` versus the packed 64-lane
  :class:`~repro.bv.bitsim.PackedEvaluator` on a representative synthesis
  miter, in assignments/second (no early exit on either side, so the ratio
  is a pure engine comparison);
* **end-to-end sweep** — a cold mapping pass over sampled tier-1 workloads
  followed by a warm re-run, reporting wall time, solved rate, cache hit
  rate, the cold pass's merged solver counters (``solver``; see
  :mod:`repro.engine.stats`) and, drawn from them, the per-phase
  candidate/verify breakdown, the bit-parallel probing telemetry, SAT
  propagation throughput (``totals.propagations_per_second``) and a
  ``memory`` section with the process peak RSS and the clause-database
  high-water mark;
* **serve throughput** — the warm service (:mod:`repro.engine.service`)
  against per-request cold-start: one ``lakeroad map`` subprocess per query
  versus a pipelined burst through ``lakeroad serve``, in requests/second
  with p50/p95 latency.  Saturated-throughput numbers, not single-query
  latency, are the figure of merit for the service (the Rucci et al.
  reporting style — see PAPERS.md);
* **distributed sweep** — the TCP coordinator/worker path
  (:mod:`repro.engine.distributed`) over loopback with two worker
  processes, against the serial in-process sweep on the same grid:
  wall times, records/second, and ``records_equal`` asserting the
  distributed merge reproduced the serial records exactly.

Snapshots are additive — each revision writes its own file — and
:func:`diff_snapshots` (``lakeroad bench --diff OLD.json NEW.json``)
compares two of them with per-metric regression thresholds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

try:  # Unix only; the bench degrades gracefully elsewhere.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bv import (
    bvadd,
    bvand,
    bvextract,
    bvite,
    bvmul,
    bvor,
    bvredor,
    bvvar,
    bvxor,
    evaluate,
    var_widths,
    zero_extend,
)
from repro.bv.bitsim import PROBE_LANES, PackedEvaluator
from repro.engine.stats import this_run

__all__ = ["git_revision", "probe_throughput", "bench_serve",
           "bench_qos", "bench_distributed", "run_bench", "write_snapshot",
           "diff_snapshots", "DEFAULT_DIFF_THRESHOLDS"]


#: The bit-parallel probe counters the snapshot's ``probes`` section and
#: every per-design entry carry.
_PROBE_COUNTERS = ("probe_lanes_evaluated", "probe_hits",
                   "prefilter_cex_found")


def git_revision(repo_root: Optional[Path] = None) -> str:
    """The short git revision of the checkout (``unknown`` when not a repo)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def _peak_rss_kb() -> float:
    """Peak resident set size of this process in kilobytes (0.0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    kilobytes so snapshots diff cleanly across machines.
    """
    if resource is None:
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak /= 1024.0
    return peak


def _representative_formula():
    """A miter-shaped formula exercising the op mix probe queries see.

    Built deterministically (fixed seed) so every bench run times the same
    DAG, and shaped like a tier-1 DSP-template equivalence query: 8-bit
    inputs, a multiply-add spec cone, a sketch cone of hole-selected muxes
    over word ops and arithmetic, and an xor-reduce miter root.
    """
    rng = random.Random(0xBEEF)
    width = 8
    a, b, c = (bvvar(name, width) for name in ("a", "b", "c"))
    spec = bvextract(
        width - 1, 0,
        bvadd(bvmul(zero_extend(a, width), zero_extend(b, width)),
              zero_extend(c, width)))
    pool = [a, b, c]
    for i in range(40):
        x, y = rng.choice(pool), rng.choice(pool)
        op = rng.choice((bvadd, bvand, bvor, bvxor, bvadd, bvxor))
        node = op(x, y)
        if rng.random() < 0.3:
            select = bvvar(f"h{i}", 1)
            node = bvite(select, node, bvxor(x, y))
        pool.append(node)
    sketch = bvadd(bvmul(pool[-1], pool[-2]), pool[-3])
    return bvredor(bvxor(spec, sketch))


def probe_throughput(assignments: int = 4096) -> Dict[str, float]:
    """Scalar vs packed evaluation throughput on the representative miter.

    Both sides evaluate exactly ``assignments`` random assignments drawn
    from the same seeded stream, with no early exit, and report
    assignments/second.  ``speedup`` is packed over scalar.
    """
    formula = _representative_formula()
    widths = var_widths(formula)
    items = list(widths.items())
    rng = random.Random(1)
    batch = [{name: rng.getrandbits(w) for name, w in items}
             for _ in range(assignments)]

    start = time.perf_counter()
    for assignment in batch:
        evaluate(formula, assignment)
    scalar_seconds = time.perf_counter() - start

    evaluator = PackedEvaluator(formula)
    start = time.perf_counter()
    for base in range(0, assignments, PROBE_LANES):
        evaluator.evaluate_batch(batch[base:base + PROBE_LANES])
    packed_seconds = time.perf_counter() - start

    scalar_rate = assignments / scalar_seconds if scalar_seconds else 0.0
    packed_rate = assignments / packed_seconds if packed_seconds else 0.0
    return {
        "assignments": float(assignments),
        "scalar_seconds": scalar_seconds,
        "packed_seconds": packed_seconds,
        "scalar_assignments_per_second": scalar_rate,
        "packed_assignments_per_second": packed_rate,
        "speedup": packed_rate / scalar_rate if scalar_rate else 0.0,
    }


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _cold_process_baseline(benchmarks, template: str,
                           cold_requests: int) -> Dict[str, float]:
    """Requests/second of one ``lakeroad map`` subprocess per query.

    This is what every request costs without the service: full interpreter
    start, imports, vendor-library load and a from-scratch solve.  The
    subprocess inherits this interpreter's ``sys.path`` so the measurement
    works from a source checkout as well as an installed package.
    """
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    seconds = 0.0
    ran = 0
    with tempfile.TemporaryDirectory(prefix="lakeroad-bench-") as tmp:
        sources = []
        for index, benchmark in enumerate(benchmarks):
            path = Path(tmp) / f"query_{index}.v"
            path.write_text(benchmark.verilog)
            sources.append((path, benchmark.architecture))
        start = time.perf_counter()
        for index in range(cold_requests):
            path, arch = sources[index % len(sources)]
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "map", str(path),
                 "--arch-desc", arch, "--template", template,
                 "--no-validate"],
                env=env, capture_output=True, timeout=600)
            if completed.returncode in (0, 2, 3):
                ran += 1
        seconds = time.perf_counter() - start
    rate = ran / seconds if seconds and ran else 0.0
    return {"requests": float(ran), "seconds": seconds,
            "requests_per_second": rate}


def bench_serve(architectures: Optional[Sequence[str]] = None,
                count: int = 4, seed: int = 0, max_width: int = 8,
                template: str = "dsp", random_probes: int = 32,
                requests: int = 32, workers: int = 2,
                cold_requests: int = 4) -> dict:
    """Measure ``lakeroad serve`` against per-request cold-start.

    Three phases: the subprocess-per-request baseline (``cold_requests``
    runs), a cold pass through the service (every unique query solved
    once), then a pipelined burst of ``requests`` queries against the warm
    pool with client-side p50/p95 latencies.  ``speedup_vs_cold`` — warm
    serve requests/second over the subprocess baseline — is the number the
    CI gate holds at ≥5×.
    """
    import tempfile

    from repro.engine.parallel import SessionSpec
    from repro.engine.service import ServerThread, ServiceClient, SolverService
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS, sample_workloads

    if architectures is None:
        architectures = sorted(ARCHITECTURE_WORKLOADS)
    benchmarks = []
    for architecture in architectures:
        benchmarks.extend(sample_workloads(architecture, count, seed=seed,
                                           max_width=max_width))
    if not benchmarks:
        raise ValueError("the serve bench needs at least one benchmark")

    cold_process = _cold_process_baseline(benchmarks, template, cold_requests)

    spec = SessionSpec(random_probes=random_probes)
    latencies: List[float] = []
    with tempfile.TemporaryDirectory(prefix="lakeroad-serve-") as tmp:
        socket_path = Path(tmp) / "bench.sock"
        with SolverService(spec, workers=workers) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    # Cold serve: each unique query pays its one solve.
                    cold_start = time.perf_counter()
                    for benchmark in benchmarks:
                        client.map_verilog(benchmark.verilog,
                                           arch=benchmark.architecture,
                                           template=template,
                                           benchmark=benchmark.name,
                                           timeout=600)
                    serve_cold_seconds = time.perf_counter() - cold_start

                    # Warm burst: pipelined, saturating the pool.
                    burst_start = time.perf_counter()
                    futures = []
                    for index in range(requests):
                        benchmark = benchmarks[index % len(benchmarks)]
                        sent_at = time.perf_counter()
                        future = client.submit({
                            "op": "map", "verilog": benchmark.verilog,
                            "arch": benchmark.architecture,
                            "template": template,
                            "benchmark": benchmark.name})
                        future.add_done_callback(
                            lambda _, sent_at=sent_at: latencies.append(
                                time.perf_counter() - sent_at))
                        futures.append(future)
                    responses = [future.result(timeout=600)
                                 for future in futures]
                    warm_seconds = time.perf_counter() - burst_start
                    failed = sum(1 for r in responses if not r.get("ok"))
                    stats = client.stats()

    latencies.sort()
    warm_rate = requests / warm_seconds if warm_seconds else 0.0
    cold_rate = cold_process["requests_per_second"]
    serve_cold_rate = len(benchmarks) / serve_cold_seconds \
        if serve_cold_seconds else 0.0
    return {
        "workers": workers,
        "unique_queries": len(benchmarks),
        "cold_process": cold_process,
        "serve_cold": {"requests": float(len(benchmarks)),
                       "seconds": serve_cold_seconds,
                       "requests_per_second": serve_cold_rate},
        "serve_warm": {"requests": float(requests),
                       "seconds": warm_seconds,
                       "requests_per_second": warm_rate,
                       "p50_latency_seconds": _percentile(latencies, 0.50),
                       "p95_latency_seconds": _percentile(latencies, 0.95),
                       "failed": failed},
        "warm_hit_rate": stats.get("warm_hit_rate", 0.0),
        "speedup_vs_cold": warm_rate / cold_rate if cold_rate else 0.0,
        "service_stats": stats,
    }


def _qos_design(index: int, flavor: str = "a") -> str:
    """A tiny distinct-by-construction Verilog module for load generation.

    Width and the two operators cycle independently, so the first 64
    indices of each flavor produce 64 distinct program fingerprints —
    distinct synthesis keys, which is what a load generator needs (repeats
    of one design would coalesce into a single solve and carry no load).
    """
    width = 2 + (index % 4)
    ops = ("&", "|", "^", "+")
    op1 = ops[(index // 4) % 4]
    op2 = ops[(index // 16) % 4]
    tail = "a" if flavor == "a" else "b"
    return (f"module q{flavor}{index}(input [{width - 1}:0] a, b, "
            f"output [{width - 1}:0] out); "
            f"assign out = (a {op1} b) {op2} {tail}; endmodule")


def bench_qos(seed: int = 0, flood_requests: int = 32,
              steady_requests: int = 8, steady_clients: int = 2,
              workers: int = 1, max_workers: int = 3,
              max_pending: int = 8, client_queue: int = 6,
              arch: str = "intel-cyclone10lp",
              template: str = "dsp") -> dict:
    """Measure the service QoS layer under a mixed flooder/steady load.

    One flooding client pipelines ``flood_requests`` distinct queries
    while ``steady_clients`` polite clients send theirs one at a time;
    the pool is elastic (``workers`` … ``max_workers``) with tight
    admission caps, so the run exercises fair scheduling, structured
    ``overloaded`` rejections and both resize directions.  Reported:
    per-class p50/p95 latency (plus an uncontended steady baseline and
    the contended/uncontended ``fairness_ratio``), the flooder's
    rejection rate, and the resize counters.
    """
    import tempfile
    import threading

    from repro.engine.parallel import SessionSpec
    from repro.engine.service import ServerThread, ServiceClient, SolverService

    rng = random.Random(seed)
    spec = SessionSpec(enable_cache=False, random_probes=8)
    service = SolverService(spec, workers=workers,
                            min_workers=workers, max_workers=max_workers,
                            max_pending=max_pending,
                            client_queue=client_queue,
                            scale_up_after=0.05,
                            idle_retire_seconds=0.25)
    steady_latencies: List[float] = []
    baseline_latencies: List[float] = []
    flood_latencies: List[float] = []
    rejected = 0
    flood_errors = 0
    lock = threading.Lock()
    thread_errors: List[BaseException] = []

    def guarded(target, *args):
        """Capture a worker thread's exception; a bare Thread would
        swallow it and the benchmark would silently report partial
        latencies."""
        def run() -> None:
            try:
                target(*args)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    thread_errors.append(exc)
        return run

    def steady_pass(client: ServiceClient, tag: str, base: int,
                    sink: List[float]) -> None:
        for i in range(steady_requests):
            start = time.perf_counter()
            response = client.map_verilog(
                _qos_design(base + i, "b"), timeout=120,
                retry_overloaded=8, arch=arch, template=template,
                client=tag, use_cache=False)
            elapsed = time.perf_counter() - start
            with lock:
                sink.append(elapsed)
            if not response.get("ok"):
                raise RuntimeError(f"steady request failed: {response}")
            time.sleep(0.005 + rng.random() * 0.01)

    with tempfile.TemporaryDirectory(prefix="lakeroad-qos-") as tmp:
        socket_path = Path(tmp) / "qos.sock"
        with service, ServerThread(service, socket_path):
            # Uncontended baseline: one steady client, empty service.
            with ServiceClient(socket_path) as client:
                steady_pass(client, "baseline", 200, baseline_latencies)

            # Mixed load: the flooder pipelines everything at once.
            def flood() -> None:
                nonlocal rejected, flood_errors
                with ServiceClient(socket_path) as client:
                    sent = time.perf_counter()
                    futures = [client.submit({
                        "op": "map", "verilog": _qos_design(i, "a"),
                        "arch": arch, "template": template,
                        "client": "flooder", "use_cache": False})
                        for i in range(flood_requests)]
                    for future in futures:
                        response = future.result(timeout=120)
                        with lock:
                            flood_latencies.append(
                                time.perf_counter() - sent)
                        if response.get("error") == "overloaded":
                            rejected += 1
                        elif not response.get("ok"):
                            flood_errors += 1

            threads = [threading.Thread(target=guarded(flood))]
            steady_sockets = [ServiceClient(socket_path)
                              for _ in range(steady_clients)]
            for index, client in enumerate(steady_sockets):
                threads.append(threading.Thread(
                    target=guarded(steady_pass, client, f"steady-{index}",
                                   300 + 50 * index, steady_latencies)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for client in steady_sockets:
                client.close()
            if thread_errors:
                raise thread_errors[0]

            # Let the idle-retirement clock run the pool back down.
            shrink_deadline = time.monotonic() + 5.0
            while time.monotonic() < shrink_deadline:
                if service.stats()["workers"] <= workers:
                    break
                time.sleep(0.05)
            stats = service.stats()

    steady_latencies.sort()
    baseline_latencies.sort()
    flood_latencies.sort()
    baseline_p95 = _percentile(baseline_latencies, 0.95)
    contended_p95 = _percentile(steady_latencies, 0.95)
    return {
        "workers": workers,
        "max_workers": max_workers,
        "max_pending": max_pending,
        "client_queue": client_queue,
        "steady_uncontended": {
            "requests": float(len(baseline_latencies)),
            "p50_latency_seconds": _percentile(baseline_latencies, 0.50),
            "p95_latency_seconds": baseline_p95,
        },
        "steady_contended": {
            "requests": float(len(steady_latencies)),
            "p50_latency_seconds": _percentile(steady_latencies, 0.50),
            "p95_latency_seconds": contended_p95,
        },
        "fairness_ratio": contended_p95 / baseline_p95
        if baseline_p95 else 0.0,
        "flooder": {
            "requests": float(flood_requests),
            "rejected": float(rejected),
            "rejection_rate": rejected / flood_requests
            if flood_requests else 0.0,
            "errors": float(flood_errors),
            "p95_latency_seconds": _percentile(flood_latencies, 0.95),
        },
        "scale_ups": float(stats["scale_ups"]),
        "scale_downs": float(stats["scale_downs"]),
        "pool_peak": float(stats["pool_peak"]),
        "service_stats": stats,
    }


def bench_distributed(architectures: Optional[Sequence[str]] = None,
                      count: int = 4, seed: int = 0, max_width: int = 8,
                      template: str = "dsp", random_probes: int = 32,
                      workers: int = 2, shard_size: int = 2) -> dict:
    """Measure the distributed sweep against the serial baseline.

    Runs the same benchmark grid twice: once through the in-process
    :func:`~repro.engine.parallel.run_sweep` (workers=1, the ground
    truth) and once through :func:`~repro.engine.distributed.
    run_distributed_sweep` with ``workers`` loopback worker processes.
    ``records_equal`` is 1.0 when the distributed merge reproduced the
    serial records exactly (modulo wall-clock fields) — the determinism
    property the CI gate holds at 1.0.
    """
    from repro.engine.distributed import run_distributed_sweep
    from repro.engine.parallel import SessionSpec, run_sweep
    from repro.harness.runner import ExperimentConfig
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS, sample_workloads

    if architectures is None:
        architectures = sorted(ARCHITECTURE_WORKLOADS)
    benchmarks = []
    for architecture in architectures:
        benchmarks.extend(sample_workloads(architecture, count, seed=seed,
                                           max_width=max_width))
    if not benchmarks:
        raise ValueError("the distributed bench needs at least one benchmark")

    config = ExperimentConfig(template=template, random_probes=random_probes)
    spec = SessionSpec(enable_cache=False, random_probes=random_probes)

    serial_start = time.perf_counter()
    serial = run_sweep(benchmarks, config, workers=1, session_spec=spec)
    serial_seconds = time.perf_counter() - serial_start

    distributed_start = time.perf_counter()
    distributed = run_distributed_sweep(benchmarks, config, workers=workers,
                                        session_spec=spec,
                                        shard_size=shard_size)
    distributed_seconds = time.perf_counter() - distributed_start

    records_equal = ([r.comparable() for r in serial.records]
                     == [r.comparable() for r in distributed.records])
    rate = len(distributed.records) / distributed_seconds \
        if distributed_seconds else 0.0
    return {
        "workers": workers,
        "shard_size": shard_size,
        "benchmarks": len(benchmarks),
        "serial_seconds": serial_seconds,
        "distributed_seconds": distributed_seconds,
        "records_per_second": rate,
        "speedup_vs_serial": serial_seconds / distributed_seconds
        if distributed_seconds else 0.0,
        "records_equal": 1.0 if records_equal else 0.0,
        "telemetry": distributed.telemetry,
    }


def run_bench(architectures: Optional[Sequence[str]] = None,
              count: int = 4, seed: int = 0, max_width: int = 8,
              template: str = "dsp", random_probes: int = 32,
              throughput_assignments: int = 4096,
              serve: bool = True, serve_requests: int = 32,
              serve_workers: int = 2,
              serve_cold_requests: int = 4,
              qos: bool = True,
              distributed: bool = True,
              distributed_workers: int = 2) -> dict:
    """Run the bench suite and return the snapshot payload."""
    from repro.engine.session import MappingSession
    from repro.harness.runner import ExperimentConfig
    from repro.hdl.behavioral import verilog_to_behavioral
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS, sample_workloads

    if architectures is None:
        architectures = sorted(ARCHITECTURE_WORKLOADS)
    benchmarks = []
    for architecture in architectures:
        benchmarks.extend(sample_workloads(architecture, count, seed=seed,
                                           max_width=max_width))

    config = ExperimentConfig(template=template, random_probes=random_probes)
    cold_results = []
    designs: List[dict] = []
    with MappingSession(random_probes=random_probes) as session:
        cold_start = time.perf_counter()
        for benchmark in benchmarks:
            design = verilog_to_behavioral(benchmark.verilog)
            result = session.map_design(
                design, template=template, arch=benchmark.architecture,
                timeout_seconds=config.timeout_for(benchmark.architecture))
            cold_results.append(result)
            designs.append({
                "benchmark": benchmark.name,
                "architecture": benchmark.architecture,
                "outcome": result.status,
                "time_seconds": result.time_seconds,
                **{key: result.stats[key] for key in _PROBE_COUNTERS},
            })
        cold_seconds = time.perf_counter() - cold_start

        warm_start = time.perf_counter()
        warm_hits = 0
        for benchmark in benchmarks:
            design = verilog_to_behavioral(benchmark.verilog)
            result = session.map_design(
                design, template=template, arch=benchmark.architecture,
                timeout_seconds=config.timeout_for(benchmark.architecture))
            warm_hits += 1 if result.cache_hit else 0
        warm_seconds = time.perf_counter() - warm_start
        cache_stats = session.cache_stats()

    solved = sum(1 for design in designs if design["outcome"] == "success")
    counters = this_run(cold_results)
    throughput = probe_throughput(throughput_assignments)
    serve_section = bench_serve(architectures=architectures, count=count,
                                seed=seed, max_width=max_width,
                                template=template,
                                random_probes=random_probes,
                                requests=serve_requests,
                                workers=serve_workers,
                                cold_requests=serve_cold_requests) \
        if serve else None
    qos_section = bench_qos(seed=seed, template=template) if qos else None
    distributed_section = bench_distributed(
        architectures=architectures, count=count, seed=seed,
        max_width=max_width, template=template,
        random_probes=random_probes,
        workers=distributed_workers) if distributed else None
    return {
        "revision": git_revision(),
        "tool": "lakeroad bench",
        "config": {
            "architectures": list(architectures),
            "count": count,
            "seed": seed,
            "max_width": max_width,
            "template": template,
            "random_probes": random_probes,
        },
        "totals": {
            "benchmarks": len(designs),
            "solved": solved,
            "solved_rate": solved / len(designs) if designs else 0.0,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_cache_hit_rate": warm_hits / len(designs) if designs else 0.0,
            "cache": cache_stats,
            **{key: counters[key] for key in
               ("propagations", "watcher_visits", "solver_solve_seconds",
                "propagations_per_second")},
        },
        "memory": {
            "peak_rss_kb": _peak_rss_kb(),
            "clause_db_peak": counters["db_size_peak"],
        },
        "phases": {"candidate_seconds": counters["candidate_time_seconds"],
                   "verify_seconds": counters["verify_time_seconds"]},
        "probes": {key: counters[key] for key in _PROBE_COUNTERS},
        "solver": counters,
        "probe_throughput": throughput,
        "serve": serve_section,
        "qos": qos_section,
        "distributed": distributed_section,
        "designs": designs,
    }


def write_snapshot(snapshot: dict, out_dir=".") -> Path:
    """Write ``snapshot`` to ``<out_dir>/BENCH_<rev>.json`` and return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{snapshot['revision']}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------- #
# Snapshot comparison (``lakeroad bench --diff OLD.json NEW.json``)
# --------------------------------------------------------------------------- #
#: Metric path -> (direction, allowed fractional regression).  ``higher``
#: metrics regress when ``new < old * (1 - allowed)``; ``lower`` metrics
#: (wall times, latencies) when ``new > old * (1 + allowed)``.  Wall-clock
#: metrics get generous margins — CI machines are noisy and the diff gate
#: must catch collapses, not jitter.
DEFAULT_DIFF_THRESHOLDS: Dict[str, tuple] = {
    "totals.solved_rate": ("higher", 0.0),
    "totals.warm_cache_hit_rate": ("higher", 0.05),
    "totals.cold_seconds": ("lower", 1.0),
    "totals.warm_seconds": ("lower", 1.0),
    "totals.propagations_per_second": ("higher", 0.5),
    "memory.peak_rss_kb": ("lower", 0.5),
    "memory.clause_db_peak": ("lower", 1.0),
    "probe_throughput.speedup": ("higher", 0.5),
    "probe_throughput.packed_assignments_per_second": ("higher", 0.5),
    "serve.warm_hit_rate": ("higher", 0.05),
    "serve.speedup_vs_cold": ("higher", 0.5),
    "serve.serve_warm.requests_per_second": ("higher", 0.5),
    "serve.serve_warm.p95_latency_seconds": ("lower", 2.0),
    "qos.steady_contended.p50_latency_seconds": ("lower", 2.0),
    "qos.steady_contended.p95_latency_seconds": ("lower", 2.0),
    "distributed.records_equal": ("higher", 0.0),
    "distributed.records_per_second": ("higher", 0.5),
}


def _lookup(snapshot: dict, path: str):
    value = snapshot
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def diff_snapshots(old: dict, new: dict,
                   thresholds: Optional[Dict[str, tuple]] = None
                   ) -> List[dict]:
    """Compare two bench snapshots; return the per-metric verdict list.

    Each entry carries ``metric``, ``old``, ``new``, ``change`` (signed
    fraction, positive = increased) and ``regressed``.  Metrics missing
    from either snapshot (e.g. a pre-service snapshot with no ``serve``
    section) are skipped, so old archives stay comparable.
    """
    thresholds = thresholds if thresholds is not None \
        else DEFAULT_DIFF_THRESHOLDS
    results: List[dict] = []
    for metric, (direction, allowed) in sorted(thresholds.items()):
        old_value = _lookup(old, metric)
        new_value = _lookup(new, metric)
        if old_value is None or new_value is None:
            continue
        change = (new_value - old_value) / old_value if old_value else 0.0
        if direction == "higher":
            regressed = new_value < old_value * (1.0 - allowed)
        else:
            regressed = new_value > old_value * (1.0 + allowed)
        results.append({"metric": metric, "direction": direction,
                        "allowed": allowed, "old": old_value,
                        "new": new_value, "change": change,
                        "regressed": regressed})
    return results
