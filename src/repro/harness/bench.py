"""``lakeroad bench``: a one-command performance snapshot.

The bench harness measures the numbers ROADMAP experiments and CI trend
lines care about and writes them to ``BENCH_<rev>.json`` (``<rev>`` is the
short git revision, ``<rev>-dirty`` when tracked files differ from it, or
``unknown`` outside a checkout):

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
  ``memory`` section with the process peak RSS, the clause-database
  high-water mark and, after the cold pass, the entry counts of the
  process-lifetime node tables: the intern table, the extract memo and
  the substitution memo;
* **serve throughput** — the warm service (:mod:`repro.engine.service`)
  against per-request cold-start: one ``lakeroad map`` subprocess per query
  versus a pipelined burst through ``lakeroad serve``, in requests/second
  with p50/p95 latency.  Saturated-throughput numbers, not single-query
  latency, are the figure of merit for the service (the Rucci et al.
  reporting style — see PAPERS.md).

The service's QoS layer and the distributed sweep are checked where they
live: ``tests/loadgen.py --check`` (CI's qos-smoke) and
``tests/test_distributed.py`` (CI's distributed-smoke).

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

__all__ = ["git_revision", "probe_throughput", "bench_sample", "bench_serve",
           "run_bench", "write_snapshot", "diff_snapshots",
           "DEFAULT_DIFF_THRESHOLDS"]


#: The bit-parallel probe counters the snapshot's ``probes`` section and
#: every per-design entry carry.
_PROBE_COUNTERS = ("probe_lanes_evaluated", "probe_hits",
                   "prefilter_cex_found")


def git_revision(repo_root: Optional[Path] = None) -> str:
    """The short git revision of the checkout (``unknown`` when not a repo).

    A checkout whose tracked files differ from that revision is named
    ``<rev>-dirty``, so a snapshot of uncommitted code never carries its
    parent's name.  Untracked files do not count.
    """
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=repo_root,
                              capture_output=True, text=True, timeout=10)

    try:
        head = git("rev-parse", "--short", "HEAD")
        revision = head.stdout.strip()
        if head.returncode != 0 or not revision:
            return "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if status.returncode != 0 or status.stdout.strip():
        revision += "-dirty"
    return revision


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


def bench_sample(architectures: Optional[Sequence[str]] = None,
                 count: int = 4, seed: int = 0, max_width: int = 8) -> list:
    """The designs a bench run maps: ``count`` sampled per architecture
    (every architecture when ``architectures`` is None), at most
    ``max_width`` bits wide.  Empty when ``count < 1`` or ``max_width`` is
    below the narrowest enumerated width."""
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS, sample_workloads

    benchmarks = []
    for architecture in architectures or sorted(ARCHITECTURE_WORKLOADS):
        benchmarks.extend(sample_workloads(architecture, count, seed=seed,
                                           max_width=max_width))
    return benchmarks


def bench_serve(architectures: Optional[Sequence[str]] = None,
                count: int = 4, seed: int = 0, max_width: int = 8,
                template: str = "dsp",
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

    benchmarks = bench_sample(architectures, count, seed, max_width)
    if not benchmarks:
        raise ValueError("the serve bench needs at least one benchmark")

    cold_process = _cold_process_baseline(benchmarks, template, cold_requests)

    spec = SessionSpec()
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


def run_bench(architectures: Optional[Sequence[str]] = None,
              count: int = 4, seed: int = 0, max_width: int = 8,
              template: str = "dsp",
              throughput_assignments: int = 4096,
              serve: bool = True) -> dict:
    """Run the bench suite and return the snapshot payload."""
    from repro.bv.ast import BVExpr
    from repro.bv.builder import _EXTRACT_MEMO
    from repro.bv.simplify import _SUBSTITUTE_MEMO
    from repro.engine.session import MappingSession
    from repro.harness.runner import ExperimentConfig
    from repro.hdl.behavioral import verilog_to_behavioral
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS

    if architectures is None:
        architectures = sorted(ARCHITECTURE_WORKLOADS)
    benchmarks = bench_sample(architectures, count, seed, max_width)

    config = ExperimentConfig(template=template)
    cold_results = []
    designs: List[dict] = []
    with MappingSession() as session:
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
        # The process-lifetime node tables (never bounded), as the cold
        # pass left them.
        tables = {"intern_nodes": len(BVExpr._intern),
                  "extract_memo_entries": len(_EXTRACT_MEMO),
                  "substitution_memo_entries": len(_SUBSTITUTE_MEMO)}

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
                                template=template) if serve else None
    return {
        "revision": git_revision(),
        "tool": "lakeroad bench",
        "config": {
            "architectures": list(architectures),
            "count": count,
            "seed": seed,
            "max_width": max_width,
            "template": template,
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
            **tables,
        },
        "phases": {"candidate_seconds": counters["candidate_time_seconds"],
                   "verify_seconds": counters["verify_time_seconds"]},
        "probes": {key: counters[key] for key in _PROBE_COUNTERS},
        "solver": counters,
        "probe_throughput": throughput,
        "serve": serve_section,
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
