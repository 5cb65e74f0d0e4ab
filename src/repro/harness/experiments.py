"""Reproduction entry points for every table and figure in the evaluation.

Each function regenerates one artifact of Section 5 (see the "Experiment
index" in EXPERIMENTS.md) and returns plain data structures; the ``render_*``
helpers turn them into the text tables / bar rows the paper prints.  The
functions accept the benchmark list to run so callers choose between the
full enumeration (paper scale) and the stratified subsample (default).
Lakeroad records come from :func:`repro.engine.parallel.run_sweep`, the
one sweep entry point; an :class:`ExperimentConfig` carries only the
per-request settings.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

from repro.arch import available_architectures, load_architecture
from repro.baselines.common import analyze_design
from repro.harness.runner import ExperimentConfig, MappingRecord, run_baselines
from repro.vendor.library import PrimitiveLibrary
from repro.workloads.generator import (
    Microbenchmark,
    enumerate_workloads,
    sample_workloads,
    workload_counts,
)

__all__ = [
    "figure6_completeness",
    "figure6_timing",
    "figure7_histogram",
    "table1_primitives",
    "resource_reduction",
    "extensibility",
    "render_completeness_table",
    "render_timing_table",
    "render_table1",
    "default_benchmarks",
]

#: Paper-reported values, recorded so EXPERIMENTS.md and the harness can
#: print paper-vs-measured side by side.
PAPER_FIGURE6 = {
    "xilinx-ultrascale-plus": {"lakeroad_vs_yosys": 44.0, "lakeroad_vs_sota": 2.1,
                               "total": 1320},
    "lattice-ecp5": {"lakeroad_vs_yosys": 6.0, "lakeroad_vs_sota": 3.6, "total": 396},
    "intel-cyclone10lp": {"lakeroad_vs_yosys": float("inf"), "lakeroad_vs_sota": 3.0,
                          "total": 66},
}

PAPER_TIMING = {
    ("xilinx-ultrascale-plus", "lakeroad"): (14.99, 2.99, 127.70),
    ("xilinx-ultrascale-plus", "sota"): (261.61, 227.82, 598.67),
    ("xilinx-ultrascale-plus", "yosys"): (14.97, 6.66, 21.10),
    ("lattice-ecp5", "lakeroad"): (9.49, 6.70, 55.23),
    ("lattice-ecp5", "sota"): (2.32, 0.95, 4.52),
    ("lattice-ecp5", "yosys"): (2.31, 0.90, 4.01),
    ("intel-cyclone10lp", "lakeroad"): (2.92, 2.12, 4.13),
    ("intel-cyclone10lp", "sota"): (38.73, 19.11, 43.49),
    ("intel-cyclone10lp", "yosys"): (0.96, 0.48, 1.88),
}

PAPER_TABLE1 = {
    "DSP48E2": 896, "LUT6": 88, "CARRY8": 23,
    "ALU54A": 1642, "MULT18X18C": 795, "LUT2": 5, "LUT4": 7, "CCU2C": 60,
    "cyclone10lp_mac_mult": 319, "frac_lut4": 69,
}

PAPER_ARCH_SLOC = {"sofa": 20, "xilinx-ultrascale-plus": 185,
                   "lattice-ecp5": 240, "intel-cyclone10lp": 178}


def default_benchmarks(architecture: str, count: int = 8,
                       max_width: Optional[int] = 10, seed: int = 0) -> List[Microbenchmark]:
    """The stratified subsample the default harness runs (laptop scale)."""
    return sample_workloads(architecture, count, seed=seed, max_width=max_width)


# --------------------------------------------------------------------------- #
# Figure 6 (top): completeness
# --------------------------------------------------------------------------- #
def figure6_completeness(benchmarks_by_arch: Dict[str, Sequence[Microbenchmark]],
                         config: Optional[ExperimentConfig] = None,
                         include_lakeroad: bool = True) -> Dict[str, dict]:
    """Fraction of microbenchmarks each tool maps to a single DSP.

    Each architecture's Lakeroad runs are one serial
    :func:`~repro.engine.parallel.run_sweep`; shard or cache a larger run
    by calling ``run_sweep`` with ``workers=`` and a ``session_spec``.
    """
    from repro.engine.parallel import run_sweep

    config = config or ExperimentConfig()
    results: Dict[str, dict] = {}
    for architecture, benchmarks in benchmarks_by_arch.items():
        records: List[MappingRecord] = []
        if include_lakeroad:
            records.extend(run_sweep(benchmarks, config).records)
        records.extend(run_baselines(benchmarks))
        per_tool: Dict[str, Counter] = defaultdict(Counter)
        for record in records:
            per_tool[record.tool][record.outcome] += 1
        total = len(benchmarks)
        arch_summary = {"total": total, "tools": {}, "records": records}
        for tool, outcomes in per_tool.items():
            mapped = outcomes.get("success", 0)
            arch_summary["tools"][tool] = {
                "mapped": mapped,
                "unsat": outcomes.get("unsat", 0),
                "timeout": outcomes.get("timeout", 0),
                "failed": outcomes.get("fail", 0),
                "fraction": mapped / total if total else 0.0,
            }
        lakeroad_mapped = arch_summary["tools"].get("lakeroad", {}).get("mapped", 0)
        for other in ("sota", "yosys"):
            other_mapped = arch_summary["tools"].get(other, {}).get("mapped", 0)
            ratio = (lakeroad_mapped / other_mapped) if other_mapped else float("inf")
            arch_summary[f"lakeroad_vs_{other}"] = ratio
        arch_summary["paper"] = PAPER_FIGURE6.get(architecture, {})
        results[architecture] = arch_summary
    return results


# --------------------------------------------------------------------------- #
# Figure 6 (bottom): timing table
# --------------------------------------------------------------------------- #
def figure6_timing(records_by_arch: Dict[str, Sequence[MappingRecord]]) -> List[dict]:
    """Median / min / max mapping time per (architecture, tool)."""
    rows: List[dict] = []
    for architecture, records in records_by_arch.items():
        per_tool: Dict[str, List[float]] = defaultdict(list)
        for record in records:
            per_tool[record.tool].append(record.time_seconds)
        for tool, times in sorted(per_tool.items()):
            paper = PAPER_TIMING.get((architecture, tool))
            rows.append({
                "architecture": architecture,
                "tool": tool,
                "median": statistics.median(times),
                "min": min(times),
                "max": max(times),
                "count": len(times),
                "paper_median": paper[0] if paper else None,
                "paper_min": paper[1] if paper else None,
                "paper_max": paper[2] if paper else None,
            })
    return rows


# --------------------------------------------------------------------------- #
# Figure 7: runtime histogram
# --------------------------------------------------------------------------- #
def figure7_histogram(records: Sequence[MappingRecord], bins: int = 12,
                      timeout_seconds: Optional[float] = None) -> dict:
    """Histogram of Lakeroad synthesis runtimes for terminating runs."""
    terminating = [r.time_seconds for r in records
                   if r.tool == "lakeroad" and r.outcome in ("success", "unsat")]
    if not terminating:
        return {"bin_edges": [], "counts": [], "terminating": 0, "timeouts": 0}
    low, high = 0.0, max(terminating)
    width = (high - low) / bins if high > low else 1.0
    edges = [low + i * width for i in range(bins + 1)]
    counts = [0] * bins
    for value in terminating:
        index = min(int((value - low) / width), bins - 1) if width else 0
        counts[index] += 1
    timeouts = sum(1 for r in records if r.tool == "lakeroad" and r.outcome == "timeout")
    return {"bin_edges": edges, "counts": counts, "terminating": len(terminating),
            "timeouts": timeouts, "timeout_threshold": timeout_seconds}


# --------------------------------------------------------------------------- #
# Table 1: primitives imported from vendor models
# --------------------------------------------------------------------------- #
def table1_primitives(library: Optional[PrimitiveLibrary] = None) -> List[dict]:
    """Primitives imported automatically, with model SLoC (ours vs paper's)."""
    library = library or PrimitiveLibrary()
    rows = library.table1_rows()
    for row in rows:
        row["paper_verilog_sloc"] = PAPER_TABLE1.get(row["primitive"])
    return rows


# --------------------------------------------------------------------------- #
# §5.1 resource reduction
# --------------------------------------------------------------------------- #
def resource_reduction(records: Sequence[MappingRecord]) -> Dict[str, dict]:
    """Average LEs / registers saved by Lakeroad versus each baseline."""
    by_benchmark: Dict[tuple, Dict[str, MappingRecord]] = defaultdict(dict)
    for record in records:
        by_benchmark[(record.architecture, record.benchmark)][record.tool] = record
    accumulators: Dict[str, dict] = defaultdict(lambda: {"le_savings": [], "reg_savings": []})
    for tools in by_benchmark.values():
        lakeroad = tools.get("lakeroad")
        if lakeroad is None or lakeroad.outcome != "success":
            continue
        for tool_name, record in tools.items():
            if tool_name == "lakeroad":
                continue
            key = f"{record.architecture}:{tool_name}"
            accumulators[key]["le_savings"].append(record.luts - lakeroad.luts)
            accumulators[key]["reg_savings"].append(record.registers - lakeroad.registers)
    summary: Dict[str, dict] = {}
    for key, data in accumulators.items():
        if not data["le_savings"]:
            continue
        summary[key] = {
            "avg_les_saved": statistics.mean(data["le_savings"]),
            "avg_registers_saved": statistics.mean(data["reg_savings"]),
            "benchmarks": len(data["le_savings"]),
        }
    return summary


# --------------------------------------------------------------------------- #
# §5.2 extensibility
# --------------------------------------------------------------------------- #
def extensibility() -> List[dict]:
    """Architecture-description sizes (ours vs the paper's)."""
    rows = []
    for name in available_architectures():
        description = load_architecture(name)
        rows.append({
            "architecture": name,
            "description_sloc": description.source_lines,
            "paper_description_sloc": PAPER_ARCH_SLOC.get(name),
            "interfaces_implemented": [impl.interface for impl in description.implementations],
        })
    return rows


# --------------------------------------------------------------------------- #
# Rendering helpers
# --------------------------------------------------------------------------- #
def render_completeness_table(results: Dict[str, dict]) -> str:
    lines = ["architecture                 tool      mapped  unsat  timeout  failed  fraction"]
    for architecture, summary in results.items():
        for tool, data in sorted(summary["tools"].items()):
            lines.append(
                f"{architecture:28s} {tool:9s} {data['mapped']:6d} {data['unsat']:6d} "
                f"{data['timeout']:8d} {data['failed']:7d}  {data['fraction']:.2f}")
        for other in ("sota", "yosys"):
            ratio = summary.get(f"lakeroad_vs_{other}")
            paper_ratio = summary.get("paper", {}).get(f"lakeroad_vs_{other}")
            lines.append(f"  lakeroad vs {other}: {ratio:.2f}x (paper: {paper_ratio}x)")
    return "\n".join(lines)


def render_timing_table(rows: List[dict]) -> str:
    lines = ["architecture                 tool      median    min      max     (paper median)"]
    for row in rows:
        paper = f"{row['paper_median']:.2f}" if row.get("paper_median") else "-"
        lines.append(
            f"{row['architecture']:28s} {row['tool']:9s} {row['median']:7.2f} "
            f"{row['min']:7.2f} {row['max']:8.2f}   ({paper})")
    return "\n".join(lines)


def render_table1(rows: List[dict]) -> str:
    lines = ["architecture          primitive              model SLoC   paper SLoC"]
    for row in rows:
        paper = row.get("paper_verilog_sloc")
        lines.append(f"{row['architecture']:21s} {row['primitive']:22s} "
                     f"{row['verilog_sloc']:10d}   {paper if paper else '-'}")
    return "\n".join(lines)
