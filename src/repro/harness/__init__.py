"""Experiment harness: runners and per-figure/table reproduction entry points."""

from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    map_benchmark,
    records_from_jsonl,
    records_to_jsonl,
    run_baselines,
)
from repro.harness import experiments

__all__ = [
    "ExperimentConfig",
    "MappingRecord",
    "map_benchmark",
    "records_to_jsonl",
    "records_from_jsonl",
    "run_baselines",
    "experiments",
]
