"""Benchmark harness: per-figure reproduction experiments."""

from .experiments import EXPERIMENTS, run_experiment
from .results import ExperimentResult, format_table
from .runner import (
    CycleTiming,
    measure_cycles,
    measure_method,
)

__all__ = [
    "CycleTiming",
    "EXPERIMENTS",
    "ExperimentResult",
    "format_table",
    "measure_cycles",
    "measure_method",
    "run_experiment",
]
