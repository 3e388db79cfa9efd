"""Cycle-timing harness for the reproduction experiments.

The paper's performance metric is the wall-clock time of one monitoring
cycle: index maintenance plus query answering over a snapshot of all object
positions.  :func:`measure_cycles` runs a configured
:class:`~repro.core.monitor.MonitoringSystem` for a number of cycles under
a motion model and reports mean per-cycle times, split exactly the way the
paper splits them (Fig. 11(b): "Index building" vs "Query answering").

Timing records come straight from the engine layer's unified pipeline:
:class:`~repro.engines.base.CycleTiming` is both the per-cycle record and
(via :meth:`~repro.engines.base.CycleTiming.from_history`) the
steady-state summary this module returns.  System construction resolves
through the single engine registry
(:func:`repro.engines.registry.build_system`).
"""

from __future__ import annotations

import numpy as np

from ..core.monitor import MonitoringSystem
from ..engines.base import CycleTiming
from ..engines.registry import BENCH_PRESETS, build_system
from ..errors import ConfigurationError
from ..motion import RandomWalkModel, make_dataset, make_queries
from ..obs.registry import MetricsRegistry

__all__ = [
    "BENCH_PRESETS",
    "CycleTiming",
    "measure_cycles",
    "measure_method",
]


def measure_cycles(
    system: MonitoringSystem,
    positions: np.ndarray,
    motion,
    cycles: int = 5,
) -> CycleTiming:
    """Run ``cycles`` monitoring cycles and average the timing breakdown.

    ``motion`` is any object with a ``step(positions) -> positions`` method
    (RandomWalkModel, RoadNetworkModel, or a DispersionProcess adapter).
    The initial :meth:`load` is not counted — the paper measures the
    steady-state cycle cost.
    """
    if cycles < 1:
        raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
    current = positions
    system.load(current)
    for _ in range(cycles):
        current = motion.step(current)
        system.tick(current)
    return CycleTiming.from_history(system.history)


def measure_method(
    method: str,
    n_objects: int,
    n_queries: int,
    k: int = 10,
    dataset: str = "uniform",
    vmax: float = 0.005,
    cycles: int = 5,
    seed: int = 7,
    instrument: bool = False,
    **system_kwargs,
) -> CycleTiming:
    """One-call measurement used by the per-figure experiment functions.

    With ``instrument=True`` the system runs with a live
    :class:`~repro.obs.registry.MetricsRegistry` and the returned timing
    carries mean per-cycle counters (spans included).  Timings measured
    this way include the instrumentation overhead, so published numbers
    should keep the default.
    """
    positions = make_dataset(dataset, n_objects, seed=seed)
    queries = make_queries(n_queries, seed=seed + 1)
    motion = RandomWalkModel(vmax=vmax, seed=seed + 2)
    if instrument and "registry" not in system_kwargs:
        system_kwargs["registry"] = MetricsRegistry()
    system = build_system(method, k, queries, **system_kwargs)
    return measure_cycles(system, positions, motion, cycles=cycles)
