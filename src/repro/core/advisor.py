"""Method advisor: the paper's analysis turned into a recommendation API.

The paper derives when each method wins (§3.2's overhaul/incremental
crossover, §3.3's Query-vs-Object-Indexing trade-off, §4's hierarchical
robustness to skew).  :func:`recommend` encodes those rules so a
deployment can pick a configuration from its workload parameters, with
the reasoning spelled out.  The decision thresholds are physical where
the paper gives physics (``Pr(exit)``), and tunable constants where the
paper's answer is "depends on machine constants" (the QI/OI crossover;
see EXPERIMENTS.md Fig. 15).

:func:`calibrate` optionally fits this machine's Lemma-1 constants from
a few micro-measurements, enabling absolute cycle-time predictions via
:class:`~repro.core.cost_model.ObjectIndexingCost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import ConfigurationError
from .cost_model import ObjectIndexingCost, optimal_cell_size, pr_exit


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything the paper's analysis keys on."""

    n_objects: int
    n_queries: int
    k: int = 10
    vmax: float = 0.005
    skewness: float = 0.0  # repro.motion.skewness_statistic of the data
    velocity_changes_every_cycle: bool = True

    def __post_init__(self) -> None:
        if self.n_objects < 1 or self.n_queries < 1 or self.k < 1:
            raise ConfigurationError(
                "n_objects, n_queries, and k must all be >= 1"
            )
        if self.vmax < 0.0:
            raise ConfigurationError(f"vmax must be >= 0, got {self.vmax}")


@dataclass(frozen=True)
class Recommendation:
    """A configuration choice plus the reasoning that produced it."""

    method: str  # a build_system name (repro.engines.registry)
    maintenance: str
    answering: str
    reasons: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"recommended method: {self.method}"]
        lines += [f"  - {reason}" for reason in self.reasons]
        return "\n".join(lines)


# Tunable machine constants (defaults from this repository's EXPERIMENTS
# run; re-derive with `python -m repro.bench fig15 fig19a` on new hardware).
QI_CROSSOVER_FACTOR = 15.0  # QI wins while NQ < factor * sqrt(NP)
SKEW_THRESHOLD = 1.0  # skewness above this counts as "skewed data"
PR_EXIT_INCREMENTAL_LIMIT = 0.35  # Fig. 12 crossover region


def recommend(profile: WorkloadProfile) -> Recommendation:
    """Pick a monitoring method for a workload, the way the paper would."""
    reasons: List[str] = []
    delta_star = optimal_cell_size(profile.n_objects)
    exit_probability = pr_exit(delta_star, profile.vmax)

    # 1. Maintenance mode for object-side structures (Fig. 12 / 22(a)).
    if exit_probability < PR_EXIT_INCREMENTAL_LIMIT:
        maintenance = "incremental"
        reasons.append(
            f"Pr(exit)={exit_probability:.2f} at delta*={delta_star:.4f} is "
            "low: incremental index maintenance beats rebuilding (Fig. 12)"
        )
    else:
        maintenance = "rebuild"
        reasons.append(
            f"Pr(exit)={exit_probability:.2f} at delta*={delta_star:.4f} is "
            "high: rebuild the index each cycle (Fig. 12)"
        )

    # 2. Few queries -> Query-Indexing (§3.3, Fig. 15/19(a)).
    qi_limit = QI_CROSSOVER_FACTOR * math.sqrt(profile.n_objects)
    if profile.n_queries < qi_limit:
        reasons.append(
            f"NQ={profile.n_queries} < {qi_limit:.0f}: few queries relative "
            "to the population, Query-Indexing avoids the object-index "
            "build entirely (§3.3)"
        )
        return Recommendation(
            "query_indexing", "incremental", "scan", reasons
        )

    # 3. Skewed data -> hierarchical Object-Indexing (§4, Fig. 17/18).
    if profile.skewness > SKEW_THRESHOLD:
        reasons.append(
            f"skewness={profile.skewness:.2f} > {SKEW_THRESHOLD}: the "
            "one-level grid degrades on skewed data, use the hierarchical "
            "index (Fig. 17)"
        )
        # Hierarchical incremental maintenance is never preferred at
        # realistic velocities (Fig. 22(a)).
        answering = (
            "incremental" if exit_probability < PR_EXIT_INCREMENTAL_LIMIT else "overhaul"
        )
        reasons.append(
            "hierarchical maintenance by rebuild (its incremental variant "
            "never wins, Fig. 22(a))"
        )
        return Recommendation("hierarchical", "rebuild", answering, reasons)

    # 4. Uniform-ish data, many queries -> one-level Object-Indexing.
    answering = "incremental" if exit_probability < PR_EXIT_INCREMENTAL_LIMIT else "overhaul"
    reasons.append(
        "near-uniform data with a large query workload: one-level "
        "Object-Indexing at delta* gives constant per-query time "
        "(Theorem 1)"
    )
    if profile.velocity_changes_every_cycle:
        reasons.append(
            "velocities change constantly: predictive (TPR-tree) indexing "
            "would degenerate to per-object updates (§5.4) — stay with "
            "the grid"
        )
    return Recommendation("object_overhaul" if maintenance == "rebuild"
                          else "object_incremental", maintenance, answering, reasons)


def calibrate(
    n_objects: int = 5_000,
    n_queries: int = 200,
    k: int = 10,
    seed: int = 7,
) -> ObjectIndexingCost:
    """Fit this machine's Lemma-1 constants from micro-measurements.

    Runs three small overhaul workloads, measures index-build and
    query-answer times, and solves for ``(a0, a1, a2)`` by least squares.
    The returned :class:`ObjectIndexingCost` predicts absolute cycle
    times for other workload sizes.
    """
    from ..motion import RandomWalkModel, make_dataset, make_queries
    from .cost_model import expected_knn_radius_uniform
    from ..engines.registry import build_system

    sizes = [max(500, n_objects // 4), n_objects, n_objects * 2]
    build_times = []
    answer_rows = []
    answer_times = []
    for size in sizes:
        positions = make_dataset("uniform", size, seed=seed)
        queries = make_queries(n_queries, seed=seed + 1)
        system = build_system("object_indexing", k, queries)
        motion = RandomWalkModel(vmax=0.005, seed=seed + 2)
        system.load(positions)
        for _ in range(3):
            positions = motion.step(positions)
            system.tick(positions)
        stats = system.history[1:]
        build_times.append(sum(s.index_time for s in stats) / len(stats))
        per_query = (
            sum(s.answer_time for s in stats) / len(stats) / n_queries
        )
        delta = optimal_cell_size(size)
        lcrit = expected_knn_radius_uniform(k, size)
        width = lcrit + delta
        area = width * width
        answer_rows.append([area / (delta * delta), area * size])
        answer_times.append(per_query)

    a0 = float(np.mean([t / size for t, size in zip(build_times, sizes)]))
    design = np.asarray(answer_rows)
    solution, *_ = np.linalg.lstsq(design, np.asarray(answer_times), rcond=None)
    a1, a2 = (max(0.0, float(v)) for v in solution)
    return ObjectIndexingCost(a0=a0, a1=a1, a2=a2)
