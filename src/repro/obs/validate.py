"""Observed-counters vs. cost-model predictions (the paper's §3 as a check).

The analytical model in :mod:`repro.core.cost_model` predicts, for the
overhaul Object-Indexing path under uniformity, *how much work* each query
should cost: the k-NN radius ``lcrit ~= sqrt(k/(pi NP))`` (Theorem 1
proof), and from it the number of grid cells and candidate objects the
``Rcrit`` scan touches.  The instrumentation layer counts that work as it
actually happens (``oi.answer.cells_visited``, ``oi.answer.objects_scanned``,
``oi.answer.r0_rings``).  This module closes the loop: run an instrumented
monitoring session, divide the counters by ``NQ``, and check each observed
per-query quantity lands within a multiplicative tolerance of its
prediction.

Order-of-magnitude agreement is the goal — the model drops constants and
edge effects (workspace boundary clipping, cell-granularity rounding), so
checks use a ratio band (default within 4x), not percent error.

Core modules are imported lazily so ``repro.obs`` stays importable on its
own and free of import cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple


def predict_overhaul_counters(
    n_objects: int, k: int, delta: Optional[float] = None
) -> Dict[str, float]:
    """Per-query work predictions for the overhaul Object-Indexing path.

    ``delta=None`` uses the cost model's optimal cell size for
    ``n_objects``.  Returns predicted means under uniformity:

    ``lcrit``
        expected k-th NN distance, ``sqrt(k/(pi NP))``.
    ``cells_per_query``
        cells of the ``Rcrit`` square of half-width ``lcrit``:
        ``(2 lcrit/delta + 1)^2``.
    ``objects_per_query``
        objects inside the cell-aligned ``Rcrit`` rectangle:
        ``NP (2 lcrit + delta)^2``, capped at ``NP``.
    ``rings_per_query``
        first-phase ring growth passes until ``>= k`` candidates are seen:
        the smallest ``L`` with ``(2L+1)^2 NP delta^2 >= k``.
    """
    from ..core.cost_model import expected_knn_radius_uniform, optimal_cell_size

    if delta is None:
        delta = optimal_cell_size(n_objects)
    lcrit = expected_knn_radius_uniform(k, n_objects)
    cells_side = 2.0 * lcrit / delta + 1.0
    objects_side = min(1.0, 2.0 * lcrit + delta)
    ring_side = math.sqrt(k / n_objects) / delta  # cells needed to hold k
    rings = max(0.0, math.ceil((ring_side - 1.0) / 2.0))
    return {
        "lcrit": lcrit,
        "delta": delta,
        "cells_per_query": cells_side * cells_side,
        "objects_per_query": min(float(n_objects), n_objects * objects_side**2),
        "rings_per_query": rings,
    }


@dataclass(frozen=True)
class QuantityCheck:
    """One observed-vs-predicted comparison."""

    name: str
    observed: float
    predicted: float
    tolerance_factor: float

    @property
    def ratio(self) -> float:
        if self.predicted == 0.0:
            return math.inf if self.observed else 1.0
        return self.observed / self.predicted

    @property
    def ok(self) -> bool:
        # Small absolute quantities (ring counts near zero) compare by
        # absolute slack instead of ratio, which is meaningless near 0.
        if self.predicted < 2.0 and self.observed < 2.0:
            return abs(self.observed - self.predicted) <= self.tolerance_factor
        ratio = self.ratio
        return 1.0 / self.tolerance_factor <= ratio <= self.tolerance_factor

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{verdict:4s} {self.name}: observed {self.observed:.3f} "
            f"vs predicted {self.predicted:.3f} "
            f"(ratio {self.ratio:.2f}, tolerance x{self.tolerance_factor:g})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """All checks from one validation run."""

    checks: Tuple[QuantityCheck, ...]
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        header = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        lines = [f"== cost-model validation ({header}) =="]
        lines.extend(check.render() for check in self.checks)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def validate_object_indexing(
    observed: Mapping[str, float],
    n_objects: int,
    n_queries: int,
    k: int,
    delta: Optional[float] = None,
    tolerance_factor: float = 4.0,
) -> ValidationReport:
    """Check mean per-cycle counters against the §3.1 overhaul predictions.

    ``observed`` is a mapping of mean per-cycle counter deltas, as produced
    by :func:`repro.obs.export.mean_cycle_counters` on an instrumented
    ``object_indexing`` run (rebuild maintenance, overhaul answering).
    ``delta=None`` uses the cost model's optimal cell size.
    """
    predicted = predict_overhaul_counters(n_objects, k, delta)
    nq = float(n_queries)
    checks = (
        QuantityCheck(
            "cells_visited/query",
            observed.get("oi.answer.cells_visited", 0.0) / nq,
            predicted["cells_per_query"],
            tolerance_factor,
        ),
        QuantityCheck(
            "objects_scanned/query",
            observed.get("oi.answer.objects_scanned", 0.0) / nq,
            predicted["objects_per_query"],
            tolerance_factor,
        ),
        QuantityCheck(
            "r0_rings/query",
            observed.get("oi.answer.r0_rings", 0.0) / nq,
            predicted["rings_per_query"],
            tolerance_factor,
        ),
        QuantityCheck(
            "overhaul_calls/query",
            observed.get("oi.answer.overhaul_calls", 0.0) / nq,
            1.0,
            tolerance_factor,
        ),
    )
    return ValidationReport(
        checks,
        params={
            "NP": n_objects,
            "NQ": n_queries,
            "k": k,
            "delta": predicted["delta"],
            "lcrit": predicted["lcrit"],
        },
    )


def run_validation(
    n_objects: int = 2000,
    n_queries: int = 32,
    k: int = 8,
    cycles: int = 3,
    seed: int = 7,
    tolerance_factor: float = 4.0,
    delta: Optional[float] = None,
) -> ValidationReport:
    """End-to-end check: instrumented uniform run, counters vs. model.

    Builds an Object-Indexing system (rebuild maintenance, overhaul
    answering — the Lemma 1 configuration), monitors uniformly distributed
    objects for ``cycles`` cycles, and validates the mean per-cycle
    counters against :func:`predict_overhaul_counters`.
    """
    import numpy as np

    from ..core.cost_model import optimal_cell_size
    from ..engines.registry import build_system
    from .export import mean_cycle_counters
    from .registry import MetricsRegistry

    if delta is None:
        delta = optimal_cell_size(n_objects)
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    system = build_system(
        "object_indexing",
        k,
        rng.random((n_queries, 2)),
        maintenance="rebuild",
        answering="overhaul",
        delta=delta,
        registry=registry,
    )
    system.load(rng.random((n_objects, 2)))
    for _ in range(cycles):
        system.tick(rng.random((n_objects, 2)))
    observed = mean_cycle_counters(system.history)
    return validate_object_indexing(
        observed,
        n_objects=n_objects,
        n_queries=n_queries,
        k=k,
        delta=delta,
        tolerance_factor=tolerance_factor,
    )


def run_sharded_validation(
    n_objects: int = 600,
    n_queries: int = 32,
    k: int = 8,
    cycles: int = 4,
    seed: int = 7,
    workers: int = 2,
    shards: int = 2,
    tolerance_factor: float = 4.0,
) -> ValidationReport:
    """Soundness checks for the sharded engine's merged worker telemetry.

    Runs the same deterministic trace twice — once with ``workers``
    processes, once with the ``workers=0`` serial fallback, both on the
    same ``shards`` stripes — with a registry bound, and checks:

    * the ``shard.all.*`` aggregates of the two runs are **equal** for
      every deterministic (non-timing) counter — the multiprocess merge
      neither loses nor double-counts work;
    * the answers of the two runs are bit-identical;
    * whenever a cycle maintains every stripe, the per-stripe population
      gauges sum to exactly ``NP`` — no object is dropped or counted in
      two stripes;
    * maintenance accounting closes: every maintained (stripe, cycle)
      is exactly one of fresh build, delta patch, or delta rebuild;
    * the answering kernel's candidates per query are within
      ``tolerance_factor`` of the §3.1 cost-model prediction evaluated
      at the stripe grids' ~1-object-per-cell resolution
      (``delta = 1/sqrt(NP)``).
    """
    import numpy as np

    from ..engines.registry import build_system
    from .registry import MetricsRegistry
    from .remote import merged_worker_counters

    rng = np.random.default_rng(seed)
    queries = rng.random((n_queries, 2))
    trace = [rng.random((n_objects, 2))]
    for _ in range(cycles):
        step = np.clip(
            trace[-1] + rng.normal(0.0, 0.01, (n_objects, 2)), 0.0, 1.0
        )
        trace.append(step)

    def run(n_workers: int):
        registry = MetricsRegistry()
        system = build_system(
            "sharded",
            k,
            queries,
            workers=n_workers,
            shards=shards,
            oversubscribe=True,
            registry=registry,
        )
        answers = []
        population_violations = 0
        try:
            for i, positions in enumerate(trace):
                maintained_before = registry.counter("shard.all.shard.task.maintained")
                packaged = system.load(positions) if i == 0 else system.tick(positions)
                answers.append(tuple(query.neighbors for query in packaged))
                maintained = (
                    registry.counter("shard.all.shard.task.maintained")
                    - maintained_before
                )
                if maintained == shards:
                    # Every stripe refreshed this cycle, so every
                    # per-stripe population gauge is current.
                    total = sum(
                        registry.gauge("shard.stripe.objects", labels={"shard": s})
                        for s in range(shards)
                    )
                    if total != n_objects:
                        population_violations += 1
        finally:
            system.close()
        return registry, answers, population_violations

    serial_reg, serial_answers, serial_pop_bad = run(0)
    pool_reg, pool_answers, pool_pop_bad = run(workers)

    def deterministic(registry) -> Dict[str, float]:
        return {
            name: value
            for name, value in merged_worker_counters(registry).items()
            if not name.endswith(".seconds")
        }

    serial_counters = deterministic(serial_reg)
    pool_counters = deterministic(pool_reg)
    mismatched = sum(
        1
        for name in set(serial_counters) | set(pool_counters)
        if serial_counters.get(name) != pool_counters.get(name)
    )
    answer_mismatches = sum(
        1 for a, b in zip(serial_answers, pool_answers) if a != b
    )
    accounting_gap = abs(
        pool_counters.get("shard.task.maintained", 0.0)
        - pool_counters.get("shard.task.fresh_builds", 0.0)
        - pool_counters.get("delta.patch_cycles", 0.0)
        - pool_counters.get("delta.rebuild_cycles", 0.0)
    )
    predicted = predict_overhaul_counters(
        n_objects, k, delta=1.0 / math.sqrt(n_objects)
    )
    answered = pool_counters.get("fast.answer.queries", 0.0)
    candidates_per_query = (
        pool_counters.get("fast.answer.candidates", 0.0) / answered
        if answered
        else 0.0
    )
    checks = (
        QuantityCheck("worker_vs_serial_counter_mismatches", float(mismatched), 0.0, 0.0),
        QuantityCheck("worker_vs_serial_answer_mismatches", float(answer_mismatches), 0.0, 0.0),
        QuantityCheck(
            "stripe_population_violations",
            float(serial_pop_bad + pool_pop_bad),
            0.0,
            0.0,
        ),
        QuantityCheck("maintain_accounting_gap", accounting_gap, 0.0, 0.0),
        QuantityCheck(
            "candidates/query",
            candidates_per_query,
            predicted["objects_per_query"],
            tolerance_factor,
        ),
    )
    return ValidationReport(
        checks,
        params={
            "NP": n_objects,
            "NQ": n_queries,
            "k": k,
            "cycles": cycles,
            "workers": workers,
            "shards": shards,
        },
    )
