"""Integration tests: instrumentation wired through every engine.

Covers the acceptance criteria of the observability layer: all seven
engines emit spans and counters through one registry, counters on a
hand-checkable grid match pencil-and-paper values, the bench layer's
means derive from the per-cycle ``CycleTiming`` records, and the
observed-vs-predicted cost-model validation passes on the object-index
overhaul path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import CycleTiming, measure_method
from repro.engines.registry import build_system
from repro.core.monitor import MonitoringSystem
from repro.core.object_index import ObjectIndex
from repro.errors import IndexStateError
from repro.motion import RandomWalkModel, make_dataset, make_queries
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    run_validation,
    validate_object_indexing,
)
from repro.tprtree import TPREngine

ENGINE_FACTORIES = [
    ("object_indexing", lambda q, reg: build_system(
        "object_indexing", 4, q, registry=reg
    )),
    ("query_indexing", lambda q, reg: build_system(
        "query_indexing", 4, q, registry=reg
    )),
    ("hierarchical", lambda q, reg: build_system(
        "hierarchical", 4, q, registry=reg
    )),
    ("rtree", lambda q, reg: build_system("rtree", 4, q, registry=reg)),
    ("brute_force", lambda q, reg: build_system("brute_force", 4, q, registry=reg)),
    ("fast_grid", lambda q, reg: build_system("fast_grid", 4, q, registry=reg)),
    ("tpr", lambda q, reg: MonitoringSystem(TPREngine(4, q), registry=reg)),
]


@pytest.mark.parametrize(
    "label,factory", ENGINE_FACTORIES, ids=[l for l, _ in ENGINE_FACTORIES]
)
def test_every_engine_emits_spans_and_counters(label, factory):
    registry = MetricsRegistry()
    queries = make_queries(6, seed=5)
    system = factory(queries, registry)
    positions = make_dataset("uniform", 300, seed=6)
    motion = RandomWalkModel(vmax=0.01, seed=7)
    system.load(positions)
    for _ in range(2):
        positions = motion.step(positions)
        system.tick(positions)

    # Every cycle recorded its counter deltas on the CycleTiming entry.
    assert len(system.history) == 3
    for stats in system.history:
        assert stats.counters is not None

    tick = system.history[-1].counters
    # The system-level stage spans are always present...
    assert tick["span.maintain.calls"] == 1.0
    assert tick["span.answer.calls"] == 1.0
    assert tick["span.maintain.seconds"] > 0.0
    # ...and every engine contributes at least one algorithmic counter
    # beyond the system spans.
    assert any(not name.startswith("span.") for name in tick), tick
    assert registry.counter("cycle.count") == 3.0


def test_uninstrumented_system_records_no_counters():
    queries = make_queries(4, seed=1)
    system = build_system("object_indexing", 3, queries)
    positions = make_dataset("uniform", 100, seed=2)
    system.load(positions)
    system.tick(positions)
    assert all(stats.counters is None for stats in system.history)


def test_3x3_grid_counters_match_hand_count():
    """Pencil-and-paper check on a 3x3 grid with prune disabled.

    Three objects, one query in the centre cell, k=2.  The overhaul
    answer grows r0 over one ring (9 cells seen in growth), then the
    Rcrit scan visits all 9 cells (pruning off) and touches all 3
    objects.
    """
    index = ObjectIndex(delta=1.0 / 3.0, prune_cells=False)
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    index.tracer = tracer
    positions = np.array([[0.5, 0.5], [0.1, 0.1], [0.9, 0.9]])
    index.build(positions)
    answer = index.knn_overhaul(0.5, 0.5, k=2)
    assert len(answer) == 2

    c = index.counters
    assert c.overhaul_calls == 1
    assert c.r0_rings == 1  # home cell alone lacks k=2 objects
    assert c.r0_objects == 3  # the full ring sees every object
    assert c.cells_visited == 9  # Rcrit rect = whole grid, pruning off
    assert c.cells_pruned == 0
    assert c.objects_scanned == 3
    counters = registry.counter_values()
    assert counters["span.r0_growth.calls"] == 1.0
    assert counters["span.rcrit_scan.calls"] == 1.0


def test_3x3_grid_counts_pruning():
    """Same setup with pruning on: far empty cells are pruned, not scanned."""
    index = ObjectIndex(delta=1.0 / 3.0, prune_cells=True)
    positions = np.array([[0.5, 0.5], [0.1, 0.1], [0.9, 0.9]])
    index.build(positions)
    index.knn_overhaul(0.5, 0.5, k=2)
    c = index.counters
    assert c.cells_visited + c.cells_pruned <= 9
    assert c.objects_scanned <= 3
    assert c.overhaul_calls == 1


class TestCycleTimingRecord:
    def test_positional_construction_still_works(self):
        stats = CycleTiming(1.0, 0.5, 0.25)
        assert stats.timestamp == 1.0
        assert stats.index_time == 0.5
        assert stats.answer_time == 0.25
        assert stats.counters is None
        assert stats.total_time == 0.75

    def test_equality_ignores_counters(self):
        a = CycleTiming(1.0, 0.5, 0.25, counters={"x": 1.0})
        b = CycleTiming(1.0, 0.5, 0.25)
        assert a == b

    def test_mean_of(self):
        history = [
            CycleTiming(0.0, 1.0, 1.0),
            CycleTiming(1.0, 0.2, 0.4),
            CycleTiming(2.0, 0.4, 0.6),
        ]
        index_mean, answer_mean, cycles = CycleTiming.mean_of(history)
        assert index_mean == pytest.approx(0.3)
        assert answer_mean == pytest.approx(0.5)
        assert cycles == 2
        with pytest.raises(IndexStateError):
            CycleTiming.mean_of([])


class TestCycleTimingDerivation:
    def test_from_history_matches_mean_of(self):
        registry = MetricsRegistry()
        queries = make_queries(4, seed=11)
        system = build_system("object_indexing", 3, queries, registry=registry)
        positions = make_dataset("uniform", 200, seed=12)
        motion = RandomWalkModel(vmax=0.01, seed=13)
        system.load(positions)
        for _ in range(3):
            positions = motion.step(positions)
            system.tick(positions)
        timing = CycleTiming.from_history(system.history)
        index_mean, answer_mean, cycles = CycleTiming.mean_of(system.history)
        assert timing.index_time == pytest.approx(index_mean)
        assert timing.answer_time == pytest.approx(answer_mean)
        assert timing.cycles == cycles
        assert timing.counters["oi.answer.overhaul_calls"] == pytest.approx(4.0)
        assert "answer" in timing.span_means()

    def test_measure_method_instrumented(self):
        timing = measure_method(
            "object_overhaul", 200, 4, k=3, cycles=2, instrument=True
        )
        assert timing.counters is not None
        assert timing.span_means()

    def test_measure_method_uninstrumented_has_no_counters(self):
        timing = measure_method("object_overhaul", 200, 4, k=3, cycles=2)
        assert timing.counters is None
        assert timing.span_means() == {}

    def test_build_system_registry_passthrough_all_methods(self):
        queries = make_queries(3, seed=21)
        for method in (
            "object_overhaul",
            "query_indexing",
            "hierarchical",
            "rtree_bottom_up",
            "brute_force",
            "tpr_predictive",
            "fast_grid",
        ):
            registry = MetricsRegistry()
            system = build_system(method, 3, queries, registry=registry)
            assert system.registry is registry


class TestGridStageSpans:
    def test_uninstrumented_engine_holds_null_tracer(self):
        queries = make_queries(4, seed=31)
        positions = make_dataset("uniform", 200, seed=32)
        moved = RandomWalkModel(vmax=0.01, seed=33).step(positions)
        for method in ("fast_grid", "delta_grid"):
            system = build_system(method, 3, queries)
            assert system.engine.tracer is NULL_TRACER, method
            system.load(positions)
            system.tick(moved)
            assert [r.span_means() for r in system.history] == [{}, {}], method

    @pytest.mark.parametrize(
        "method,build",
        [("fast_grid", "csr_snapshot"), ("delta_grid", "delta_update")],
        ids=["fast_grid", "delta_grid"],
    )
    def test_stages_are_spans_under_the_cycle(self, method, build):
        queries = make_queries(4, seed=31)
        positions = make_dataset("uniform", 200, seed=32)
        moved = RandomWalkModel(vmax=0.01, seed=33).step(positions)
        system = build_system(method, 3, queries, registry=MetricsRegistry())
        system.load(positions)
        system.tick(moved)
        counters = system.history[-1].counters
        assert counters["fast.answer.queries"] == 4.0
        parents = {f"maintain.{build}": "maintain"}
        parents.update(
            (f"answer.{stage}", "answer") for stage in ("radii", "gather", "select")
        )
        for path, parent in parents.items():
            assert counters[f"span.{path}.calls"] == 1.0, path
            assert (
                counters[f"span.{path}.seconds"]
                <= counters[f"span.{parent}.seconds"]
            ), path


class TestCostModelValidation:
    def test_validate_object_indexing_accepts_consistent_counters(self):
        predicted = {
            "oi.answer.overhaul_calls": 10.0,
            "oi.answer.cells_visited": 10.0 * 25.0,
            "oi.answer.objects_scanned": 10.0 * 40.0,
            "oi.answer.r0_rings": 10.0 * 2.0,
        }
        report = validate_object_indexing(
            predicted, n_objects=2000, n_queries=10, k=8, delta=None
        )
        assert report.params["NP"] == 2000
        assert report.render()

    def test_run_validation_passes_on_overhaul_path(self):
        report = run_validation(n_objects=1500, n_queries=24, k=8, cycles=3)
        assert report.ok, report.render()
        names = {check.name for check in report.checks}
        assert {
            "cells_visited/query",
            "objects_scanned/query",
            "overhaul_calls/query",
        } <= names

    def test_run_validation_fails_with_absurd_tolerance(self):
        report = run_validation(
            n_objects=1500, n_queries=24, k=8, cycles=2, tolerance_factor=1.0001
        )
        # A razor-thin band must trip at least one ratio check — proof the
        # validation actually compares numbers rather than rubber-stamping.
        assert not report.ok
