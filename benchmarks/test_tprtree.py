"""Benchmarks for the TPR-tree predictive baseline (§2/§5.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.monitor import MonitoringSystem
from repro.engines.registry import build_system
from repro.motion import LinearMotionModel, make_dataset, make_queries
from repro.tprtree import TPREngine, TPRTree

from conftest import SEED

N = 3_000


@pytest.fixture(scope="module")
def workload():
    return make_dataset("uniform", N, seed=SEED), make_queries(100, seed=SEED + 1)


def test_tpr_build(benchmark, workload):
    positions, _ = workload
    rng = np.random.default_rng(SEED)
    velocities = rng.uniform(-0.005, 0.005, positions.shape)

    def build():
        tree = TPRTree(max_entries=16)
        for object_id in range(N):
            tree.insert(
                object_id,
                positions[object_id, 0],
                positions[object_id, 1],
                velocities[object_id, 0],
                velocities[object_id, 1],
                0.0,
            )
        return tree

    tree = benchmark(build)
    assert len(tree) == N


def test_tpr_predictive_knn(benchmark, workload):
    positions, queries = workload
    rng = np.random.default_rng(SEED)
    velocities = rng.uniform(-0.005, 0.005, positions.shape)
    tree = TPRTree(max_entries=16)
    for object_id in range(N):
        tree.insert(
            object_id,
            positions[object_id, 0],
            positions[object_id, 1],
            velocities[object_id, 0],
            velocities[object_id, 1],
            0.0,
        )

    def answer_all():
        for qx, qy in queries:
            tree.knn(qx, qy, 10, t=5.0)

    benchmark(answer_all)


@pytest.mark.parametrize("change_probability", [0.0, 1.0])
def test_tpr_cycle(benchmark, workload, change_probability):
    positions, queries = workload
    engine = TPREngine(10, queries)
    system = MonitoringSystem(engine)
    motion = LinearMotionModel(
        N, vmax=0.005, change_probability=change_probability, seed=SEED + 2
    )
    current = positions
    system.load(current)
    current = motion.step(current)
    system.tick(current)  # bootstrap velocity estimates
    state = {"positions": current}

    def cycle():
        state["positions"] = motion.step(state["positions"])
        system.tick(state["positions"])

    benchmark(cycle)


def test_degeneration_slows_tpr_but_not_grid(workload):
    """§5.4: the velocity-change regime decides TPR viability while the
    grid does not care."""
    positions, queries = workload

    def mean_cycle(change_probability, factory):
        system = factory()
        motion = LinearMotionModel(
            N, vmax=0.005, change_probability=change_probability, seed=SEED + 2
        )
        current = positions
        system.load(current)
        for _ in range(3):
            current = motion.step(current)
            system.tick(current)
        return sum(s.total_time for s in system.history[2:]) / 2

    tpr = lambda: MonitoringSystem(TPREngine(10, queries))
    grid = lambda: build_system("object_indexing", 10, queries)
    tpr_stable = mean_cycle(0.0, tpr)
    tpr_volatile = mean_cycle(1.0, tpr)
    grid_stable = mean_cycle(0.0, grid)
    grid_volatile = mean_cycle(1.0, grid)
    assert tpr_volatile > tpr_stable * 3
    assert grid_volatile < grid_stable * 2
    assert grid_volatile < tpr_volatile
