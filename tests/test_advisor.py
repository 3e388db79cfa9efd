"""Tests for the method advisor."""

from __future__ import annotations

import pytest

from repro.core.advisor import (
    Recommendation,
    WorkloadProfile,
    calibrate,
    recommend,
)
from repro.errors import ConfigurationError


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(n_objects=0, n_queries=10)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(n_objects=10, n_queries=0)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(n_objects=10, n_queries=10, vmax=-1.0)


class TestRecommend:
    def test_few_queries_picks_query_indexing(self):
        profile = WorkloadProfile(n_objects=100_000, n_queries=100)
        rec = recommend(profile)
        assert rec.method == "query_indexing"
        assert any("Query-Indexing" in r for r in rec.reasons)

    def test_skewed_many_queries_picks_hierarchical(self):
        profile = WorkloadProfile(
            n_objects=50_000, n_queries=50_000, skewness=6.0
        )
        rec = recommend(profile)
        assert rec.method == "hierarchical"
        assert rec.maintenance == "rebuild"

    def test_uniform_many_queries_picks_one_level(self):
        profile = WorkloadProfile(
            n_objects=50_000, n_queries=50_000, skewness=0.1, vmax=0.02
        )
        rec = recommend(profile)
        assert rec.method in ("object_overhaul", "object_incremental")

    def test_slow_objects_get_incremental(self):
        profile = WorkloadProfile(
            n_objects=10_000, n_queries=100_000, skewness=0.0, vmax=0.0001
        )
        rec = recommend(profile)
        assert rec.method == "object_incremental"
        assert rec.maintenance == "incremental"

    def test_fast_objects_get_rebuild(self):
        profile = WorkloadProfile(
            n_objects=10_000, n_queries=100_000, skewness=0.0, vmax=0.05
        )
        rec = recommend(profile)
        assert rec.method == "object_overhaul"
        assert rec.maintenance == "rebuild"

    def test_tpr_warning_included(self):
        profile = WorkloadProfile(
            n_objects=10_000,
            n_queries=100_000,
            skewness=0.0,
            velocity_changes_every_cycle=True,
        )
        rec = recommend(profile)
        assert any("TPR" in r for r in rec.reasons)

    def test_summary_renders(self):
        rec = Recommendation("query_indexing", "incremental", "scan", ["why"])
        text = rec.summary()
        assert "query_indexing" in text
        assert "why" in text

    def test_recommended_methods_resolve_in_registry(self):
        from repro.engines.registry import resolve_preset

        profiles = [
            WorkloadProfile(100_000, 100),
            WorkloadProfile(50_000, 50_000, skewness=6.0),
            WorkloadProfile(50_000, 50_000, skewness=0.0, vmax=0.02),
            WorkloadProfile(10_000, 100_000, skewness=0.0, vmax=0.0001),
        ]
        for profile in profiles:
            rec = recommend(profile)
            # Method plus regime must build through the unified factory.
            method, options = resolve_preset(
                rec.method, {"maintenance": rec.maintenance}
            )
            assert options["maintenance"] == rec.maintenance


class TestCalibrate:
    def test_fit_produces_positive_constants(self):
        cost = calibrate(n_objects=2_000, n_queries=50)
        assert cost.a0 > 0.0
        assert cost.a1 >= 0.0
        assert cost.a2 >= 0.0

    def test_prediction_in_right_ballpark(self):
        """The fitted model predicts a measured workload within 5x."""
        import time

        from repro.engines.registry import build_system
        from repro.core.cost_model import (
            expected_knn_radius_uniform,
            optimal_cell_size,
        )
        from repro.motion import RandomWalkModel, make_dataset, make_queries

        cost = calibrate(n_objects=2_000, n_queries=50)
        n, nq, k = 6_000, 100, 10
        predicted = cost.total(
            expected_knn_radius_uniform(k, n), optimal_cell_size(n), n, nq
        )
        positions = make_dataset("uniform", n, seed=1)
        queries = make_queries(nq, seed=2)
        system = build_system("object_indexing", k, queries)
        motion = RandomWalkModel(vmax=0.005, seed=3)
        system.load(positions)
        for _ in range(3):
            positions = motion.step(positions)
            system.tick(positions)
        measured = system.mean_cycle_time()
        assert predicted == pytest.approx(measured, rel=4.0)
