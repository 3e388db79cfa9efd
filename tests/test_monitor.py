"""Tests for the MonitoringSystem orchestration layer and all engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.brute import brute_force_knn
from repro.engines import (
    BruteForceEngine,
    CycleTiming,
    ObjectIndexingEngine,
    QueryIndexingEngine,
    RTreeEngine,
    build_system,
)
from repro.errors import ConfigurationError, IndexStateError
from repro.motion import RandomWalkModel, make_dataset, make_queries
from tests.conftest import assert_same_distances

ALL_FACTORIES = [
    ("object/rebuild/overhaul", lambda q: build_system("object_indexing", 5, q)),
    (
        "object/incremental/incremental",
        lambda q: build_system(
            "object_indexing", 5, q, maintenance="incremental", answering="incremental"
        ),
    ),
    ("query/incremental", lambda q: build_system("query_indexing", 5, q)),
    (
        "query/rebuild",
        lambda q: build_system("query_indexing", 5, q, maintenance="rebuild"),
    ),
    ("hier/incremental", lambda q: build_system("hierarchical", 5, q)),
    (
        "hier/rebuild/overhaul",
        lambda q: build_system(
            "hierarchical", 5, q, maintenance="rebuild", answering="overhaul"
        ),
    ),
    ("rtree/overhaul", lambda q: build_system("rtree", 5, q)),
    (
        "rtree/bottom_up",
        lambda q: build_system("rtree", 5, q, maintenance="bottom_up"),
    ),
    (
        "rtree/str_bulk",
        lambda q: build_system("rtree", 5, q, maintenance="str_bulk"),
    ),
    ("brute", lambda q: build_system("brute_force", 5, q)),
]


class TestConfiguration:
    def test_bad_k(self, queries_20):
        with pytest.raises(ConfigurationError):
            build_system("object_indexing", 0, queries_20)

    def test_bad_tau(self, queries_20):
        with pytest.raises(ConfigurationError):
            build_system("object_indexing", 5, queries_20, tau=0.0)

    def test_bad_maintenance_mode(self, queries_20):
        with pytest.raises(ConfigurationError):
            ObjectIndexingEngine(5, queries_20, maintenance="bogus")
        with pytest.raises(ConfigurationError):
            QueryIndexingEngine(5, queries_20, maintenance="bogus")
        with pytest.raises(ConfigurationError):
            RTreeEngine(5, queries_20, maintenance="bogus")

    def test_bad_answering_mode(self, queries_20):
        with pytest.raises(ConfigurationError):
            ObjectIndexingEngine(5, queries_20, answering="bogus")

    def test_bad_query_shape(self):
        with pytest.raises(ConfigurationError):
            build_system("object_indexing", 5, np.zeros((4, 3)))

    def test_tick_before_load(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        with pytest.raises(IndexStateError):
            system.tick(uniform_1k)

    def test_engine_guards(self, uniform_1k, queries_20):
        engine = ObjectIndexingEngine(5, queries_20)
        with pytest.raises(IndexStateError):
            engine.maintain(uniform_1k)
        with pytest.raises(IndexStateError):
            engine.answer()
        brute = BruteForceEngine(5, queries_20)
        with pytest.raises(IndexStateError):
            brute.answer()


class TestAllEnginesExact:
    @pytest.mark.parametrize("name,factory", ALL_FACTORIES, ids=[n for n, _ in ALL_FACTORIES])
    def test_exact_over_cycles(self, name, factory, queries_20):
        objects = make_dataset("skewed", 1500, seed=17)
        system = factory(queries_20)
        motion = RandomWalkModel(vmax=0.005, seed=19)
        current = objects
        answers = system.load(current)
        for _ in range(3):
            current = motion.step(current)
            answers = system.tick(current)
        assert len(answers) == 20
        for qa in answers:
            qx, qy = queries_20[qa.query_id]
            want = brute_force_knn(current, qx, qy, 5)
            assert_same_distances(qa.neighbors, want)


class TestAnswerMetadata:
    def test_timestamps_advance_by_tau(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20, tau=0.5)
        system.load(uniform_1k)
        assert system.timestamp == 0.0
        answers = system.tick(uniform_1k)
        assert system.timestamp == 0.5
        assert all(qa.timestamp == 0.5 for qa in answers)
        system.tick(uniform_1k)
        assert system.timestamp == 1.0

    def test_query_ids_sequential(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        answers = system.load(uniform_1k)
        assert [qa.query_id for qa in answers] == list(range(20))

    def test_answers_have_k_neighbors(self, uniform_1k, queries_20):
        system = build_system("hierarchical", 7, queries_20)
        answers = system.load(uniform_1k)
        assert all(qa.k == 7 for qa in answers)

    def test_neighbors_sorted_by_distance(self, uniform_1k, queries_20):
        system = build_system("rtree", 6, queries_20)
        answers = system.load(uniform_1k)
        for qa in answers:
            distances = [d for _, d in qa.neighbors]
            assert distances == sorted(distances)


class TestStats:
    def test_history_grows(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        system.load(uniform_1k)
        for _ in range(3):
            system.tick(uniform_1k)
        assert len(system.history) == 4
        assert all(isinstance(stats, CycleTiming) for stats in system.history)

    def test_stats_nonnegative(self, uniform_1k, queries_20):
        system = build_system("query_indexing", 5, queries_20)
        system.load(uniform_1k)
        system.tick(uniform_1k)
        stats = system.last_stats
        assert stats.index_time >= 0.0
        assert stats.answer_time >= 0.0
        assert stats.total_time == stats.index_time + stats.answer_time

    def test_mean_cycle_time(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        system.load(uniform_1k)
        system.tick(uniform_1k)
        assert system.mean_cycle_time() > 0.0

    def test_last_stats_before_run(self, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        with pytest.raises(IndexStateError):
            system.last_stats


class TestMovingQueries:
    @pytest.mark.parametrize("name,factory", ALL_FACTORIES, ids=[n for n, _ in ALL_FACTORIES])
    def test_answers_stay_exact_when_queries_move(self, name, factory):
        objects = make_dataset("uniform", 1200, seed=31)
        queries = make_queries(10, seed=32)
        system = factory(queries)
        system.load(objects)
        object_motion = RandomWalkModel(vmax=0.005, seed=33)
        query_motion = RandomWalkModel(vmax=0.01, seed=34)
        current_objects = objects
        current_queries = queries
        for _ in range(3):
            current_objects = object_motion.step(current_objects)
            current_queries = query_motion.step(current_queries)
            system.set_queries(current_queries)
            answers = system.tick(current_objects)
            for qa in answers:
                qx, qy = current_queries[qa.query_id]
                want = brute_force_knn(current_objects, qx, qy, 5)
                assert_same_distances(qa.neighbors, want)

    def test_query_count_change_rejected(self, uniform_1k, queries_20):
        system = build_system("object_indexing", 5, queries_20)
        system.load(uniform_1k)
        with pytest.raises(ConfigurationError):
            system.set_queries(queries_20[:5])


class TestPopulationChanges:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda q: build_system(
                "object_indexing", 3, q, maintenance="incremental"
            ),
            lambda q: build_system("hierarchical", 3, q),
            lambda q: build_system("rtree", 3, q, maintenance="bottom_up"),
        ],
    )
    def test_incremental_engines_rebuild_on_population_change(
        self, factory, queries_20
    ):
        # Engines fall back to a rebuild when the population size changes.
        objects = make_dataset("uniform", 800, seed=23)
        system = factory(queries_20)
        system.load(objects)
        grown = make_dataset("uniform", 1000, seed=24)
        answers = system.tick(grown)
        for qa in answers[:5]:
            qx, qy = queries_20[qa.query_id]
            want = brute_force_knn(grown, qx, qy, 3)
            assert_same_distances(qa.neighbors, want)
