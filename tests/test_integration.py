"""End-to-end integration tests spanning multiple subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DeltaTracker,
    MonitoringSession,
    QueryAnswer,
    RKNNMonitor,
    RandomWalkModel,
    RoadNetworkModel,
    answers_equal,
    build_system,
    make_dataset,
    make_queries,
)
from repro.core.brute import brute_force_knn
from repro.core.rknn import brute_force_rknn
from tests.conftest import assert_same_distances

SYSTEMS = {
    "object": lambda k, q: build_system("object_indexing", k, q),
    "object_incr": lambda k, q: build_system(
        "object_indexing", k, q, maintenance="incremental", answering="incremental"
    ),
    "query": lambda k, q: build_system("query_indexing", k, q),
    "hier": lambda k, q: build_system("hierarchical", k, q),
    "rtree": lambda k, q: build_system("rtree", k, q, maintenance="str_bulk"),
}


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("dataset", ["uniform", "skewed", "hi_skewed"])
    def test_all_methods_agree(self, dataset):
        """All five methods produce interchangeable exact answers on every
        dataset over a multi-cycle run."""
        objects = make_dataset(dataset, 1000, seed=41)
        queries = make_queries(8, seed=42)
        systems = {
            name: factory(6, queries) for name, factory in SYSTEMS.items()
        }
        motions = {
            name: RandomWalkModel(vmax=0.008, seed=43) for name in systems
        }
        snapshots = {name: objects for name in systems}
        for name, system in systems.items():
            system.load(objects)
        for _ in range(4):
            finals = {}
            for name, system in systems.items():
                snapshots[name] = motions[name].step(snapshots[name])
                finals[name] = system.tick(snapshots[name])
            reference = finals["object"]
            for name, answers in finals.items():
                for qa, ref in zip(answers, reference):
                    assert answers_equal(list(qa.neighbors), list(ref.neighbors)), (
                        name,
                        qa.query_id,
                    )

    def test_road_network_workload(self):
        """Monitoring over road-constrained motion stays exact."""
        fleet = RoadNetworkModel(800, vmax=0.01, seed=44)
        queries = make_queries(6, seed=45)
        system = build_system("hierarchical", 5, queries)
        positions = fleet.positions()
        system.load(positions)
        for _ in range(4):
            positions = fleet.step()
            answers = system.tick(positions)
            for qa in answers:
                qx, qy = queries[qa.query_id]
                want = brute_force_knn(positions, qx, qy, 5)
                assert_same_distances(qa.neighbors, want)


class TestStreamingPipeline:
    def test_buffer_monitor_delta_pipeline(self):
        """Full pipeline: async reports -> snapshot -> answers -> deltas."""
        objects = make_dataset("skewed", 700, seed=46)
        queries = make_queries(6, seed=47)
        tracker = DeltaTracker()

        def track(answers):
            return tracker.update(
                [QueryAnswer(h.id, a.timestamp, a.neighbors) for h, a in answers.items()]
            )

        with MonitoringSession("query_indexing", k=5) as session:
            for object_id, point in enumerate(objects):
                session.join_object(object_id, point)
            handles = [session.register_query(q) for q in queries]
            track(session.tick())

            rng = np.random.default_rng(48)
            current = objects.copy()
            for _ in range(3):
                movers = rng.choice(700, size=150, replace=False)
                for object_id in movers:
                    x, y = rng.random(2)
                    session.move_object(int(object_id), (x, y))
                    current[object_id] = (x, y)
                answers = session.tick()
                deltas = track(answers)
                # Exactness against the accumulated state.
                for handle, (qx, qy) in zip(handles, queries):
                    want = brute_force_knn(current, qx, qy, 5)
                    assert_same_distances(answers[handle].neighbors, want)
                assert len(deltas) == 6
        assert tracker.cycles == 4


class TestCompositeQueries:
    def test_rknn_and_knn_consistency(self):
        """Composite invariant linking kNN and RkNN: if q is within the
        k-th self-join distance of p, then p is a reverse neighbor."""
        positions = make_dataset("uniform", 300, seed=49)
        queries = make_queries(4, seed=50)
        monitor = RKNNMonitor(3, queries)
        got = monitor.tick(positions)
        want = brute_force_rknn(positions, queries, 3)
        assert [sorted(g) for g in got] == [sorted(w) for w in want]

    def test_knn_monitor_and_rknn_share_population(self):
        """Run kNN and RkNN monitors side by side over the same motion."""
        positions = make_dataset("skewed", 400, seed=51)
        queries = make_queries(5, seed=52)
        knn_system = build_system("object_indexing", 3, queries)
        rknn_monitor = RKNNMonitor(3, queries)
        knn_system.load(positions)
        motion = RandomWalkModel(vmax=0.01, seed=53)
        for _ in range(3):
            positions = motion.step(positions)
            knn_answers = knn_system.tick(positions)
            rknn_answers = rknn_monitor.tick(positions)
            want = brute_force_rknn(positions, queries, 3)
            assert [sorted(g) for g in rknn_answers] == [sorted(w) for w in want]
            for qa in knn_answers:
                qx, qy = queries[qa.query_id]
                expected = brute_force_knn(positions, qx, qy, 3)
                assert_same_distances(qa.neighbors, expected)
