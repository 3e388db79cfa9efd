"""Tests for answer deltas and the DeltaTracker."""

from __future__ import annotations

import pytest

from repro.core.answers import QueryAnswer
from repro.core.deltas import AnswerDelta, DeltaTracker, answer_delta
from repro.engines.registry import build_system
from repro.motion import RandomWalkModel, make_dataset, make_queries


class TestAnswerDelta:
    def test_no_change(self):
        answer = [(1, 0.1), (2, 0.2)]
        delta = answer_delta(0, answer, answer)
        assert not delta.changed
        assert delta.churn == 0

    def test_entry_and_exit(self):
        previous = [(1, 0.1), (2, 0.2)]
        current = [(1, 0.1), (3, 0.15)]
        delta = answer_delta(0, previous, current)
        assert delta.entered == (3,)
        assert delta.left == (2,)
        assert delta.churn == 2
        assert delta.changed

    def test_reordering_detected(self):
        previous = [(1, 0.1), (2, 0.2)]
        current = [(2, 0.05), (1, 0.1)]
        delta = answer_delta(0, previous, current)
        assert delta.entered == ()
        assert delta.left == ()
        assert delta.reordered
        assert delta.changed
        assert delta.churn == 0

    def test_first_answer_all_entered(self):
        delta = answer_delta(3, [], [(5, 0.1), (7, 0.2)])
        assert delta.entered == (5, 7)
        assert delta.left == ()

    def test_query_id_passthrough(self):
        assert answer_delta(42, [], []).query_id == 42


class TestDeltaTracker:
    def _answers(self, neighbors_by_query, timestamp=0.0):
        return [
            QueryAnswer(query_id, timestamp, tuple(neighbors))
            for query_id, neighbors in enumerate(neighbors_by_query)
        ]

    def test_first_cycle_counts_entries(self):
        tracker = DeltaTracker()
        deltas = tracker.update(self._answers([[(1, 0.1)], [(2, 0.2)]]))
        assert all(d.entered for d in deltas)
        assert tracker.total_churn == 2

    def test_stable_answers_no_churn(self):
        tracker = DeltaTracker()
        answers = self._answers([[(1, 0.1)], [(2, 0.2)]])
        tracker.update(answers)
        deltas = tracker.update(answers)
        assert all(not d.changed for d in deltas)
        assert tracker.total_churn == 2  # only the initial entries

    def test_mean_churn(self):
        tracker = DeltaTracker()
        tracker.update(self._answers([[(1, 0.1)]]))
        tracker.update(self._answers([[(2, 0.1)]]))
        assert tracker.cycles == 2
        assert tracker.mean_churn_per_cycle() == pytest.approx((1 + 2) / 2)

    def test_empty_tracker(self):
        assert DeltaTracker().mean_churn_per_cycle() == 0.0

    def test_with_real_monitoring_system(self):
        objects = make_dataset("uniform", 500, seed=1)
        queries = make_queries(10, seed=2)
        system = build_system("object_indexing", 5, queries)
        tracker = DeltaTracker()
        tracker.update(system.load(objects))
        motion = RandomWalkModel(vmax=0.02, seed=3)
        for _ in range(5):
            objects = motion.step(objects)
            deltas = tracker.update(system.tick(objects))
            assert len(deltas) == 10
            # Entered/left come in matched sizes for a fixed k.
            for delta in deltas:
                assert len(delta.entered) == len(delta.left)
        assert tracker.cycles == 6
