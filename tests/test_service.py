"""Unit tests for the session API surface (repro.service).

The churn *equivalence* guarantees live in test_churn.py; this file pins
the lifecycle contract itself: handle stability, admission batching and
cancel semantics, explicit backpressure, error paths, the streaming
position interface, and the ``service.*`` telemetry.
"""

import numpy as np
import pytest

from repro.core.config import FastGridConfig
from repro.core.brute import brute_force_knn
from repro.errors import ConfigurationError, NotEnoughObjectsError, OutOfRegionError
from repro.obs.registry import MetricsRegistry
from repro.service import (
    AdmissionDeferred,
    MonitoringSession,
    QueryHandle,
    SessionAnswer,
)
from repro.verify import EXACT_METHODS


def make_session(method="fast_grid", k=2, **kw):
    return MonitoringSession(method, k=k, **kw)


def seed(session, n=10, rng=None):
    rng = rng or np.random.default_rng(0)
    for oid in range(n):
        session.join_object(oid, rng.random(2))


class TestLifecycleBasics:
    def test_register_returns_stable_handles(self):
        with make_session() as s:
            seed(s)
            h1 = s.register_query((0.2, 0.2))
            h2 = s.register_query((0.8, 0.8))
            assert isinstance(h1, QueryHandle) and h1 != h2
            out = s.tick()
            assert set(out) == {h1, h2}
            # Drop h1; h2 keeps its handle across the row remap.
            s.drop_query(h1)
            out = s.tick()
            assert set(out) == {h2}
            assert s.handles() == [h2]

    def test_answers_are_external_ids_sorted_by_distance(self):
        with make_session(k=3) as s:
            # External ids deliberately far from dense rows.
            s.join_object(500, (0.10, 0.5))
            s.join_object(900, (0.20, 0.5))
            s.join_object(700, (0.30, 0.5))
            s.join_object(100, (0.90, 0.5))
            h = s.register_query((0.0, 0.5))
            ans = s.tick()[h]
            assert isinstance(ans, SessionAnswer)
            assert [oid for oid, _ in ans.neighbors] == [500, 900, 700]
            dists = [d for _, d in ans.neighbors]
            assert dists == sorted(dists)

    def test_queries_admitted_at_tick_not_at_call(self):
        with make_session() as s:
            seed(s)
            s.tick()  # no queries yet
            h = s.register_query((0.5, 0.5))
            assert s.n_active_queries == 0  # pending until the next tick
            out = s.tick()
            assert s.n_active_queries == 1 and h in out

    def test_zero_query_session_ticks(self):
        with make_session() as s:
            seed(s)
            assert s.tick() == {}

    def test_tick_requires_k_objects(self):
        with make_session(k=4) as s:
            seed(s, n=3)
            s.register_query((0.5, 0.5))
            with pytest.raises(NotEnoughObjectsError):
                s.tick()
            # Nothing was admitted: the retry path still works.
            assert s.pending_deltas == 4
            s.join_object(99, (0.4, 0.4))
            assert len(s.tick()) == 1


class TestCancelSemantics:
    def test_drop_of_pending_register_cancels(self):
        with make_session() as s:
            seed(s)
            s.tick()
            h = s.register_query((0.5, 0.5))
            s.drop_query(h)
            assert s.pending_deltas == 0
            assert h not in s.tick()

    def test_leave_of_pending_join_cancels(self):
        with make_session() as s:
            seed(s)
            s.tick()
            s.join_object(77, (0.5, 0.5))
            s.leave_object(77)
            assert s.pending_deltas == 0
            s.tick()
            assert 77 not in s.population()[0]

    def test_join_of_pending_leave_cancels_and_moves(self):
        with make_session() as s:
            seed(s)
            s.tick()
            s.leave_object(3)
            s.join_object(3, (0.9, 0.9))  # rejoin before admission
            assert s.pending_deltas == 0
            s.tick()
            ids, pos = s.population()
            row = int(np.flatnonzero(ids == 3)[0])
            assert tuple(pos[row]) == (0.9, 0.9)

    def test_duplicate_and_unknown_raise(self):
        with make_session() as s:
            seed(s, n=5)
            s.tick()
            with pytest.raises(ConfigurationError):
                s.join_object(0, (0.1, 0.1))  # already live
            s.join_object(50, (0.1, 0.1))
            with pytest.raises(ConfigurationError):
                s.join_object(50, (0.2, 0.2))  # already joining
            with pytest.raises(ConfigurationError):
                s.leave_object(999)
            s.leave_object(1)
            with pytest.raises(ConfigurationError):
                s.leave_object(1)  # already leaving
            with pytest.raises(ConfigurationError):
                s.drop_query(QueryHandle(12345))

    def test_per_query_k_rejected(self):
        with make_session(k=2) as s:
            with pytest.raises(ConfigurationError):
                s.register_query((0.5, 0.5), k=7)
            # Matching k is accepted (it is just explicit).
            assert isinstance(s.register_query((0.5, 0.5), k=2), QueryHandle)


class TestBackpressure:
    def test_overflow_returns_deferred_never_drops(self):
        reg = MetricsRegistry()
        with make_session(registry=reg, max_pending_deltas=2) as s:
            assert s.join_object(0, (0.1, 0.1)) is None
            assert s.join_object(1, (0.2, 0.2)) is None
            d = s.join_object(2, (0.3, 0.3))
            assert isinstance(d, AdmissionDeferred)
            assert (d.action, d.kind) == ("join_object", "object")
            assert (d.pending, d.limit) == (2, 2)
            r = s.register_query((0.5, 0.5))
            assert isinstance(r, AdmissionDeferred) and r.kind == "query"
            # Nothing was recorded for the deferred calls.
            s.tick()
            assert s.n_live_objects == 2 and s.n_active_queries == 0
            # The drained set accepts the retries.
            assert s.join_object(2, (0.3, 0.3)) is None
            assert isinstance(s.register_query((0.5, 0.5)), QueryHandle)
            assert reg.counter(
                "service.admission_deferred", {"kind": "object"}
            ) == 1.0
            assert reg.counter(
                "service.admission_deferred", {"kind": "query"}
            ) == 1.0

    def test_cancel_frees_admission_slot(self):
        with make_session(max_pending_deltas=1) as s:
            s.join_object(0, (0.1, 0.1))
            assert isinstance(s.join_object(1, (0.2, 0.2)), AdmissionDeferred)
            s.leave_object(0)  # cancels the pending join
            assert s.join_object(1, (0.2, 0.2)) is None

    def test_moves_are_never_capped(self):
        with make_session(max_pending_deltas=2, k=2) as s:
            seed(s, n=2)
            s.tick()
            s.join_object(100, (0.5, 0.5))  # occupies an admission slot
            for _ in range(10):
                s.move_object(0, np.random.default_rng(1).random(2))
            ids, pos = s.population()
            s.update_positions(pos)  # bulk path equally uncapped
            assert s.pending_deltas == 1

    def test_invalid_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            make_session(max_pending_deltas=0)

    def test_deferred_delta_readmits_exactly_once(self):
        """A deferred join retried after tick() lands exactly once: it is
        answerable, double-retry is a first-class error (the object is
        live, not silently merged), and the second tick doesn't re-apply
        it."""
        reg = MetricsRegistry()
        with make_session(registry=reg, max_pending_deltas=2, k=1) as s:
            s.join_object(0, (0.1, 0.1))
            s.join_object(1, (0.9, 0.9))
            assert isinstance(s.join_object(2, (0.5, 0.5)), AdmissionDeferred)
            h = s.register_query((0.5, 0.5))
            assert isinstance(h, AdmissionDeferred)
            s.tick()
            assert s.join_object(2, (0.5, 0.5)) is None  # retry admits
            h = s.register_query((0.5, 0.5))
            assert isinstance(h, QueryHandle)
            ans = s.tick()
            assert ans[h].neighbors == ((2, 0.0),)
            assert s.n_live_objects == 3
            # Exactly once: the object is now live, so a second retry is
            # a duplicate-join error, and further ticks keep one copy.
            with pytest.raises(ConfigurationError):
                s.join_object(2, (0.5, 0.5))
            s.tick()
            assert s.n_live_objects == 3
            assert reg.counter(
                "service.admission_deferred", {"kind": "object"}
            ) == 1.0

    def test_deferred_delta_readmits_across_worker_respawn(self):
        """Backpressure + fault tolerance: a join deferred while the
        admission set was full must re-admit exactly once even when a
        sharded stripe worker is SIGKILLed (and respawned) in between."""
        import os
        import signal

        with MonitoringSession(
            "sharded",
            k=1,
            shards=2,
            workers=2,
            oversubscribe=True,
            max_pending_deltas=2,
        ) as s:
            s.join_object(0, (0.1, 0.1))
            s.join_object(1, (0.9, 0.9))
            assert isinstance(s.join_object(2, (0.5, 0.5)), AdmissionDeferred)
            s.tick()
            os.kill(s.engine.worker_pids()[0], signal.SIGKILL)
            assert s.join_object(2, (0.5, 0.5)) is None  # retry admits
            h = s.register_query((0.5, 0.5))
            ans = s.tick()  # pool respawns the stripe, then answers
            assert ans[h].neighbors == ((2, 0.0),)
            assert s.n_live_objects == 3
            with pytest.raises(ConfigurationError):
                s.join_object(2, (0.5, 0.5))
            s.tick()
            assert s.n_live_objects == 3


class TestPositions:
    def test_move_pending_join_updates_admission_point(self):
        with make_session() as s:
            seed(s)
            s.join_object(42, (0.1, 0.1))
            s.move_object(42, (0.6, 0.6))
            s.tick()
            ids, pos = s.population()
            row = int(np.flatnonzero(ids == 42)[0])
            assert tuple(pos[row]) == (0.6, 0.6)

    def test_update_positions_by_ids(self):
        with make_session() as s:
            seed(s, n=4)
            s.tick()
            s.update_positions([(0.5, 0.5), (0.6, 0.6)], object_ids=[2, 0])
            ids, pos = s.population()
            assert tuple(pos[ids == 2][0]) == (0.5, 0.5)
            assert tuple(pos[ids == 0][0]) == (0.6, 0.6)

    def test_update_positions_mixes_live_and_pending_ids(self):
        with make_session() as s:
            seed(s, n=4)
            s.tick()
            s.join_object(42, (0.1, 0.1))
            s.update_positions([(0.6, 0.6), (0.3, 0.7)], object_ids=[42, 2])
            s.tick()
            ids, pos = s.population()
            assert tuple(pos[ids == 42][0]) == (0.6, 0.6)
            assert tuple(pos[ids == 2][0]) == (0.3, 0.7)

    def test_last_move_wins(self):
        """Reports between two ticks coalesce: the snapshot holds the last."""
        with make_session() as s:
            seed(s, n=4)
            s.tick()
            s.move_object(1, (0.2, 0.2))
            s.move_object(1, (0.7, 0.3))
            s.update_positions([(0.4, 0.4)], object_ids=[2])
            s.update_positions([(0.9, 0.1)], object_ids=[2])
            s.tick()
            ids, pos = s.population()
            assert tuple(pos[ids == 1][0]) == (0.7, 0.3)
            assert tuple(pos[ids == 2][0]) == (0.9, 0.1)

    def test_update_positions_validates(self):
        with make_session() as s:
            seed(s, n=4)
            s.tick()
            with pytest.raises(ConfigurationError):
                s.update_positions(np.zeros((3, 2)))  # wrong count
            with pytest.raises(ConfigurationError):
                s.update_positions(np.zeros((1, 3)))  # wrong shape
            with pytest.raises(ConfigurationError):
                s.update_positions([(0.5, 0.5)], object_ids=[999])
            # An unknown id raises before a pending join's point is written.
            s.join_object(42, (0.1, 0.1))
            with pytest.raises(ConfigurationError):
                s.update_positions([(0.5, 0.5), (0.6, 0.6)], object_ids=[42, 999])
            s.tick()
            ids, pos = s.population()
            assert tuple(pos[ids == 42][0]) == (0.1, 0.1)


class TestInputBoundary:
    """Points are checked before anything is written, queued or recorded."""

    def test_far_object_is_rejected_at_join(self):
        """An object outside the square used to break the grid engines'
        ring-growth bound: clamped into an edge cell, it was answered at
        distance 2.03 ahead of a nearer object at 0.47."""
        rng = np.random.default_rng(7)
        with make_session(k=1) as s:
            points = rng.random((400, 2)) * [0.5, 1.0]
            for oid, point in enumerate(points.tolist()):
                s.join_object(oid, point)
            with pytest.raises(OutOfRegionError, match=r"\[0, 1\]\^2"):
                s.join_object(999, (3.0, 0.5))
            assert s.pending_deltas == 400
            h = s.register_query((0.97, 0.5))
            answer = s.tick()[h]
            (want,) = brute_force_knn(points, 0.97, 0.5, 1)
            assert answer.neighbors == (want,)

    @pytest.mark.parametrize(
        "point", [(-0.1, 0.5), (0.5, 1.5), (float("nan"), 0.5), (0.5, float("inf"))]
    )
    def test_bad_object_points_raise(self, point):
        with make_session() as s:
            seed(s, n=4)
            s.tick()
            with pytest.raises(OutOfRegionError):
                s.join_object(50, point)
            with pytest.raises(OutOfRegionError):
                s.move_object(1, point)
            assert not s.store.contains(50) and s.pending_deltas == 0

    def test_closed_edge_is_accepted(self):
        with make_session() as s:
            seed(s, n=4)
            s.join_object(9, (1.0, 1.0))
            s.move_object(0, (0.0, 1.0))
            s.tick()
            ids, pos = s.population()
            assert tuple(pos[ids == 9][0]) == (1.0, 1.0)

    def test_nan_update_leaves_positions_unchanged(self):
        with make_session() as s:
            seed(s, n=6)
            s.tick()
            _, before = s.population()
            bad = before.copy()
            bad[3, 1] = np.nan
            with pytest.raises(OutOfRegionError) as info:
                s.update_positions(bad)
            assert np.isnan(info.value.y)
            with pytest.raises(OutOfRegionError):
                s.update_positions([(0.5, 0.5), (1.5, 0.5)], object_ids=[0, 1])
            _, after = s.population()
            assert np.array_equal(before, after)

    def test_duplicate_ids_in_one_update_raise(self):
        """A repeated id raises before any write, pending joins included."""
        with make_session() as s:
            seed(s, n=6)
            s.tick()
            s.join_object(43, (0.2, 0.2))
            _, before = s.population()
            with pytest.raises(ConfigurationError, match="object 3 appears"):
                s.update_positions(
                    [(0.5, 0.5), (0.6, 0.6), (0.7, 0.7), (0.8, 0.8)],
                    object_ids=[43, 3, 0, 3],
                )
            _, after = s.population()
            assert np.array_equal(before, after)
            s.tick()
            ids, pos = s.population()
            assert tuple(pos[ids == 43][0]) == (0.2, 0.2)

    def test_queries_need_only_be_finite(self):
        with make_session() as s:
            seed(s, n=6)
            h = s.register_query((2.5, -1.0))
            with pytest.raises(OutOfRegionError, match="finite"):
                s.register_query((float("nan"), 0.5))
            assert s.pending_deltas == 7
            assert h in s.tick()

    def test_full_population_write_after_churn(self):
        """Vacant rows force the gathered write; rows are still matched."""
        with make_session() as s:
            seed(s, n=6)
            s.tick()
            s.leave_object(2)
            s.tick()
            ids, pos = s.population()
            s.update_positions(pos[::-1].copy())
            s.tick()
            ids_after, pos_after = s.population()
            assert np.array_equal(ids, ids_after)
            assert np.array_equal(pos_after, pos[::-1])


class TestConstruction:
    def test_typed_config_supplies_method(self):
        cfg = FastGridConfig(ncells=16)
        with MonitoringSession(k=2, config=cfg) as s:
            assert s.engine.__class__.__name__ == "FastGridEngine"
            assert s.engine._ncells == 16
            assert s.k == 2

    def test_dict_config_supplies_method(self):
        with MonitoringSession(
            k=2, config={"method": "fast_grid", "ncells": 16}
        ) as s:
            seed(s, n=5)
            h = s.register_query((0.5, 0.5))
            assert len(s.tick()[h].neighbors) == 2

    def test_method_required_somewhere(self):
        with pytest.raises(ConfigurationError):
            MonitoringSession(k=2)

    def test_preset_names_accepted(self):
        with MonitoringSession("object_incremental", k=2) as s:
            assert s.engine.__class__.__name__ == "ObjectIndexingEngine"


class TestTelemetry:
    def test_service_counters_and_gauges(self):
        reg = MetricsRegistry()
        with make_session(registry=reg) as s:
            seed(s, n=6)
            h = s.register_query((0.5, 0.5))
            s.tick()
            s.tick()  # churn-free cycle
            s.drop_query(h)
            s.leave_object(0)
            s.tick()
            c = reg.counter_values()
            assert c["service.cycles"] == 3.0
            assert c["service.churn_cycles"] == 2.0
            assert c["service.objects_joined"] == 6.0
            assert c["service.objects_left"] == 1.0
            assert c["service.queries_registered"] == 1.0
            assert c["service.queries_dropped"] == 1.0
            g = reg.gauge_values()
            assert g["service.live_objects"] == 5.0
            assert g["service.active_queries"] == 0.0
            assert g["service.pending_deltas"] == 0.0

    def test_incremental_engines_avoid_churn_rebuilds(self):
        """The point of the delta hooks: member-mode engines absorb churn
        without a pipeline-level rebuild cycle."""
        reg = MetricsRegistry()
        with make_session("fast_grid", registry=reg) as s:
            seed(s, n=20)
            s.register_query((0.5, 0.5))
            s.tick()
            s.join_object(100, (0.3, 0.3))
            s.leave_object(0)
            s.tick()
            assert reg.counter("cycle.churn_rebuilds") == 0.0

    def test_fallback_engines_count_churn_rebuilds(self):
        reg = MetricsRegistry()
        with make_session("object_indexing", registry=reg) as s:
            seed(s, n=20)
            s.register_query((0.5, 0.5))
            s.tick()
            s.join_object(100, (0.3, 0.3))
            s.tick()
            assert reg.counter("cycle.churn_rebuilds") == 1.0


class TestResourceManagement:
    def test_close_is_idempotent(self):
        s = make_session()
        s.close()
        s.close()

    def test_context_manager_closes_worker_pool(self):
        with MonitoringSession("sharded", k=2, shards=2, workers=2) as s:
            seed(s, n=8)
            h = s.register_query((0.5, 0.5))
            assert len(s.tick()[h].neighbors) == 2
            pids = s.engine.worker_pids()
        import os, errno

        for pid in pids:
            try:
                os.kill(pid, 0)
                alive = True
            except OSError as exc:
                alive = exc.errno == errno.EPERM  # exists, other owner
            assert not alive, f"worker {pid} survived close()"


def _wrong_answers(session, answers):
    """Queries whose session answer differs from brute force, ties included."""
    ids, points = session.population()
    wrong = 0
    for handle, (qx, qy) in zip(session.handles(), session.query_points()):
        want = tuple(
            (int(ids[i]), dist)
            for i, dist in brute_force_knn(points, qx, qy, session.k)
        )
        wrong += answers[handle].neighbors != want
    return wrong


class TestFailedTick:
    """A tick that raises loses its own answers, never the next tick's."""

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_failed_rebuild_is_retried(self, method, monkeypatch):
        options = {"workers": 0} if method == "sharded" else {}
        rng = np.random.default_rng(21)
        with MonitoringSession(method, k=5, **options) as s:
            for oid, point in enumerate(rng.random((2000, 2))):
                s.join_object(oid, point)
            handles = [s.register_query(q) for q in rng.random((30, 2))]
            s.tick()
            for oid in range(50):
                s.leave_object(oid)
            for oid in range(2000, 2050):
                s.join_object(oid, rng.random(2))
            for handle in handles[:5]:
                s.drop_query(handle)
            for point in rng.random((5, 2)):
                s.register_query(point)
            # Engines with incremental churn hooks would not rebuild for
            # this batch; ask for it so every engine takes the load path.
            s.engine.request_rebuild()

            def load_fails_once(world):
                monkeypatch.undo()
                raise RuntimeError("injected load fault")

            monkeypatch.setattr(s.engine, "load", load_fails_once)
            with pytest.raises(RuntimeError, match="injected"):
                s.tick()
            assert s.pending_deltas == 0  # the admission was kept
            for _ in range(3):
                ids, points = s.population()
                moved = np.clip(points + rng.normal(0, 0.005, points.shape), 0, 1)
                s.update_positions(moved, ids)
                assert _wrong_answers(s, s.tick()) == 0
