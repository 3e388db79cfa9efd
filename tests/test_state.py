"""World-state plane: epoch discipline, immutability, and zero-copy.

The :class:`~repro.state.WorldStore` is the single owner of world state;
everything downstream — session, pipeline, engines — shares its
published snapshots zero-copy.  Its staging epoch is the
paper's report buffer ``OBJ_curr``; ``publish()`` takes ``OBJ_snapshot``.  These tests pin
down the contracts that make that safe:

* a published :class:`~repro.state.WorldSnapshot` is immutable — writing
  through it raises;
* ``publish()`` bumps the epoch monotonically, and an unchanged world
  republishes the *same* snapshot object;
* the double-buffer carry-forward keeps sparse writers correct across
  epochs while full-motion steady state syncs nothing;
* a 100-cycle mixed-churn run through the store stays bit-identical to
  a fresh-engine oracle;
* a steady-state cycle performs zero full position-array copies between
  store -> session -> pipeline -> engine, asserted via the ``state.*``
  counters.
"""

import numpy as np
import pytest

from repro import build_system
from repro.errors import OutOfRegionError
from repro.obs.registry import MetricsRegistry
from repro.service import MonitoringSession
from repro.state import WorldSnapshot, WorldStore, as_world_snapshot
from tests.test_churn import K, _lattice, _lattice_walk, drive_churn


class TestSnapshotImmutability:
    def test_writing_through_snapshot_raises(self):
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4]]))
        snap = store.publish()
        with pytest.raises(ValueError):
            snap.positions[0, 0] = 0.9
        with pytest.raises(ValueError):
            np.asarray(snap)[1] = (0.5, 0.5)

    def test_buffer_snapshot_is_immutable(self):
        """Reports staged with ``write_rows`` reach readers only through
        the published snapshot, which is frozen."""
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4]]))
        store.write_rows(np.array([1]), np.array([[0.5, 0.6]]))
        snap = store.packed(store.publish())
        assert snap.positions.tolist() == [[0.1, 0.2], [0.5, 0.6]]
        with pytest.raises(ValueError):
            snap.positions[0, 0] = 0.9

    def test_snapshot_queries_are_immutable(self):
        store = WorldStore(np.array([[0.1, 0.2]]))
        store.set_queries(np.array([[0.5, 0.5]]))
        snap = store.publish()
        with pytest.raises(ValueError):
            snap.queries[0, 0] = 0.0

    def test_anonymous_shim_does_not_freeze_caller_array(self):
        raw = np.array([[0.1, 0.2], [0.3, 0.4]])
        world = as_world_snapshot(raw)
        assert world.epoch is None
        with pytest.raises(ValueError):
            world.positions[0, 0] = 0.9
        raw[0, 0] = 0.9  # the caller's own array stays writable
        assert raw[0, 0] == 0.9

    def test_snapshot_passthrough(self):
        store = WorldStore(np.array([[0.1, 0.2]]))
        snap = store.publish()
        assert as_world_snapshot(snap) is snap


class TestRawArrayRegionCheck:
    """Raw position arrays meet the session's region check at the pipeline.

    An object far outside the square clamps into the edge cell of the
    query's home cell and stops ring growth, so ``fast_grid`` would answer
    it (object 99 at distance 4.05) instead of object 55 at 0.486; a NaN
    row would reach the grid's counting sort.
    """

    @staticmethod
    def probe():
        rng = np.random.default_rng(0)
        positions = np.column_stack((0.45 * rng.random(100), rng.random(100)))
        positions[55] = [0.464, 0.55]
        positions[99] = [5.0, 0.55]
        return positions

    @pytest.mark.parametrize(
        "method,options",
        [("fast_grid", {"ncells": 10})],
        ids=["fast_grid"],
    )
    @pytest.mark.parametrize("bad", ["far", "nan"])
    def test_out_of_region_rows_raise_before_any_engine_runs(
        self, method, options, bad
    ):
        positions = self.probe()
        queries = np.array([[0.95, 0.55]])
        system = build_system(method, 1, queries, **options)
        try:
            good = positions.copy()
            good[99] = [0.1, 0.1]
            (answer,) = system.load(good)
            assert answer.neighbors[0][0] == 55
            if bad == "nan":
                positions[99] = [np.nan, 0.55]
            with pytest.raises(OutOfRegionError):
                system.tick(positions)
            with pytest.raises(OutOfRegionError):
                system.load(positions)
        finally:
            system.close()

    def test_published_snapshots_skip_the_check(self):
        snap = WorldStore(np.array([[0.1, 0.2]])).publish()
        assert (snap.positions == -1.0).any()  # vacant rows
        assert as_world_snapshot(snap) is snap
        with pytest.raises(OutOfRegionError):
            as_world_snapshot(snap.positions.copy())


class TestEpochDiscipline:
    def test_publish_bumps_epoch_monotonically(self):
        store = WorldStore(capacity=8)
        epochs = []
        for i in range(5):
            store.write_row(0, 0.1 * (i + 1), 0.2)
            epochs.append(store.publish().epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == 5
        assert all(b - a == 1 for a, b in zip(epochs, epochs[1:]))

    def test_unchanged_world_republishes_same_snapshot(self):
        store = WorldStore(np.array([[0.1, 0.2]]))
        first = store.publish()
        again = store.publish()
        assert again is first
        assert again.epoch == first.epoch

    def test_old_snapshots_stay_frozen_at_their_epoch(self):
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4]]))
        old = store.publish()
        before = np.asarray(old).copy()
        for i in range(3):  # flip repeatedly; buffers alternate
            store.write_row(0, 0.5 + 0.1 * i, 0.5)
            store.publish()
        # The epoch the caller holds is only safe for ONE flip (its
        # buffer becomes staging on the next), which is exactly the
        # history depth any consumer keeps.  Check the single-flip case:
        store2 = WorldStore(np.array([[0.1, 0.2]]))
        held = store2.publish()
        content = np.asarray(held).copy()
        store2.write_row(0, 0.9, 0.9)
        store2.publish()  # held's buffer is now staging but unwritten rows persist
        np.testing.assert_array_equal(np.asarray(held)[1:], content[1:])
        assert old.epoch < store.epoch and before is not None

    def test_structural_realloc_preserves_held_snapshots(self):
        store = WorldStore(capacity=64)
        delta = store.admit({i: (i / 100.0, 0.5) for i in range(60)}, [],
                            member_mode=False)
        assert len(delta.joined) == 60
        held = store.publish()
        content = np.asarray(held).copy()
        # Force capacity growth: the buffer pair is retired, not reused.
        store.admit({100 + i: (0.9, 0.9) for i in range(10)}, [],
                    member_mode=False)
        store.publish()
        assert store.capacity > 64
        np.testing.assert_array_equal(np.asarray(held), content)


class TestCarryForward:
    def test_sparse_writers_match_dict_oracle(self):
        """Disjoint row subsets written across many epochs: every
        published snapshot must equal a naively-maintained oracle."""
        rng = np.random.default_rng(7)
        n = 32
        store = WorldStore(_lattice(rng, n))
        oracle = dict(enumerate(np.asarray(store.publish())[:n].copy()))
        for _ in range(50):
            rows = rng.choice(n, size=int(rng.integers(0, 6)), replace=False)
            for row in rows:
                x, y = rng.random(2)
                store.write_row(int(row), x, y)
                oracle[int(row)] = (x, y)
            snap = np.asarray(store.publish())
            for row in range(n):
                assert tuple(snap[row]) == tuple(np.asarray(oracle[row])), row

    def test_full_motion_steady_state_syncs_nothing(self):
        rng = np.random.default_rng(8)
        reg = MetricsRegistry()
        n = 20
        store = WorldStore(_lattice(rng, n), registry=reg)
        rows = np.arange(n, dtype=np.intp)
        store.write_rows(rows, _lattice(rng, n))
        store.publish()
        base = reg.counter("state.synced_rows")
        for _ in range(10):  # every row written every epoch -> O(1) flips
            store.write_rows(rows, _lattice(rng, n))
            store.publish()
        assert reg.counter("state.synced_rows") == base


class TestPacked:
    def test_packed_without_holes_is_a_view_with_epoch(self):
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4]]))
        snap = store.publish()
        packed = store.packed(snap)
        assert packed.epoch == snap.epoch
        assert np.shares_memory(packed.positions, snap.positions)
        assert store.full_copies == 0

    def test_packed_with_holes_is_a_counted_anonymous_gather(self):
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
        store.admit({}, [1], member_mode=False)
        packed = store.packed(store.publish())
        assert packed.epoch is None  # new memory every call: never cacheable
        np.testing.assert_array_equal(
            np.asarray(packed), [[0.1, 0.2], [0.5, 0.6]]
        )
        assert store.full_copies == 1


@pytest.mark.parametrize("method", ["object_indexing", "fast_grid"])
def test_store_churn_bit_identical_100_cycles(method):
    """100 cycles of mixed churn through the store match the fresh-engine
    oracle bit for bit (ids, order, and float64 distances)."""
    drive_churn(method, cycles=100)


class TestZeroCopySteadyState:
    @pytest.mark.parametrize("method", ["fast_grid", "object_indexing"])
    def test_no_full_copies_per_cycle(self, method):
        """The acceptance criterion: a steady-state (no-churn) cycle does
        zero full position-array copies buffer -> session -> pipeline ->
        engine, visible in ``state.copies_per_cycle``."""
        rng = np.random.default_rng(11)
        reg = MetricsRegistry()
        with MonitoringSession(method, k=K, registry=reg) as session:
            for oid in range(40):
                session.join_object(oid, _lattice(rng, 1)[0])
            for xy in _lattice(rng, 4):
                session.register_query(xy)
            session.tick()
            synced_base = reg.counter("state.synced_rows")
            for _ in range(10):
                _, pos = session.population()
                session.update_positions(_lattice_walk(rng, pos))
                session.tick()
                assert reg.gauge("state.copies_per_cycle") == 0.0
            assert session.store.full_copies == 0
            # Full motion writes every live row every epoch, so the
            # double-buffer flip carries nothing forward either.
            assert reg.counter("state.synced_rows") == synced_base
            assert reg.gauge("state.epoch") == session.store.epoch > 0

    def test_buffer_snapshot_shares_store_memory(self):
        store = WorldStore(np.array([[0.1, 0.2], [0.3, 0.4]]))
        store.write_rows(np.array([0]), np.array([[0.5, 0.5]]))
        a = store.packed(store.publish())
        b = store.packed(store.publish())
        assert a.epoch == b.epoch
        assert np.shares_memory(a.positions, b.positions)
        assert store.full_copies == 0
