"""Delta-CSR engine: bit-identical equivalence, reuse soundness, patching."""

import numpy as np
import pytest

from repro import MetricsRegistry, build_system
from repro.core import delta_index
from repro.core.delta_index import DeltaCSRGrid, DeltaGridEngine
from repro.core.fast_index import batch_knn
from repro.errors import (
    ConfigurationError,
    IndexStateError,
    NotEnoughObjectsError,
)
from repro.motion.random_walk import RandomWalkModel


def canonical(query_answers, places=12):
    """Rounded (distance, id) lists per query — exact across engines.

    Distances are rounded because the brute-force oracle stores
    ``sqrt(d2)`` and re-squares, which differs from the grid engines'
    direct ``d2`` in the final ulp.
    """
    return [
        [(round(dist, places), object_id) for object_id, dist in answer.neighbors]
        for answer in query_answers
    ]


def sitter_dataset(rng, n, ncells):
    """Positions with objects exactly on cell boundaries, duplicate
    coordinates (distance ties -> ID tie-breaks), and the corners."""
    positions = rng.random((n, 2))
    edges = np.arange(1, ncells) / ncells
    m = min(n // 4, 4 * len(edges))
    positions[:m, 0] = np.resize(edges, m)
    positions[m : 2 * m, 1] = np.resize(edges, m)
    positions[n // 2 : n // 2 + n // 4] = positions[: n // 4]
    positions[-1] = [1.0, 1.0]
    positions[-2] = [0.0, 0.0]
    return positions


class TestEquivalence:
    """delta_grid == fast_grid == brute_force, bit for bit, 50+ cycles.

    The walk covers both maintenance regimes: 25 cycles of fast
    reflecting-boundary motion (every object moves -> rebuild regime),
    then 25 cycles where only ~1% of objects move (patch regime + answer
    reuse).  The query set is swapped mid-run.
    """

    N, NQ, K, SWAP_AT = 400, 25, 6, 30

    @pytest.fixture(scope="class")
    def snapshots(self):
        rng = np.random.default_rng(42)
        # Sitters on the boundaries of both the delta engine's default
        # grid (10 cells/side at N=400) and fast_grid's (20 cells/side).
        current = sitter_dataset(rng, self.N, 20)
        snaps = [current]
        fast = RandomWalkModel(vmax=0.2, boundary="reflect", seed=1)
        for _ in range(25):
            current = fast.step(current)
            snaps.append(current)
        slow = RandomWalkModel(
            vmax=0.05, boundary="reflect", seed=2, update_fraction=0.01
        )
        for _ in range(25):
            current = slow.step(current)
            snaps.append(current)
        return snaps

    @pytest.fixture(scope="class")
    def queries(self):
        rng = np.random.default_rng(43)
        first = rng.random((self.NQ, 2))
        first[0] = [0.5, 0.5]     # exactly on a cell corner in both grids
        first[1] = [0.1, 0.9]
        second = rng.random((self.NQ, 2))
        return first, second

    def _walk(self, build_system, snapshots, queries):
        system = build_system(self.K, queries[0])
        try:
            trace = [canonical(system.load(snapshots[0]))]
            for cycle, positions in enumerate(snapshots[1:], start=1):
                if cycle == self.SWAP_AT:
                    system.set_queries(queries[1])
                trace.append(canonical(system.tick(positions)))
        finally:
            system.close()
        return trace

    @pytest.fixture(scope="class")
    def reference(self, snapshots, queries):
        return self._walk(
            lambda k, q: build_system("brute_force", k, q), snapshots, queries
        )

    def test_fast_grid_matches_brute_force(self, reference, snapshots, queries):
        trace = self._walk(
            lambda k, q: build_system("fast_grid", k, q), snapshots, queries
        )
        assert trace == reference

    def test_delta_grid_matches_and_covers_both_regimes(
        self, reference, snapshots, queries
    ):
        registry = MetricsRegistry()
        trace = self._walk(
            lambda k, q: build_system("delta_grid", k, q, registry=registry),
            snapshots,
            queries,
        )
        assert trace == reference
        # The walk must actually exercise what it claims to exercise.
        assert registry.counter("delta.rebuild_cycles") > 0
        assert registry.counter("delta.patch_cycles") > 0
        assert registry.counter("delta.queries_reused") > 0
        assert registry.counter("delta.queries_reanswered") > 0

    @pytest.mark.parametrize(
        "label,options",
        [
            ("no-reuse", {"reuse": False}),
            ("patch-forced", {"patch_threshold": 1.0}),
            ("rebuild-forced", {"patch_threshold": 0.0}),
            ("coarse-grid", {"ncells": 5}),
            ("fine-grid", {"ncells": 31}),
        ],
    )
    def test_delta_grid_variants_match(
        self, reference, snapshots, queries, label, options
    ):
        trace = self._walk(
            lambda k, q: build_system("delta_grid", k, q, **options),
            snapshots,
            queries,
        )
        assert trace == reference

    def test_argsort_fallback_matches(
        self, reference, snapshots, queries, monkeypatch
    ):
        # CI has no scipy; locally, force the fallback grouping path so
        # both grouping implementations face the full walk.
        monkeypatch.setattr(delta_index, "_USE_SCIPY", False)
        trace = self._walk(
            lambda k, q: build_system("delta_grid", k, q), snapshots, queries
        )
        assert trace == reference


class TestCompaction:
    def test_overflowing_slack_compacts_and_stays_exact(self):
        rng = np.random.default_rng(5)
        positions = rng.random((500, 2))
        queries = rng.random((12, 2))
        registry = MetricsRegistry()
        system = build_system(
            "delta_grid", 4, queries, slack=0.01, patch_threshold=1.0, registry=registry
        )
        oracle = build_system("brute_force", 4, queries)
        assert canonical(system.load(positions)) == canonical(
            oracle.load(positions)
        )
        walk = RandomWalkModel(vmax=0.02, boundary="reflect", seed=6)
        for positions in walk.run(positions, 30):
            assert canonical(system.tick(positions)) == canonical(
                oracle.tick(positions)
            )
        assert system.engine.grid.compactions > 0
        assert registry.counter("delta.compactions") > 0


class TestAnswerReuse:
    def test_reused_answers_are_previous_answers(self):
        rng = np.random.default_rng(8)
        positions = rng.random((2000, 2))
        queries = rng.random((40, 2))
        system = build_system("delta_grid", 6, queries)
        oracle = build_system("brute_force", 6, queries)
        previous = canonical(system.load(positions))
        oracle.load(positions)
        reused_total = 0
        for _ in range(20):
            positions = positions.copy()
            movers = rng.choice(2000, 5, replace=False)
            positions[movers] = rng.random((5, 2))
            got = canonical(system.tick(positions))
            assert got == canonical(oracle.tick(positions))
            mask = system.engine.last_reuse_mask
            for q in np.flatnonzero(mask):
                assert got[q] == previous[q]
            reused_total += int(mask.sum())
            previous = got
        assert reused_total > 0

    def test_knife_edge_mover_into_rect_border_is_detected(self):
        # A cluster far from the query fixes a large k-th distance; an
        # object teleporting right next to the query must evict a
        # neighbor even though most of the grid is untouched.
        queries = np.array([[0.05, 0.05]])
        positions = np.vstack([
            np.column_stack([
                np.linspace(0.3, 0.4, 6), np.full(6, 0.05)
            ]),
            np.random.default_rng(3).random((500, 2)) * 0.2 + [0.7, 0.7],
        ])
        system = build_system("delta_grid", 3, queries)
        oracle = build_system("brute_force", 3, queries)
        system.load(positions)
        oracle.load(positions)
        moved = positions.copy()
        moved[-1] = [0.051, 0.05]   # lands inside the critical rectangle
        assert canonical(system.tick(moved)) == canonical(oracle.tick(moved))


class TestGridInternals:
    def test_membership_churn_matches_fresh_grid(self):
        # Simulates the sharded stripes: the member set changes between
        # updates, and the patched grid must answer exactly like a grid
        # built from scratch over the new members.
        rng = np.random.default_rng(11)
        n = 3000
        positions = rng.random((n, 2))
        members = np.flatnonzero(positions[:, 0] < 0.5)
        grid = DeltaCSRGrid(
            positions,
            region=(0.0, 0.0, 0.5, 1.0),
            nx=8,
            ny=16,
            track_dirty=False,
            member_idx=members,
        )
        for _ in range(10):
            positions = positions.copy()
            movers = rng.choice(n, 200, replace=False)
            positions[movers] = rng.random((200, 2))
            members = np.flatnonzero(positions[:, 0] < 0.5)
            grid.update(positions, member_idx=members)
            assert grid.n_objects == len(members)
            fresh = DeltaCSRGrid(
                positions,
                region=(0.0, 0.0, 0.5, 1.0),
                nx=8,
                ny=16,
                track_dirty=False,
                member_idx=members,
            )
            qx = rng.random(10) * 0.5
            qy = rng.random(10)
            got = batch_knn(grid, qx, qy, 4)
            want = batch_knn(fresh, qx, qy, 4)
            np.testing.assert_array_equal(got.top_ids, want.top_ids)
            np.testing.assert_array_equal(got.top_d2, want.top_d2)

    def test_in_place_mutation_disables_reuse_but_stays_exact(self):
        rng = np.random.default_rng(13)
        positions = rng.random((1000, 2))
        grid = DeltaCSRGrid(positions, 10)
        positions[rng.choice(1000, 10, replace=False)] = rng.random((10, 2))
        stats = grid.update(positions)   # same array object, mutated
        assert stats.dirty_all
        fresh = DeltaCSRGrid(positions.copy(), 10)
        qx, qy = rng.random(8), rng.random(8)
        got = batch_knn(grid, qx, qy, 5)
        want = batch_knn(fresh, qx, qy, 5)
        np.testing.assert_array_equal(got.top_ids, want.top_ids)

    def test_population_resize_rebuilds(self):
        rng = np.random.default_rng(17)
        grid = DeltaCSRGrid(rng.random((100, 2)), 4)
        stats = grid.update(rng.random((250, 2)))
        assert stats.mode == "rebuild"
        assert grid.n_objects == 250


class TestContracts:
    def test_not_enough_objects(self):
        engine = DeltaGridEngine(5, np.array([[0.5, 0.5]]))
        engine.load(np.random.default_rng(0).random((3, 2)))
        with pytest.raises(NotEnoughObjectsError):
            engine.answer()

    def test_answer_before_load(self):
        engine = DeltaGridEngine(2, np.array([[0.5, 0.5]]))
        with pytest.raises(IndexStateError):
            engine.answer()

    def test_no_queries(self):
        engine = DeltaGridEngine(2, np.empty((0, 2)))
        engine.load(np.random.default_rng(0).random((10, 2)))
        assert engine.answer() == []

    def test_rejects_bad_options(self):
        queries = np.array([[0.5, 0.5]])
        with pytest.raises(ConfigurationError):
            build_system("delta_grid", 2, queries, ncell=8)
        with pytest.raises(ConfigurationError):
            # ncells and delta are mutually exclusive; resolved at build.
            build_system("delta_grid", 2, queries, ncells=8, delta=0.1).load(
                np.random.default_rng(0).random((10, 2))
            )
        with pytest.raises(ConfigurationError):
            DeltaCSRGrid(np.zeros((4, 3)), 4)

    def test_engine_name_and_registry_entry(self):
        system = build_system("delta_grid", 2, np.array([[0.5, 0.5]]))
        assert system.engine.name == "delta-grid"
