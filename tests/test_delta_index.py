"""The CSR grid as the sharded engine keeps it: updated every cycle.

Each stripe task holds one :class:`~repro.core.fast_index.CSRGrid` per
stripe and rebuilds it in place on every cycle, over a member subset of
a position array that the parent rewrites in place.  These walks check
that grid against brute force.
"""

import numpy as np
import pytest

from repro import build_system
from repro.core import fast_index
from repro.core.brute import brute_force_knn
from repro.core.fast_index import CSRGrid, batch_knn
from repro.errors import ConfigurationError
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


def canonical_rows(result, places=12):
    """:func:`canonical` of one :func:`batch_knn` result."""
    return [
        [(round(float(np.sqrt(d2)), places), int(i)) for d2, i in zip(d2s, ids)]
        for d2s, ids in zip(result.top_d2, result.top_ids)
    ]


def brute_rows(positions, queries, k, places=12):
    return [
        [(round(dist, places), i) for i, dist in brute_force_knn(positions, qx, qy, k)]
        for qx, qy in queries
    ]


def unit_grid(positions, ncells):
    """A grid over the unit square holding every row of ``positions``."""
    return CSRGrid(positions, ncells, member_idx=np.arange(len(positions)))


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
    """CSRGrid updated every cycle + batch_knn == fast_grid == brute_force.

    The 50-cycle walk has 25 cycles of fast reflecting-boundary motion
    (every object moves) and 25 where only ~1% of objects move.  The
    query set is swapped mid-run.
    """

    N, NQ, K, SWAP_AT = 400, 25, 6, 30

    @pytest.fixture(scope="class")
    def snapshots(self):
        rng = np.random.default_rng(42)
        # Sitters on the boundaries of the 10- and 20-cell grids.
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

    def _grid_walk(self, snapshots, queries, ncells=10):
        """Answers of one grid updated in place over the walk."""
        grid = unit_grid(snapshots[0], ncells)
        trace = []
        for cycle, positions in enumerate(snapshots):
            if cycle:
                grid.update(positions, np.arange(len(positions)))
            q = queries[0] if cycle < self.SWAP_AT else queries[1]
            trace.append(canonical_rows(batch_knn(grid, q[:, 0], q[:, 1], self.K)))
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

    @pytest.mark.parametrize(
        "ncells",
        [
            pytest.param(5, id="coarse-grid"),
            pytest.param(10, id="default-grid"),
            pytest.param(31, id="fine-grid"),
        ],
    )
    def test_grid_variants_match(self, reference, snapshots, queries, ncells):
        assert self._grid_walk(snapshots, queries, ncells) == reference

    def test_argsort_fallback_matches(
        self, reference, snapshots, queries, monkeypatch
    ):
        # Force the fallback grouping path so both grouping
        # implementations face the full walk wherever scipy is installed.
        monkeypatch.setattr(fast_index, "_USE_SCIPY", False)
        assert self._grid_walk(snapshots, queries) == reference


class TestGridInternals:
    def test_membership_churn_matches_fresh_grid(self):
        # Simulates the sharded stripes: the member set changes between
        # updates, and the updated grid must answer exactly like a grid
        # built from scratch over the new members.
        rng = np.random.default_rng(11)
        n = 3000
        positions = rng.random((n, 2))
        stripe = dict(region=(0.0, 0.0, 0.5, 1.0))
        members = np.flatnonzero(positions[:, 0] < 0.5)
        grid = CSRGrid(positions, 8, 16, member_idx=members, **stripe)
        for _ in range(10):
            positions = positions.copy()
            movers = rng.choice(n, 200, replace=False)
            positions[movers] = rng.random((200, 2))
            members = np.flatnonzero(positions[:, 0] < 0.5)
            grid.update(positions, members)
            assert grid.n_objects == len(members)
            fresh = CSRGrid(positions, 8, 16, member_idx=members, **stripe)
            qx = rng.random(10) * 0.5
            qy = rng.random(10)
            got = batch_knn(grid, qx, qy, 4)
            want = batch_knn(fresh, qx, qy, 4)
            np.testing.assert_array_equal(got.top_ids, want.top_ids)
            np.testing.assert_array_equal(got.top_d2, want.top_d2)

    def test_in_place_mutation_stays_exact(self):
        # The stripe tasks' snapshot is a shared-memory buffer that the
        # parent rewrites in place before each update.
        rng = np.random.default_rng(13)
        positions = rng.random((1000, 2))
        grid = unit_grid(positions, 10)
        for _ in range(3):
            positions[rng.choice(1000, 10, replace=False)] = rng.random((10, 2))
            grid.update(positions, np.arange(1000))
            queries = rng.random((8, 2))
            got = batch_knn(grid, queries[:, 0], queries[:, 1], 5)
            assert canonical_rows(got) == brute_rows(positions, queries, 5)

    def test_population_resize_rebuilds(self):
        rng = np.random.default_rng(17)
        grid = unit_grid(rng.random((100, 2)), 4)
        positions = rng.random((250, 2))
        grid.update(positions, np.arange(250))
        assert grid.n_objects == 250
        queries = rng.random((6, 2))
        got = batch_knn(grid, queries[:, 0], queries[:, 1], 7)
        assert canonical_rows(got) == brute_rows(positions, queries, 7)


class TestContracts:
    def test_not_enough_objects(self):
        # The sharded merge relies on a short stripe padding its answer.
        positions = np.random.default_rng(0).random((3, 2))
        result = batch_knn(unit_grid(positions, 2), [0.5], [0.5], 5)
        assert sorted(result.top_ids[0, :3].tolist()) == [0, 1, 2]
        assert result.top_ids[0, 3:].tolist() == [-1, -1]
        assert np.isinf(result.top_d2[0, 3:]).all()

    def test_no_queries(self):
        grid = unit_grid(np.random.default_rng(0).random((10, 2)), 3)
        result = batch_knn(grid, np.empty(0), np.empty(0), 2)
        assert result.top_ids.shape == (0, 2)

    def test_rejects_bad_options(self):
        positions = np.random.default_rng(0).random((4, 2))
        with pytest.raises(ConfigurationError):
            CSRGrid(np.zeros((4, 3)), 4)
        with pytest.raises(ConfigurationError):
            CSRGrid(positions, 0, 4)
        with pytest.raises(ConfigurationError):
            CSRGrid(positions, 4, region=(0.5, 0.0, 0.5, 1.0))
