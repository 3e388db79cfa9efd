"""Cross-backend equivalence of the SnapshotIndex protocol.

Every workload operator in :mod:`repro.engines.snapshot` must return
*identical* answers — including lowest-ID resolution of exact duplicate
distances — whether the snapshot is held by the Grid2D-backed
:class:`~repro.core.object_index.ObjectIndex` or the vectorized
:class:`~repro.core.fast_index.CSRGrid`.
"""

import math

import numpy as np
import pytest

from repro.core.brute import brute_force_knn
from repro.core.gnn import GNNMonitor, brute_force_group_knn
from repro.core.knn_join import KNNJoinMonitor, brute_force_knn_join
from repro.core.range_monitor import (
    CircleRegion,
    RangeMonitor,
    RectRegion,
    brute_force_range,
)
from repro.core.rknn import RKNNMonitor, brute_force_rknn
from repro.core.self_join import SelfJoinMonitor
from repro.engines.snapshot import (
    SNAPSHOT_BACKENDS,
    make_snapshot,
    snapshot_knn,
    snapshot_knn_seeded,
    snapshot_range,
)
from repro.errors import ConfigurationError

BACKENDS = list(SNAPSHOT_BACKENDS)


def tie_heavy_positions(rng, n):
    """Random positions with duplicated coordinates (forcing exact
    duplicate distances, hence ID tie-breaks) and corner extremes."""
    positions = rng.random((n, 2))
    positions[n // 2 : n // 2 + n // 4] = positions[: n // 4]
    positions[0] = [0.5, 0.5]
    positions[1] = [0.5, 0.5]
    positions[-1] = [1.0, 1.0]
    positions[-2] = [0.0, 0.0]
    return positions


def canonical(answer):
    """(squared distance, id) pairs of an AnswerList — exact comparison."""
    return [(d2, object_id) for d2, object_id in answer]


REGIONS = [
    RectRegion(0.1, 0.1, 0.4, 0.6),
    RectRegion(0.0, 0.0, 1.0, 1.0),
    CircleRegion(0.5, 0.5, 0.2),
    CircleRegion(0.95, 0.05, 0.3),
    RectRegion(0.3, 0.3, 0.3, 0.3),  # degenerate: a single point
]


class TestProtocolPrimitives:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_snapshot(np.zeros((4, 2)), "nope")

    def test_backends_agree_on_geometry(self):
        rng = np.random.default_rng(11)
        positions = tie_heavy_positions(rng, 200)
        a = make_snapshot(positions, "object_index")
        b = make_snapshot(positions, "csr")
        assert a.ncells == b.ncells
        assert a.delta == pytest.approx(b.delta)
        assert a.n_objects == b.n_objects == 200

    def test_count_and_gather_agree(self):
        rng = np.random.default_rng(12)
        positions = tie_heavy_positions(rng, 300)
        a = make_snapshot(positions, "object_index")
        b = make_snapshot(positions, "csr")
        n = a.ncells
        rects = [(0, 0, n - 1, n - 1)]
        for _ in range(25):
            ilo, jlo = rng.integers(0, n, 2)
            ihi = int(rng.integers(ilo, n))
            jhi = int(rng.integers(jlo, n))
            rects.append((int(ilo), int(jlo), ihi, jhi))
        for ilo, jlo, ihi, jhi in rects:
            count_a = a.count_in_cells(ilo, jlo, ihi, jhi)
            count_b = b.count_in_cells(ilo, jlo, ihi, jhi)
            ids_a, xs_a, ys_a = a.gather_cells(ilo, jlo, ihi, jhi)
            ids_b, xs_b, ys_b = b.gather_cells(ilo, jlo, ihi, jhi)
            assert count_a == count_b == len(ids_a) == len(ids_b)
            assert sorted(ids_a) == sorted(ids_b)
            # Gathered coordinates are the snapshot coordinates, exactly.
            for ids, xs, ys in ((ids_a, xs_a, ys_a), (ids_b, xs_b, ys_b)):
                for object_id, x, y in zip(ids, xs, ys):
                    assert x == positions[object_id, 0]
                    assert y == positions[object_id, 1]

    def test_locate_and_position_of_agree(self):
        rng = np.random.default_rng(13)
        positions = tie_heavy_positions(rng, 150)
        a = make_snapshot(positions, "object_index")
        b = make_snapshot(positions, "csr")
        for x, y in [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.999999, 0.000001)]:
            assert a.locate(x, y) == b.locate(x, y)
        for object_id in range(len(positions)):
            assert a.position_of(object_id) == b.position_of(object_id)


class TestSnapshotKNN:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_brute_force(self, backend):
        rng = np.random.default_rng(21)
        positions = rng.random((250, 2))
        index = make_snapshot(positions, backend)
        for qx, qy in rng.random((15, 2)):
            answer = snapshot_knn(index, float(qx), float(qy), 7)
            expected = brute_force_knn(positions, float(qx), float(qy), 7)
            assert answer.object_ids() == [oid for oid, _ in expected]
            for (d2, _), (_, dist) in zip(answer, expected):
                assert math.sqrt(d2) == pytest.approx(dist)

    def test_backends_identical_including_duplicate_distances(self):
        rng = np.random.default_rng(22)
        positions = tie_heavy_positions(rng, 320)
        a = make_snapshot(positions, "object_index")
        b = make_snapshot(positions, "csr")
        # Probe at duplicated object positions so several candidates tie
        # at exactly equal squared distances (identical float coords).
        probes = [tuple(positions[i]) for i in range(0, 80, 5)]
        probes += [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0)]
        for k in (1, 3, 10):
            for qx, qy in probes:
                left = snapshot_knn(a, qx, qy, k)
                right = snapshot_knn(b, qx, qy, k)
                assert canonical(left) == canonical(right)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rewriting_the_input_leaves_the_snapshot_unchanged(self, backend):
        rng = np.random.default_rng(25)
        positions = rng.random((200, 2))
        index = make_snapshot(positions, backend)
        probes = rng.random((8, 2)).tolist()
        before = [canonical(snapshot_knn(index, qx, qy, 4)) for qx, qy in probes]
        original = positions.copy()
        positions[:] = rng.random((200, 2))
        after = [canonical(snapshot_knn(index, qx, qy, 4)) for qx, qy in probes]
        assert after == before
        assert index.position_of(17) == tuple(original[17])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_matches_overhaul(self, backend):
        rng = np.random.default_rng(23)
        positions = tie_heavy_positions(rng, 200)
        moved = np.clip(positions + rng.normal(0, 0.01, positions.shape), 0, 1)
        old = make_snapshot(positions, backend)
        new = make_snapshot(moved, backend)
        for qx, qy in rng.random((10, 2)):
            seeds = snapshot_knn(old, float(qx), float(qy), 5).object_ids()
            seeded = snapshot_knn_seeded(new, float(qx), float(qy), 5, seeds)
            overhaul = snapshot_knn(new, float(qx), float(qy), 5)
            assert canonical(seeded) == canonical(overhaul)
        # Garbage seeds fall back to the overhaul path.
        fallback = snapshot_knn_seeded(new, 0.5, 0.5, 5, [9999])
        assert canonical(fallback) == canonical(snapshot_knn(new, 0.5, 0.5, 5))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_operator_matches_brute(self, backend):
        rng = np.random.default_rng(24)
        positions = tie_heavy_positions(rng, 280)
        index = make_snapshot(positions, backend)
        expected = brute_force_range(positions, REGIONS)
        got = [snapshot_range(index, region) for region in REGIONS]
        assert got == expected


class TestWorkloadsAcrossBackends:
    """The satellite suite: range/rknn/gnn identical on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_monitor_backend_matches_legacy_and_brute(self, backend):
        rng = np.random.default_rng(31)
        monitor_legacy = RangeMonitor(REGIONS)
        monitor_snapshot = RangeMonitor(REGIONS, backend=backend)
        for _ in range(3):
            positions = tie_heavy_positions(rng, 260)
            expected = brute_force_range(positions, REGIONS)
            assert monitor_legacy.tick(positions) == expected
            assert monitor_snapshot.tick(positions) == expected

    def test_rknn_identical_across_backends(self):
        rng = np.random.default_rng(32)
        queries = rng.random((12, 2))
        monitors = {
            backend: RKNNMonitor(3, queries, backend=backend)
            for backend in BACKENDS
        }
        positions = tie_heavy_positions(rng, 180)
        for _ in range(3):
            positions = np.clip(
                positions + rng.normal(0, 0.01, positions.shape), 0, 1
            )
            answers = {b: m.tick(positions) for b, m in monitors.items()}
            dk = {b: m.kth_distances() for b, m in monitors.items()}
            assert answers["object_index"] == answers["csr"]
            assert dk["object_index"] == dk["csr"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rknn_matches_brute(self, backend):
        rng = np.random.default_rng(33)
        positions = rng.random((150, 2))
        queries = rng.random((10, 2))
        monitor = RKNNMonitor(2, queries, backend=backend)
        assert monitor.tick(positions) == brute_force_rknn(positions, queries, 2)

    def test_gnn_identical_across_backends_and_brute(self):
        rng = np.random.default_rng(34)
        groups = [rng.random((3, 2)), rng.random((5, 2))]
        positions = tie_heavy_positions(rng, 220)
        for aggregate in ("sum", "max"):
            per_backend = {}
            for backend in BACKENDS:
                monitor = GNNMonitor(4, groups, aggregate, backend=backend)
                per_backend[backend] = monitor.tick(positions)
            assert per_backend["object_index"] == per_backend["csr"]
            for group_points, answer in zip(groups, per_backend["csr"]):
                expected = brute_force_group_knn(
                    positions, group_points, 4, aggregate
                )
                assert [oid for oid, _ in answer] == [oid for oid, _ in expected]
                for (_, da), (_, de) in zip(answer, expected):
                    assert da == pytest.approx(de)

    def test_self_join_identical_across_backends(self):
        rng = np.random.default_rng(35)
        monitors = {
            backend: SelfJoinMonitor(3, backend=backend) for backend in BACKENDS
        }
        positions = tie_heavy_positions(rng, 160)
        for _ in range(3):
            positions = np.clip(
                positions + rng.normal(0, 0.01, positions.shape), 0, 1
            )
            answers = {
                b: [canonical(a) for a in m.tick(positions)]
                for b, m in monitors.items()
            }
            assert answers["object_index"] == answers["csr"]

    def test_knn_join_identical_across_backends_and_brute(self):
        rng = np.random.default_rng(36)
        monitors = {
            backend: KNNJoinMonitor(3, backend=backend) for backend in BACKENDS
        }
        a_positions = rng.random((40, 2))
        b_positions = tie_heavy_positions(rng, 120)
        for _ in range(3):
            a_positions = np.clip(
                a_positions + rng.normal(0, 0.01, a_positions.shape), 0, 1
            )
            b_positions = np.clip(
                b_positions + rng.normal(0, 0.01, b_positions.shape), 0, 1
            )
            answers = {
                b: [canonical(a) for a in m.tick(a_positions, b_positions)]
                for b, m in monitors.items()
            }
            assert answers["object_index"] == answers["csr"]
            expected = brute_force_knn_join(a_positions, b_positions, 3)
            got_ids = [[oid for _, oid in row] for row in answers["csr"]]
            assert got_ids == [[oid for oid, _ in row] for row in expected]
