"""Tests for the vectorized CSR fast engine (repro.core.fast_index).

The contract: byte-identical k-NN answer sets to the brute-force oracle
(ties broken deterministically by object ID) under every snapshot shape —
random, clustered, duplicated points, edge-of-domain queries, and k larger
than the query's home-cell population — and across cycles where the
previous answer bounds each query's radius (paper §3.2).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fast_index
from repro.core.answers import answers_equal
from repro.core.brute import brute_force_knn
from repro.core.fast_index import (
    CSRGrid,
    FastGridEngine,
    cell_index,
    kth_smallest,
)
from repro.engines.registry import build_system
from repro.errors import IndexStateError, NotEnoughObjectsError
from repro.motion import RandomWalkModel, make_dataset, make_queries
from repro.obs.registry import MetricsRegistry
from repro.service import MonitoringSession


def lexicographic_knn(positions, qx, qy, k):
    """Reference k-NN with (distance, id) lexicographic tie-breaking."""
    d2 = (positions[:, 0] - qx) ** 2 + (positions[:, 1] - qy) ** 2
    order = np.lexsort((np.arange(len(positions)), d2))[:k]
    return [(int(i), float(np.sqrt(d2[i]))) for i in order]


def fast_answers(positions, queries, k, **kwargs):
    engine = FastGridEngine(k, queries, **kwargs)
    engine.load(positions)
    return engine.answer()


class TestCSRGrid:
    def test_layout_invariants(self):
        rng = np.random.default_rng(3)
        positions = rng.random((500, 2))
        csr = CSRGrid(positions, ncells=7)
        n = csr.ncells
        assert csr.cell_start[0] == 0
        assert csr.cell_start[-1] == len(positions)
        # Every object sits in the slice of its own cell.
        for flat in range(n * n):
            lo, hi = csr.cell_start[flat], csr.cell_start[flat + 1]
            i, j = flat % n, flat // n
            for pos in range(lo, hi):
                assert int(csr.xs[pos] * n) == i
                assert int(csr.ys[pos] * n) == j
        # The permutation covers every object exactly once.
        assert sorted(csr.ids.tolist()) == list(range(len(positions)))

    def test_prefix_counts_match_direct_counts(self):
        rng = np.random.default_rng(4)
        positions = rng.random((300, 2))
        csr = CSRGrid(positions, ncells=5)
        n = csr.ncells
        ii = np.clip((positions[:, 0] * n).astype(int), 0, n - 1)
        jj = np.clip((positions[:, 1] * n).astype(int), 0, n - 1)
        for _ in range(25):
            ilo, ihi = sorted(rng.integers(0, n, 2))
            jlo, jhi = sorted(rng.integers(0, n, 2))
            want = int(
                np.sum((ii >= ilo) & (ii <= ihi) & (jj >= jlo) & (jj <= jhi))
            )
            got = csr.count_in_rects(
                np.array([ilo]), np.array([jlo]), np.array([ihi]), np.array([jhi])
            )
            assert int(got[0]) == want

    def test_row_runs_are_contiguous(self):
        """Cells (ilo..ihi, j) form one contiguous CSR slice."""
        rng = np.random.default_rng(5)
        positions = rng.random((400, 2))
        csr = CSRGrid(positions, ncells=6)
        n = csr.ncells
        j, ilo, ihi = 2, 1, 4
        lo = csr.cell_start[j * n + ilo]
        hi = csr.cell_start[j * n + ihi + 1]
        jj = np.clip((csr.ys[lo:hi] * n).astype(int), 0, n - 1)
        ii = np.clip((csr.xs[lo:hi] * n).astype(int), 0, n - 1)
        assert (jj == j).all()
        assert ((ii >= ilo) & (ii <= ihi)).all()


class TestFastEngineExactness:
    def test_property_random_snapshots_match_brute_force(self):
        """~50 random snapshots: byte-identical answers to the oracle."""
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(5, 800))
            nq = int(rng.integers(1, 40))
            k = int(rng.integers(1, min(25, n) + 1))
            positions = rng.random((n, 2))
            queries = rng.random((nq, 2))
            answers = fast_answers(positions, queries, k)
            for answer, (qx, qy) in zip(answers, queries):
                got = answer.neighbors()
                want = lexicographic_knn(positions, qx, qy, k)
                assert got == pytest.approx(want), (trial, qx, qy)
                assert answers_equal(
                    got, brute_force_knn(positions, qx, qy, k)
                ), (trial, qx, qy)

    def test_edge_of_domain_queries(self):
        rng = np.random.default_rng(10)
        positions = rng.random((300, 2))
        queries = np.array(
            [
                [0.0, 0.0],
                [1.0, 1.0],
                [0.0, 1.0],
                [1.0, 0.0],
                [0.5, 0.0],
                [0.0, 0.5],
                [0.999999, 0.5],
            ]
        )
        answers = fast_answers(positions, queries, k=7)
        for answer, (qx, qy) in zip(answers, queries):
            assert answer.neighbors() == pytest.approx(
                lexicographic_knn(positions, qx, qy, 7)
            )

    def test_k_exceeds_home_cell_population(self):
        """Ring growth must escape sparsely populated home cells."""
        rng = np.random.default_rng(11)
        # Everything clustered in one corner; query in the opposite corner
        # has an empty home cell (and empty first rings).
        positions = 0.05 * rng.random((200, 2))
        queries = np.array([[0.95, 0.95], [0.5, 0.5], [0.04, 0.03]])
        answers = fast_answers(positions, queries, k=60)
        for answer, (qx, qy) in zip(answers, queries):
            assert answer.neighbors() == pytest.approx(
                lexicographic_knn(positions, qx, qy, 60)
            )

    def test_k_equals_population(self):
        rng = np.random.default_rng(12)
        positions = rng.random((30, 2))
        queries = rng.random((5, 2))
        answers = fast_answers(positions, queries, k=30)
        for answer, (qx, qy) in zip(answers, queries):
            assert answer.neighbors() == pytest.approx(
                lexicographic_knn(positions, qx, qy, 30)
            )

    def test_duplicate_points_tie_break_by_id(self):
        """Coincident objects: the engine reports the smallest tied IDs."""
        positions = np.array([[0.5, 0.5]] * 6 + [[0.9, 0.9], [0.1, 0.2]])
        queries = np.array([[0.5, 0.5]])
        (answer,) = fast_answers(positions, queries, k=3)
        assert answer.object_ids() == [0, 1, 2]
        assert answer.neighbors() == pytest.approx(
            lexicographic_knn(positions, queries[0, 0], queries[0, 1], 3)
        )

    def test_queries_sharing_home_cell_share_gather(self):
        """Co-located queries (one union rect) still get exact answers."""
        rng = np.random.default_rng(13)
        positions = rng.random((500, 2))
        base = np.array([0.437, 0.561])
        queries = base + 1e-4 * rng.random((8, 2))
        answers = fast_answers(positions, queries, k=9)
        for answer, (qx, qy) in zip(answers, queries):
            assert answer.neighbors() == pytest.approx(
                lexicographic_knn(positions, qx, qy, 9)
            )

    def test_skewed_candidate_blocks_one_select(self, monkeypatch):
        """Candidate blocks of very different sizes rank through one select."""
        blocks = []

        def spy(d2, counts, starts, k):
            blocks.append(counts.copy())
            return kth_smallest(d2, counts, starts, k)

        monkeypatch.setattr(fast_index, "kth_smallest", spy)
        rng = np.random.default_rng(14)
        # One huge cluster gives one query a candidate block far larger
        # than the others', so the k-th-distance buckets span many
        # powers of two.
        cluster = 0.02 * rng.random((2000, 2)) + 0.5
        sparse = rng.random((50, 2))
        positions = np.vstack([cluster, sparse])
        queries = np.vstack(
            [np.array([[0.51, 0.51]]), rng.random((9, 2)) * 0.2 + 0.75]
        )
        engine = FastGridEngine(5, queries)
        engine.load(positions)
        answers = engine.answer()
        (per_query,) = blocks
        assert per_query.max() > 64 * per_query.min()
        for answer, (qx, qy) in zip(answers, queries):
            assert answer.neighbors() == pytest.approx(
                lexicographic_knn(positions, qx, qy, 5)
            )

    def test_skewed_dataset_cycles(self):
        """Multi-cycle run over clustered data stays exact."""
        positions = make_dataset("hi_skewed", 2000, seed=21)
        queries = make_queries(50, seed=22)
        motion = RandomWalkModel(vmax=0.01, seed=23)
        system = build_system("fast_grid", 10, queries)
        system.load(positions)
        for _ in range(3):
            positions = motion.step(positions)
            answers = system.tick(positions)
            for qa, (qx, qy) in zip(answers, queries):
                assert list(qa.neighbors) == pytest.approx(
                    lexicographic_knn(positions, qx, qy, 10)
                )


class TestFastEngineContract:
    def test_answer_before_load_raises(self):
        engine = FastGridEngine(3, np.array([[0.5, 0.5]]))
        with pytest.raises(IndexStateError):
            engine.answer()

    def test_k_larger_than_population_raises(self):
        engine = FastGridEngine(10, np.array([[0.5, 0.5]]))
        engine.load(np.random.default_rng(0).random((4, 2)))
        with pytest.raises(NotEnoughObjectsError):
            engine.answer()

    def test_no_queries(self):
        engine = FastGridEngine(2, np.empty((0, 2)))
        engine.load(np.random.default_rng(0).random((10, 2)))
        assert engine.answer() == []

    def test_set_queries_moves_queries(self):
        rng = np.random.default_rng(30)
        positions = rng.random((200, 2))
        queries = rng.random((6, 2))
        system = build_system("fast_grid", 4, queries)
        system.load(positions)
        moved = rng.random((6, 2))
        system.set_queries(moved)
        answers = system.tick(positions)
        for qa, (qx, qy) in zip(answers, moved):
            assert list(qa.neighbors) == pytest.approx(
                lexicographic_knn(positions, qx, qy, 4)
            )

    def test_explicit_grid_resolution(self):
        rng = np.random.default_rng(31)
        positions = rng.random((150, 2))
        queries = rng.random((4, 2))
        for kwargs in ({"ncells": 3}, {"delta": 0.25}):
            answers = fast_answers(positions, queries, 5, **kwargs)
            for answer, (qx, qy) in zip(answers, queries):
                assert answer.neighbors() == pytest.approx(
                    lexicographic_knn(positions, qx, qy, 5)
                )

    def test_stage_timing_history(self):
        rng = np.random.default_rng(32)
        positions = rng.random((300, 2))
        queries = rng.random((10, 2))
        system = build_system("fast_grid", 5, queries, registry=MetricsRegistry())
        system.load(positions)
        system.tick(rng.random((300, 2)))
        assert len(system.history) == 2
        stages = ("answer.radii", "answer.gather", "answer.select")
        for record, phase in zip(system.history, ("load", "maintain")):
            means = record.span_means()
            assert set(means) == {phase, f"{phase}.csr_snapshot", "answer", *stages}
            assert all(v >= 0.0 for v in means.values())
            assert sum(means[s] for s in stages) <= means["answer"]

    def test_stage_spans_restart_on_load(self):
        rng = np.random.default_rng(33)
        positions = rng.random((100, 2))
        system = build_system(
            "fast_grid", 3, rng.random((5, 2)), registry=MetricsRegistry()
        )
        system.load(positions)
        system.tick(positions)
        system.load(positions)
        assert len(system.history) == 1
        counters = system.history[0].counters
        assert counters["span.load.csr_snapshot.calls"] == 1.0
        assert "span.maintain.csr_snapshot.calls" not in counters

    def test_registered_in_bench_runner(self):
        system = build_system("fast_grid", 3, np.array([[0.5, 0.5]]))
        assert system.engine.name == "fast-grid"


class TestOneSelect:
    def test_kth_smallest_matches_sorted_runs(self):
        rng = np.random.default_rng(40)
        # Run lengths spread over many powers of two, duplicates included.
        counts = np.concatenate(
            (rng.integers(3, 9, 40), rng.integers(9, 300, 25), [5000, 3])
        )
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        d2 = np.round(rng.random(int(counts.sum())), 2)
        got = kth_smallest(d2, counts, starts, 3)
        want = [np.sort(d2[a : a + c])[2] for a, c in zip(starts, counts)]
        assert got.tolist() == want

    def test_short_run_reports_inf(self):
        counts = np.array([4, 2])
        d2 = np.array([0.4, 0.1, 0.3, 0.2, 0.5, 0.6])
        got = kth_smallest(d2, counts, np.array([0, 4]), 3)
        assert got[0] == 0.3 and np.isinf(got[1])


def _knife_edge_cases(n, count, seed):
    """``(qx, ox)`` pairs where ``ox`` is a cell boundary of an ``n``-cell
    axis and the unpadded rectangle edge ``qx ± |ox - qx|`` rounds into
    the neighbouring cell, so a rectangle built from the exact bound
    radius would miss the object at ``ox``."""
    rng = np.random.default_rng(seed)
    ox = rng.integers(1, n, 200_000) / n
    qx = rng.random(200_000)
    d = ox - qx
    radius = np.sqrt(d * d)
    right = ox > qx
    edge = np.where(right, qx + radius, qx - radius)
    shortfall = cell_index(ox, 0.0, 1.0, n) - cell_index(edge, 0.0, 1.0, n)
    miss = np.where(right, shortfall > 0, shortfall < 0)
    hits = np.flatnonzero(miss)[:count]
    assert len(hits) == count, "seed yields too few knife-edge cases"
    return list(zip(qx[hits].tolist(), ox[hits].tolist()))


class TestPreviousAnswerBound:
    """The §3.2 radius: the previous k neighbours bound the k-th distance."""

    def test_knife_edge_objects_at_exactly_the_bound(self):
        """Objects on a cell boundary at exactly the bound distance.

        The grid has 100 cells per side (not a power of two), the objects
        sit on the query's y, and the previous answer makes their
        distance the bound.  Without the radius pad the critical
        rectangle stops one cell short of them.
        """
        qy = 0.505
        for qx, ox in _knife_edge_cases(100, 6, seed=3):
            # Two coincident objects are the 2-NN; one far decoy.
            positions = np.array([[ox, qy], [ox, qy], [0.999, 0.001]])
            if abs(ox - qx) > 0.9:
                positions[2] = [0.001, 0.999]
            registry = MetricsRegistry()
            system = build_system(
                "fast_grid", 2, np.array([[qx, qy]]), ncells=100, registry=registry
            )
            system.load(positions)
            (answer,) = system.tick(positions)
            assert system.last_stats.counters["fast.answer.bounded_queries"] == 1
            assert list(answer.neighbors) == lexicographic_knn(positions, qx, qy, 2)

    def test_session_churn_matches_brute_force(self):
        """Registrations, leaving neighbours and a compaction, every tick exact.

        One query sits outside the unit square next to the ``(-1, -1)``
        vacancy sentinel, and no object comes near the corner cell: if a
        vacated row (a neighbour that left, or a row past the survivors
        after a compaction) still fed its bound, the bound would collapse
        onto the sentinel and the rectangle would miss every object.
        """
        rng = np.random.default_rng(50)
        registry = MetricsRegistry()
        session = MonitoringSession("fast_grid", k=3, registry=registry)
        points = 0.4 + 0.6 * rng.random((300, 2))
        # Rows equal ids.  The corner query's neighbours are 150-152, then
        # 160-162 once those leave; compaction to 110 survivors leaves
        # rows 160-162 vacant in the repacked universe.
        points[150:153] = [[0.26, 0.26], [0.27, 0.26], [0.26, 0.27]]
        points[160:163] = [[0.28, 0.28], [0.29, 0.28], [0.28, 0.29]]
        for oid, point in enumerate(points.tolist()):
            session.join_object(oid, point)
        for point in rng.random((12, 2)).tolist() + [[-0.99, -0.98]]:
            session.register_query(point)
        session.tick()
        others = [oid for oid in range(300) if oid not in range(150, 163)]
        rng.shuffle(others)
        leaves = [
            [150, 151, 152] + others[:37],  # the corner query's neighbours
            [],
            others[37:187],  # 260 -> 110 live: compaction
            [],
        ]
        for cycle, leaving in enumerate(leaves):
            ids, points = session.population()
            step = rng.uniform(-0.002, 0.002, points.shape)
            session.update_positions(np.clip(points + step, 0.25, 0.999))
            for oid in leaving:
                session.leave_object(oid)
            session.register_query(rng.random(2))
            answers = session.tick()
            ids, points = session.population()
            for handle, query in zip(session.handles(), session.query_points()):
                want = tuple(
                    (int(ids[i]), dist)
                    for i, dist in brute_force_knn(points, query[0], query[1], 3)
                )
                assert answers[handle].neighbors == want, (cycle, handle)
        counters = registry.counter_values()
        assert counters["service.compactions"] == 1
        assert counters["service.queries_registered"] == 13 + len(leaves)
        assert counters["fast.answer.bounded_queries"] > 0

    def test_set_queries_keeps_the_bound(self):
        rng = np.random.default_rng(51)
        positions = rng.random((500, 2))
        queries = rng.random((20, 2))
        registry = MetricsRegistry()
        system = build_system("fast_grid", 5, queries, registry=registry)
        system.load(positions)
        moved = np.clip(queries + rng.uniform(-0.05, 0.05, queries.shape), 0.0, 0.999)
        system.set_queries(moved)
        positions = np.clip(positions + rng.uniform(-0.01, 0.01, positions.shape), 0.0, 0.999)
        answers = system.tick(positions)
        assert system.last_stats.counters["fast.answer.bounded_queries"] > 0
        for qa, (qx, qy) in zip(answers, moved):
            assert list(qa.neighbors) == lexicographic_knn(positions, qx, qy, 5)

    def test_no_bound_after_load_or_for_out_of_range_rows(self):
        rng = np.random.default_rng(52)
        positions = rng.random((300, 2))
        queries = rng.random((10, 2))
        registry = MetricsRegistry()
        system = build_system("fast_grid", 4, queries, registry=registry)
        system.load(positions)
        system.load(positions)
        assert "fast.answer.bounded_queries" not in system.last_stats.counters
        # A smaller dense population: rows past its end cannot bound.
        fewer = positions[:150]
        answers = system.tick(fewer)
        for qa, (qx, qy) in zip(answers, queries):
            assert list(qa.neighbors) == lexicographic_knn(fewer, qx, qy, 4)
