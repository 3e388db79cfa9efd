"""Sharded engine: cross-engine equivalence, routing, and fault recovery."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import MetricsRegistry, build_system
from repro.errors import ConfigurationError, NotEnoughObjectsError
from repro.shard import ShardedGridEngine, StripePartition, shard_grid_shape
from repro.shard.engine import _merge_chunks
from repro.shard.tasks import _stripe_members


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


def boundary_heavy_dataset(rng, n, n_shards):
    """Positions with many objects exactly on stripe boundaries and many
    duplicate coordinates (forcing distance ties)."""
    positions = rng.random((n, 2))
    boundaries = np.arange(1, n_shards) / n_shards
    m = min(n // 4, 8 * len(boundaries)) if len(boundaries) else 0
    if m:
        positions[:m, 0] = np.resize(boundaries, m)
    # Duplicate whole coordinates -> duplicate distances -> ID tie-breaks.
    positions[n // 2 : n // 2 + n // 4] = positions[: n // 4]
    positions[-1] = [1.0, 1.0]
    positions[-2] = [0.0, 0.0]
    return positions


class TestPartition:
    def test_shard_of_boundaries(self):
        partition = StripePartition(4)
        xs = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.999, 1.0])
        assert partition.shard_of(xs).tolist() == [0, 0, 1, 2, 3, 3, 3]

    def test_every_object_owned_once(self):
        rng = np.random.default_rng(3)
        positions = boundary_heavy_dataset(rng, 500, 5)
        partition = StripePartition(5)
        owners = partition.shard_of(positions[:, 0])
        assert owners.min() >= 0 and owners.max() <= 4
        members = np.concatenate([
            _stripe_members(positions, partition, s, churn=False)
            for s in range(5)
        ])
        np.testing.assert_array_equal(np.sort(members), np.arange(len(positions)))

    def test_range_overlapping_closed_on_boundaries(self):
        partition = StripePartition(4)
        # A rectangle whose left edge sits exactly on 0.5 must include
        # stripe 1 (an object at x=0.5 belongs to stripe 2, but one at
        # x=0.5-eps in stripe 1 can be at the same distance).
        lo, hi = partition.range_overlapping(np.array([0.5]), np.array([0.6]))
        assert (lo[0], hi[0]) == (1, 2)
        lo, hi = partition.range_overlapping(np.array([-0.3]), np.array([1.7]))
        assert (lo[0], hi[0]) == (0, 3)

    def test_shard_grid_shape_square_cells(self):
        nx, ny = shard_grid_shape(10_000, 4)
        assert nx >= 1 and ny >= 1
        # ~square cells: stripe is 4x taller than wide.
        assert 2 <= ny // nx <= 8

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            StripePartition(0)


class TestMergeChunks:
    def test_global_tiebreak_by_id(self):
        # Two shards offer equal distances; lower ID must win.
        chunks = [
            (np.array([0, 0]), np.array([0.25, 0.5]), np.array([7, 9])),
            (np.array([0, 0]), np.array([0.25, 0.5]), np.array([3, 1])),
        ]
        top_d2, top_ids, counts = _merge_chunks(chunks, nq=1, k=3)
        assert top_ids[0].tolist() == [3, 7, 1]
        assert counts[0] == 4

    def test_padding_below_k(self):
        chunks = [(np.array([1]), np.array([0.1]), np.array([5]))]
        top_d2, top_ids, counts = _merge_chunks(chunks, nq=2, k=2)
        assert top_ids[0].tolist() == [-1, -1]
        assert top_ids[1].tolist() == [5, -1]
        assert np.isinf(top_d2[1, 1])
        assert counts.tolist() == [0, 1]


class TestEquivalence:
    """sharded (serial + pooled), fast_grid, brute_force answer identically."""

    N, NQ, K, CYCLES = 400, 25, 6, 50

    def _walk(self, build_system):
        rng = np.random.default_rng(11)
        positions = boundary_heavy_dataset(rng, self.N, 4)
        queries = rng.random((self.NQ, 2))
        queries[0] = [0.5, 0.5]     # exactly on a shard boundary
        queries[1] = [0.25, 0.75]
        system = build_system(self.K, queries)
        try:
            trace = [canonical(system.load(positions))]
            for _ in range(self.CYCLES):
                step = rng.normal(0.0, 0.01, positions.shape)
                positions = np.clip(positions + step, 0.0, 1.0)
                trace.append(canonical(system.tick(positions)))
        finally:
            system.close()
        return trace

    @pytest.fixture(scope="class")
    def reference(self):
        return self._walk(lambda k, q: build_system("brute_force", k, q))

    @pytest.mark.parametrize(
        "label,options",
        [
            ("serial-1shard", {"workers": 0, "shards": 1}),
            ("serial-4shards", {"workers": 0, "shards": 4}),
            # oversubscribe: the pool tests need two real workers even on
            # single-core CI boxes, where the default cap would shrink them.
            ("pool-2w2s", {"workers": 2, "shards": 2, "oversubscribe": True}),
            ("pool-2w5s", {"workers": 2, "shards": 5, "oversubscribe": True}),
        ],
    )
    def test_sharded_matches_brute_force(self, reference, label, options):
        trace = self._walk(
            lambda k, q: build_system("sharded", k, q, **options)
        )
        assert trace == reference

    def test_fast_grid_matches_brute_force(self, reference):
        trace = self._walk(lambda k, q: build_system("fast_grid", k, q))
        assert trace == reference

    def test_stale_seed_escalation_is_exact(self, reference):
        # Zero slack + fast motion makes the seeded routing wrong almost
        # every cycle; escalation must still recover the exact answer.
        registry = MetricsRegistry()
        trace = self._walk(
            lambda k, q: build_system(
                "sharded", k, q, workers=0, shards=4, seed_slack=0.0, registry=registry
            )
        )
        assert trace == reference


class TestEscalation:
    def test_seeded_bound_goes_stale_across_stripes(self):
        # Cycle 0: the cluster around the query sits in stripe 0, so the
        # seeded rectangle for cycle 1 stays inside stripe 0.  Cycle 1:
        # the cluster teleports to stripe 3, leaving only far objects in
        # stripe 0 -> the merged kth-distance disc pokes out of the
        # consulted stripes and the query must escalate to stay exact.
        k = 3
        queries = np.array([[0.05, 0.5]])
        near = np.column_stack([
            np.full(6, 0.06), np.linspace(0.48, 0.52, 6)
        ])
        far = np.column_stack([
            np.full(6, 0.12), np.linspace(0.05, 0.95, 6)
        ])
        cycle0 = np.vstack([near, far])
        moved = cycle0.copy()
        moved[:6, 0] = 0.9   # cluster leaves stripe 0
        registry = MetricsRegistry()
        system = build_system(
            "sharded", k, queries, workers=0, shards=4, seed_slack=0.0, registry=registry
        )
        with system:
            system.load(cycle0)
            got = canonical(system.tick(moved))
        oracle = build_system("brute_force", k, queries)
        oracle.load(cycle0)
        expected = canonical(oracle.tick(moved))
        assert got == expected
        assert registry.counter("shard.escalated_queries") >= 1
        assert registry.counter("shard.rounds") > registry.counter("cycle.count")


class TestContracts:
    def test_not_enough_objects(self):
        queries = np.array([[0.5, 0.5]])
        engine = ShardedGridEngine(5, queries, workers=0, shards=2)
        engine.load(np.random.default_rng(0).random((3, 2)))
        with pytest.raises(NotEnoughObjectsError):
            engine.answer()

    def test_rejects_bad_options(self):
        queries = np.array([[0.5, 0.5]])
        with pytest.raises(ConfigurationError):
            ShardedGridEngine(3, queries, workers=-1)
        with pytest.raises(ConfigurationError):
            ShardedGridEngine(3, queries, workers=0, shards=0)
        with pytest.raises(ConfigurationError):
            build_system("sharded", 3, queries, shardz=2)

    def test_no_queries(self):
        engine = ShardedGridEngine(2, np.empty((0, 2)), workers=0, shards=2)
        engine.load(np.random.default_rng(0).random((10, 2)))
        assert engine.answer() == []

    def test_worker_cap_defaults_to_cpu_count(self):
        queries = np.array([[0.5, 0.5]])
        ncpu = os.cpu_count() or 1
        capped = ShardedGridEngine(2, queries, workers=ncpu + 3)
        assert capped.requested_workers == ncpu + 3
        assert capped.workers == ncpu
        assert capped.worker_cap_applied
        # Shards default from the *effective* worker count.
        assert capped.n_shards == ncpu
        forced = ShardedGridEngine(2, queries, workers=ncpu + 3, oversubscribe=True)
        assert forced.workers == ncpu + 3
        assert not forced.worker_cap_applied
        serial = ShardedGridEngine(2, queries, workers=0)
        assert not serial.worker_cap_applied

    def test_worker_cap_emits_warning_counter(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(9)
        ncpu = os.cpu_count() or 1
        system = build_system(
            "sharded", 2, rng.random((3, 2)), workers=ncpu + 3, registry=registry
        )
        with system:
            system.load(rng.random((50, 2)))
            system.tick(rng.random((50, 2)))
        # One warning per engine lifetime, not one per cycle.
        assert registry.counter("shard.worker_cap_applied") == 1

    def test_build_time_attributed_to_index_phase(self):
        # The stripe indexes build lazily inside answer(); the pipeline
        # must move those seconds into the cycle's index time.
        registry = MetricsRegistry()
        rng = np.random.default_rng(13)
        system = build_system(
            "sharded", 3, rng.random((10, 2)), workers=0, shards=2, registry=registry
        )
        with system:
            system.load(rng.random((5000, 2)))
            system.tick(rng.random((5000, 2)))
        assert registry.counter("shard.build_seconds") > 0.0
        record = system.last_stats
        assert record.index_time > 0.0
        assert record.answer_time >= 0.0
        # The engine's accumulator is drained each cycle.
        assert system.engine.pop_deferred_index_seconds() == 0.0

    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(5)
        system = build_system(
            "sharded", 3, rng.random((10, 2)), workers=0, shards=2, registry=registry
        )
        with system:
            system.load(rng.random((200, 2)))
            system.tick(rng.random((200, 2)))
        assert registry.counter("shard.dispatch_seconds") > 0.0
        assert registry.counter("shard.merge_seconds") > 0.0
        assert registry.counter("shard.queries_routed") >= 10
        assert registry.counter("shard.tasks") >= 2
        assert registry.counter("shard.respawns") == 0.0

    def test_stripe_query_gauges_refresh_on_set_queries(self):
        # Regression: the per-stripe query gauges used to go stale when
        # set_queries swapped the query population — they reported the
        # previous population's routing until the next answer() ran.
        registry = MetricsRegistry()
        rng = np.random.default_rng(21)
        left = np.column_stack([rng.uniform(0.0, 0.45, 6), rng.random(6)])
        right = np.column_stack([rng.uniform(0.55, 1.0, 6), rng.random(6)])
        engine = ShardedGridEngine(2, left, workers=0, shards=2)
        engine.metrics = registry
        try:
            engine.set_queries(left)
            assert registry.gauge("shard.stripe.queries", {"shard": 0}) == 6.0
            assert registry.gauge("shard.stripe.queries", {"shard": 1}) == 0.0
            engine.set_queries(right)  # no cycle in between
            assert registry.gauge("shard.stripe.queries", {"shard": 0}) == 0.0
            assert registry.gauge("shard.stripe.queries", {"shard": 1}) == 6.0
        finally:
            engine.close()


class TestFaultTolerance:
    N, NQ, K = 3000, 30, 5

    def _reference(self, positions, queries):
        oracle = build_system("brute_force", self.K, queries)
        oracle.load(positions)
        return canonical(oracle.tick(positions))

    def test_sigkill_idle_worker_recovers(self):
        rng = np.random.default_rng(17)
        positions = rng.random((self.N, 2))
        queries = rng.random((self.NQ, 2))
        registry = MetricsRegistry()
        system = build_system(
            "sharded", self.K, queries, workers=2, shards=4, registry=registry,
            oversubscribe=True,
        )
        with system:
            system.load(positions)
            victim = system.engine.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The kill lands before dispatch; collect() sees the dead
            # pipe mid-cycle, respawns, and re-dispatches the task.
            got = canonical(system.tick(positions))
            assert got == self._reference(positions, queries)
            assert system.engine.respawns >= 1
            assert registry.counter("shard.respawns") >= 1
            assert victim not in system.engine.worker_pids()

    def test_sigkill_mid_answer_recovers(self):
        rng = np.random.default_rng(19)
        positions = rng.random((60_000, 2))
        queries = rng.random((self.NQ, 2))
        system = build_system(
            "sharded", self.K, queries, workers=2, shards=4, oversubscribe=True
        )
        with system:
            system.load(positions)
            victim = system.engine.worker_pids()[1]
            killer = threading.Timer(0.005, os.kill, (victim, signal.SIGKILL))
            killer.start()
            try:
                got = canonical(system.tick(positions))
            finally:
                killer.cancel()
            # Whether the kill landed mid-collect or between cycles, the
            # answers must be exact; run one more cycle so a late kill is
            # also detected and absorbed.
            assert got == self._reference(positions, queries)
            for _ in range(20):
                if system.engine.respawns >= 1:
                    break
                system.engine.heartbeat(timeout=2.0)
                time.sleep(0.05)
            got2 = canonical(system.tick(positions))
            assert got2 == self._reference(positions, queries)
            assert system.engine.respawns >= 1

    def test_heartbeat_detects_and_respawns(self):
        rng = np.random.default_rng(23)
        system = build_system(
            "sharded", 2, rng.random((4, 2)), workers=2, shards=2, oversubscribe=True
        )
        with system:
            system.load(rng.random((100, 2)))
            victim = system.engine.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            status = system.engine.heartbeat(timeout=5.0)
            assert status[0] is False and status[1] is True
            assert system.engine.respawns == 1
            # Replacement is alive and serving.
            assert system.engine.heartbeat(timeout=5.0) == {0: True, 1: True}
