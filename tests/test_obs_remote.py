"""Cross-process shard telemetry: shipping, labeled merge, health, endpoint."""

import os
import signal
import urllib.request

import numpy as np
import pytest

from repro import MetricsRegistry, build_system
from repro.errors import IndexStateError
from repro.obs import prometheus_text, split_labels
from repro.obs.remote import (
    ANSWER_SPAN,
    BUILD_SPAN,
    WorkerTelemetry,
    merge_worker_metrics,
    merged_worker_counters,
    start_metrics_server,
)

#: Counters that legitimately differ between a clean run and one that
#: respawned a worker (a fresh process builds new stripe grids instead of
#: updating cached ones) or between processes (wall-clock).  Everything
#: else must match exactly.
NONDETERMINISTIC = ("shard.task.updates", "shard.task.fresh_builds")


def deterministic_aggregates(registry):
    return {
        name: value
        for name, value in merged_worker_counters(registry).items()
        if not name.endswith(".seconds")
        and not any(name.startswith(p) or name == p for p in NONDETERMINISTIC)
    }


def canonical(query_answers, places=12):
    return [
        [(round(dist, places), object_id) for object_id, dist in answer.neighbors]
        for answer in query_answers
    ]


def run_sharded_trace(workers, *, kill_idle_worker=False, seed=11,
                      n=500, nq=20, k=5, cycles=3, shards=2):
    """One deterministic sharded run; returns (registry, answer trace)."""
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    queries = rng.random((nq, 2))
    motion = [rng.normal(0.0, 0.01, (n, 2)) for _ in range(cycles)]
    registry = MetricsRegistry()
    system = build_system(
        "sharded", k, queries, workers=workers, shards=shards,
        oversubscribe=True, registry=registry,
    )
    with system:
        trace = [canonical(system.load(positions))]
        if kill_idle_worker:
            os.kill(system.engine.worker_pids()[0], signal.SIGKILL)
        for step in motion:
            positions = np.clip(positions + step, 0.0, 1.0)
            trace.append(canonical(system.tick(positions)))
    return registry, trace


# ------------------------------------------------------------- telemetry
class TestWorkerTelemetry:
    def test_disabled_builds_no_registry_but_spans_still_time(self):
        telemetry = WorkerTelemetry()
        tracer = telemetry.begin(False)
        with tracer.span(BUILD_SPAN) as span:
            pass
        assert span.duration >= 0.0
        assert telemetry.registry is None  # never constructed
        assert telemetry.deltas() is None
        telemetry.inc("anything")  # must be a silent no-op
        assert telemetry.registry is None

    def test_enabled_ships_exactly_one_tasks_deltas(self):
        telemetry = WorkerTelemetry()
        tracer = telemetry.begin(True)
        with tracer.span(BUILD_SPAN):
            pass
        telemetry.inc("work.items", 3)
        first = telemetry.deltas()
        assert first["work.items"] == 3.0
        assert first[f"span.{BUILD_SPAN}.calls"] == 1.0

        tracer = telemetry.begin(True)  # next task: fresh baseline
        with tracer.span(ANSWER_SPAN):
            pass
        second = telemetry.deltas()
        assert "work.items" not in second  # previous task's counters gone
        assert second[f"span.{ANSWER_SPAN}.calls"] == 1.0

    def test_toggles_between_tasks(self):
        telemetry = WorkerTelemetry()
        telemetry.begin(True)
        telemetry.inc("a")
        assert telemetry.deltas() == {"a": 1.0}
        telemetry.begin(False)
        assert telemetry.deltas() is None
        telemetry.begin(True)
        telemetry.inc("a")
        assert telemetry.deltas() == {"a": 1.0}  # not 2.0: per-task delta


class TestMergeWorkerMetrics:
    def test_labeled_and_aggregate_series(self):
        registry = MetricsRegistry()
        merge_worker_metrics(registry, 0, {"fast.answer.queries": 7.0})
        merge_worker_metrics(registry, 1, {"fast.answer.queries": 5.0})
        assert registry.counter(
            "shard.worker.fast.answer.queries", labels={"worker": 0}
        ) == 7.0
        assert registry.counter(
            "shard.worker.fast.answer.queries", labels={"worker": 1}
        ) == 5.0
        assert registry.counter("shard.all.fast.answer.queries") == 12.0
        assert merged_worker_counters(registry) == {"fast.answer.queries": 12.0}
        per_worker = merged_worker_counters(registry, aggregate=False)
        assert per_worker == {
            'fast.answer.queries{worker="0"}': 7.0,
            'fast.answer.queries{worker="1"}': 5.0,
        }

    def test_stage_seconds_exceeding_wall_time_raise(self):
        registry = MetricsRegistry()
        deltas = {
            f"span.{BUILD_SPAN}.seconds": 0.4,
            f"span.{ANSWER_SPAN}.seconds": 0.4,
        }
        merge_worker_metrics(registry, 0, deltas, task_wall=1.0)  # fine
        with pytest.raises(IndexStateError):
            merge_worker_metrics(registry, 0, deltas, task_wall=0.5)


# ---------------------------------------------- cross-process equivalence
class TestShardedTelemetryEquivalence:
    def test_pool_aggregates_equal_serial_counters_and_answers(self):
        serial_reg, serial_trace = run_sharded_trace(0)
        pool_reg, pool_trace = run_sharded_trace(2)
        assert pool_trace == serial_trace  # bit-identical answers
        assert deterministic_aggregates(pool_reg) == deterministic_aggregates(
            serial_reg
        )
        # Even the run-sensitive counters must agree with no crash in play.
        assert merged_worker_counters(pool_reg)[
            "shard.task.fresh_builds"
        ] == merged_worker_counters(serial_reg)["shard.task.fresh_builds"]

    def test_per_worker_series_sum_to_aggregate(self):
        pool_reg, _ = run_sharded_trace(2)
        per_worker = merged_worker_counters(pool_reg, aggregate=False)
        aggregates = merged_worker_counters(pool_reg)
        sums = {}
        for key, value in per_worker.items():
            name, labels = split_labels(key)
            assert set(labels) == {"worker"}
            sums[name] = sums.get(name, 0.0) + value
        for name, total in sums.items():
            assert total == pytest.approx(aggregates[name])
        # With two workers both stripes did real work.
        workers = {split_labels(k)[1]["worker"] for k in per_worker}
        assert workers == {"0", "1"}

    def test_crash_and_respawn_does_not_double_count(self):
        clean_reg, clean_trace = run_sharded_trace(2)
        crash_reg, crash_trace = run_sharded_trace(2, kill_idle_worker=True)
        assert crash_trace == clean_trace
        assert crash_reg.counter("shard.respawns") >= 1
        # The re-dispatched task merged exactly once: every deterministic
        # counter matches the crash-free run (the respawned worker's fresh
        # builds only move updates/fresh_builds, which are excluded).
        assert deterministic_aggregates(crash_reg) == deterministic_aggregates(
            clean_reg
        )


# ------------------------------------------------------------ health
class TestHealthGauges:
    def test_stripe_population_and_imbalance(self):
        registry, _ = run_sharded_trace(2, n=600)
        total = sum(
            registry.gauge("shard.stripe.objects", labels={"shard": s})
            for s in range(2)
        )
        assert total == 600
        assert registry.gauge("shard.imbalance_ratio") >= 1.0
        assert (
            registry.gauge("shard.stripe.queries", labels={"shard": 0})
            + registry.gauge("shard.stripe.queries", labels={"shard": 1})
            >= 20
        )
        assert registry.gauge("shard.pool.last_queue_wait_seconds") >= 0.0
        assert registry.histogram("shard.pool.queue_wait_seconds").count > 0

    def test_heartbeat_latency_gauges(self):
        rng = np.random.default_rng(3)
        registry = MetricsRegistry()
        system = build_system(
            "sharded", 2, rng.random((6, 2)), workers=2, shards=2,
            oversubscribe=True, registry=registry,
        )
        with system:
            system.load(rng.random((80, 2)))
            alive = system.engine.heartbeat(timeout=10.0)
            assert all(alive.values())
            for worker in alive:
                latency = registry.gauge(
                    "shard.pool.heartbeat_seconds", labels={"worker": worker}
                )
                assert 0.0 < latency < 10.0
            assert registry.gauge("shard.pool.heartbeat_seconds_max") >= max(
                registry.gauge(
                    "shard.pool.heartbeat_seconds", labels={"worker": w}
                )
                for w in alive
            )

    def test_respawn_gauge_tracks_pool(self):
        registry, _ = run_sharded_trace(2, kill_idle_worker=True)
        assert registry.gauge("shard.pool.respawns") == registry.counter(
            "shard.respawns"
        )


# ------------------------------------------------------------ endpoint
class TestMetricsServer:
    def test_serves_published_labeled_text(self):
        registry = MetricsRegistry()
        merge_worker_metrics(registry, 0, {"fast.answer.queries": 4.0})
        server, _ = start_metrics_server(registry, port=0)
        try:
            host, port = server.server_address[:2]
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert (
                'repro_shard_worker_fast_answer_queries_total{worker="0"} 4'
                in body
            )
            # The endpoint serves the published snapshot, not the live
            # registry: new counts appear only after the next publish().
            merge_worker_metrics(registry, 0, {"fast.answer.queries": 1.0})
            stale = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert stale == body
            server.publish()
            fresh = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert "queries_total{worker=\"0\"} 5" in fresh
            with pytest.raises(urllib.request.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=10
                )
        finally:
            server.shutdown()

    def test_publish_accepts_prerendered_text(self):
        registry = MetricsRegistry()
        server, _ = start_metrics_server(registry, port=0)
        try:
            server.publish("custom snapshot\n")
            assert server.render() == "custom snapshot\n"
            registry.inc("x")
            server.publish(prometheus_text(registry))
            assert "repro_x_total 1" in server.render()
        finally:
            server.shutdown()


# ------------------------------------------------------------ validation
class TestShardedValidation:
    def test_run_sharded_validation_passes(self):
        from repro.obs.validate import run_sharded_validation

        report = run_sharded_validation(
            n_objects=400, n_queries=16, k=4, cycles=2
        )
        assert report.ok, report.render()
        names = [check.name for check in report.checks]
        assert "worker_vs_serial_counter_mismatches" in names
        assert "candidates/query" in names
