"""Unit tests for the observability layer: registry, spans, exporters."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    NULL_TRACER,
    CounterBlock,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    history_records,
    label_key,
    mean_cycle_counters,
    parse_prometheus_text,
    split_labels,
    prometheus_text,
    read_history_jsonl,
    span_seconds,
    write_history_jsonl,
)


# ---------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 4)
        assert reg.counter("a.b") == 5.0
        assert reg.counter("missing") == 0.0

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.5)
        assert reg.gauge("g") == 2.5
        assert reg.gauge_values() == {"g": 2.5}

    def test_counters_since_returns_nonzero_deltas(self):
        reg = MetricsRegistry()
        reg.inc("x", 3)
        reg.inc("y", 1)
        before = reg.counter_values()
        reg.inc("x", 2)
        reg.inc("z", 7)
        delta = reg.counters_since(before)
        assert delta == {"x": 2.0, "z": 7.0}

    def test_counters_since_none_means_everything(self):
        reg = MetricsRegistry()
        reg.inc("x", 3)
        assert reg.counters_since(None) == {"x": 3.0}

    def test_reset_clears_all(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.5)
        reg.reset()
        assert reg.counter_values() == {}
        assert reg.gauge_values() == {}
        assert reg.snapshot()["histograms"] == {}

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True
        assert NullRegistry().enabled is False
        assert NULL_REGISTRY.enabled is False

    def test_null_registry_is_inert(self):
        null = NullRegistry()
        null.inc("a", 5)
        null.set_gauge("g", 1.0)
        null.observe("h", 0.1)
        assert null.counter("a") == 0.0
        assert null.counter_values() == {}
        assert null.counters_since(None) == {}
        null.inc("a", 5, labels={"worker": 1})  # labeled no-ops too
        assert null.counter("a", labels={"worker": 1}) == 0.0


class TestLabels:
    def test_label_key_sorts_and_round_trips(self):
        key = label_key("a.b", {"worker": 2, "shard": 0})
        assert key == 'a.b{shard="0",worker="2"}'  # keys sorted
        assert label_key("a.b", {"shard": 0, "worker": 2}) == key
        assert split_labels(key) == ("a.b", {"shard": "0", "worker": "2"})
        assert label_key("a.b", None) == "a.b"
        assert split_labels("a.b") == ("a.b", {})

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        reg.inc("tasks", 2, labels={"worker": 0})
        reg.inc("tasks", 3, labels={"worker": 1})
        reg.inc("tasks", 10)  # the unlabeled series is its own sample
        assert reg.counter("tasks", labels={"worker": 0}) == 2.0
        assert reg.counter("tasks", labels={"worker": 1}) == 3.0
        assert reg.counter("tasks") == 10.0
        reg.set_gauge("pop", 7, labels={"shard": 1})
        assert reg.gauge("pop", labels={"shard": 1}) == 7.0
        reg.observe("wait", 0.01, labels={"worker": 0})
        assert reg.histogram("wait", labels={"worker": 0}).count == 1
        assert reg.histogram("wait") is None

    def test_labeled_counters_survive_counters_since(self):
        reg = MetricsRegistry()
        reg.inc("tasks", 1, labels={"worker": 0})
        before = reg.counter_values()
        reg.inc("tasks", 4, labels={"worker": 0})
        assert reg.counters_since(before) == {'tasks{worker="0"}': 4.0}

    def test_prometheus_renders_native_label_sets(self):
        reg = MetricsRegistry()
        reg.inc("shard.worker.tasks", 3, labels={"worker": 0})
        reg.inc("shard.worker.tasks", 5, labels={"worker": 1})
        reg.set_gauge("shard.stripe.objects", 42, labels={"shard": 1})
        text = prometheus_text(reg)
        assert 'repro_shard_worker_tasks_total{worker="0"} 3' in text
        assert 'repro_shard_worker_tasks_total{worker="1"} 5' in text
        assert 'repro_shard_stripe_objects{shard="1"} 42' in text
        # One HELP/TYPE header per metric name, not per labeled series.
        assert text.count("# TYPE repro_shard_worker_tasks_total counter") == 1
        parsed = parse_prometheus_text(text)
        key = 'repro_shard_worker_tasks_total{worker="1"}'
        assert parsed[key] == 5.0
        name, labels = split_labels(key)
        assert name == "repro_shard_worker_tasks_total"
        assert labels == {"worker": "1"}

    def test_prometheus_labeled_histogram_merges_le(self):
        reg = MetricsRegistry()
        reg.observe("wait", 0.01, bounds=(0.1, 1.0), labels={"worker": 0})
        text = prometheus_text(reg)
        assert 'repro_wait_bucket{le="0.1",worker="0"} 1' in text
        assert 'repro_wait_bucket{le="+Inf",worker="0"} 1' in text
        assert 'repro_wait_count{worker="0"} 1' in text
        parsed = parse_prometheus_text(text)
        assert parsed['repro_wait_sum{worker="0"}'] == pytest.approx(0.01)

    def test_label_values_escaped_in_exposition(self):
        reg = MetricsRegistry()
        reg.inc("weird", 1, labels={"path": 'a"b\\c'})
        text = prometheus_text(reg)
        assert 'path="a\\"b\\\\c"' in text


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram(bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        # cumulative (bound, count) pairs: <=0.1, <=1.0, <=10.0, +Inf
        assert [c for _, c in h.cumulative()] == [1, 2, 3, 4]
        assert h.cumulative()[-1][0] == float("inf")

    def test_boundary_value_falls_in_bucket(self):
        h = Histogram(bounds=(1.0,))
        h.observe(1.0)
        assert [c for _, c in h.cumulative()] == [1, 1]

    def test_registry_observe_uses_default_buckets(self):
        reg = MetricsRegistry()
        reg.observe("cycle.total_seconds", 0.002)
        h = reg.histogram("cycle.total_seconds")
        assert h.bounds == DEFAULT_TIME_BUCKETS
        assert h.count == 1


# ----------------------------------------------------------------- tracing
class TestTracer:
    def test_nested_span_paths(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        with tracer.span("answer"):
            with tracer.span("gather"):
                pass
            with tracer.span("select"):
                pass
        counters = reg.counter_values()
        assert counters["span.answer.calls"] == 1.0
        assert counters["span.answer.gather.calls"] == 1.0
        assert counters["span.answer.select.calls"] == 1.0
        assert counters["span.answer.seconds"] >= (
            counters["span.answer.gather.seconds"]
            + counters["span.answer.select.seconds"]
        )
        assert tracer.depth == 0

    def test_exception_still_pops_and_records(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.depth == 0
        counters = reg.counter_values()
        assert counters["span.outer.calls"] == 1.0
        assert counters["span.outer.inner.calls"] == 1.0
        # a fresh span after the exception nests from the root again
        with tracer.span("next"):
            pass
        assert "span.next.calls" in reg.counter_values()

    def test_span_duration_recorded(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("s") as span:
            time.sleep(0.001)
        assert span.duration >= 0.001

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything") as span:
            with NULL_TRACER.span("nested"):
                pass
        assert span.duration == 0.0
        assert NULL_TRACER.depth == 0

    def test_span_seconds_helper(self):
        counters = {
            "span.answer.seconds": 0.5,
            "span.answer.calls": 2.0,
            "oi.answer.cells_visited": 9.0,
        }
        assert span_seconds(counters) == {"answer": 0.5}


class TestNoOpOverhead:
    def test_disabled_emission_is_cheap(self):
        """A null-registry inc must cost roughly a method call, not more.

        Generous bound (20x an attribute lookup loop) so the test cannot
        flake on slow CI; the real <3% gate lives in
        benchmarks/bench_obs_overhead.py.
        """
        null = NULL_REGISTRY
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            null.inc("a.b", 3)
        null_cost = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(n):
            pass
        loop_cost = time.perf_counter() - start
        assert null_cost < max(20 * loop_cost, 0.25)


# ---------------------------------------------------------------- counters
class TestCounterBlock:
    def test_snapshot_and_diff(self):
        class Block(CounterBlock):
            FIELDS = ("hits", "misses")

        b = Block()
        assert b.hits == 0 and b.misses == 0
        before = b.snapshot()
        b.hits += 3
        assert b.diff(before) == {"hits": 3}
        b.reset()
        assert b.snapshot() == {"hits": 0, "misses": 0}
        assert "hits=3" not in repr(b)


# --------------------------------------------------------------- exporters
def _run_instrumented_system(cycles=3, n=400, k=4, nq=6, seed=3):
    import numpy as np

    from repro.engines.registry import build_system
    from repro.motion import RandomWalkModel, make_dataset, make_queries

    registry = MetricsRegistry()
    queries = make_queries(nq, seed=seed)
    system = build_system("object_indexing", k, queries, registry=registry)
    positions = make_dataset("uniform", n, seed=seed + 1)
    motion = RandomWalkModel(vmax=0.01, seed=seed + 2)
    system.load(positions)
    for _ in range(cycles):
        positions = motion.step(positions)
        system.tick(positions)
    return system


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        system = _run_instrumented_system()
        path = tmp_path / "cycles.jsonl"
        written = write_history_jsonl(system, path)
        assert written == len(system.history)
        records = read_history_jsonl(path)
        assert len(records) == written
        for rec, stats in zip(records, system.history):
            assert rec["timestamp"] == pytest.approx(stats.timestamp)
            assert rec["index_time"] == pytest.approx(stats.index_time)
            assert rec["answer_time"] == pytest.approx(stats.answer_time)
            assert rec["counters"] == pytest.approx(dict(stats.counters))
        # each line is independently parseable JSON
        lines = path.read_text().strip().split("\n")
        assert all(json.loads(line) for line in lines)

    def test_jsonl_accepts_file_object_and_plain_history(self):
        system = _run_instrumented_system(cycles=1)
        buf = io.StringIO()
        written = write_history_jsonl(system.history, buf)
        assert written == 2
        assert len(history_records(system.history)) == 2

    def test_prometheus_round_trip(self):
        system = _run_instrumented_system()
        reg = system.registry
        text = prometheus_text(reg, prefix="repro")
        assert "# TYPE" in text and "# HELP" in text
        parsed = parse_prometheus_text(text)
        assert parsed["repro_cycle_count_total"] == reg.counter("cycle.count")
        hist = reg.histogram("cycle.total_seconds")
        assert parsed["repro_cycle_total_seconds_count"] == hist.count
        assert parsed["repro_cycle_total_seconds_sum"] == pytest.approx(hist.sum)
        # cumulative buckets are monotone and end at +Inf == count
        bucket_keys = [k for k in parsed if "_bucket{" in k]
        assert any('le="+Inf"' in k for k in bucket_keys)

    def test_prometheus_name_sanitisation(self):
        reg = MetricsRegistry()
        reg.inc("oi.answer.cells-visited", 2)
        text = prometheus_text(reg)
        assert "repro_oi_answer_cells_visited_total 2" in text

    def test_mean_cycle_counters_skips_load(self):
        system = _run_instrumented_system(cycles=2)
        means = mean_cycle_counters(system.history)
        ticks = system.history[1:]
        expected = sum(s.counters["oi.answer.overhaul_calls"] for s in ticks) / len(
            ticks
        )
        assert means["oi.answer.overhaul_calls"] == pytest.approx(expected)

    def test_cycle_report_contains_key_sections(self):
        from repro.obs import cycle_report

        system = _run_instrumented_system()
        report = cycle_report(system)
        assert system.engine.name in report
        assert "oi.answer.cells_visited" in report
        assert "maintain" in report
