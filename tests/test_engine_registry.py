"""The engine layer: registry coverage, unified pipeline, package exports.

Guards the invariants of the engines package: every configured method has
exactly one registered engine, ``build_system`` resolves every name
through the registry, and exactly one cycle-timing type exists.
"""

import numpy as np
import pytest

import repro
from repro.core.config import METHOD_CONFIGS
from repro.engines.base import BaseEngine, CycleTiming
from repro.engines.registry import (
    BENCH_PRESETS,
    ENGINE_PATHS,
    build_system,
    engine_class,
    make_engine,
    resolve_preset,
)
from repro.errors import ConfigurationError

QUERIES = np.array([[0.25, 0.25], [0.75, 0.75], [0.5, 0.1]])


def small_positions(seed=5, n=60):
    return np.random.default_rng(seed).random((n, 2))


class TestRegistryCoverage:
    def test_registry_covers_every_method(self):
        """The single-table invariant: engine registry == config registry."""
        assert set(ENGINE_PATHS) == set(METHOD_CONFIGS)

    def test_every_engine_class_resolves(self):
        for method in ENGINE_PATHS:
            cls = engine_class(method)
            assert issubclass(cls, BaseEngine), method

    def test_unknown_method_lists_known(self):
        with pytest.raises(ConfigurationError, match="fast_grid"):
            engine_class("nope")

    def test_engine_class_error_lists_every_method(self):
        with pytest.raises(ConfigurationError) as excinfo:
            engine_class("nope")
        message = str(excinfo.value)
        assert "'nope'" in message
        for name in ENGINE_PATHS:
            assert name in message

    def test_resolve_preset_error_lists_methods_and_presets(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_preset("object_overhual", {})  # typo'd preset name
        message = str(excinfo.value)
        assert "'object_overhual'" in message
        for name in list(METHOD_CONFIGS) + list(BENCH_PRESETS):
            assert name in message

    def test_every_preset_targets_a_registered_method(self):
        for preset, (method, _) in BENCH_PRESETS.items():
            assert method in ENGINE_PATHS, preset

    def test_resolve_preset_merges_overrides(self):
        method, options = resolve_preset("object_overhaul", {"ncells": 32})
        assert method == "object_indexing"
        assert options["maintenance"] == "rebuild"
        assert options["ncells"] == 32

    def test_make_engine_uniform_construction(self):
        from repro.core.config import resolve_config

        config = resolve_config("object_indexing", None, {"answering": "overhaul"})
        engine = make_engine(config, 2, QUERIES)
        assert engine.k == 2
        assert engine.answering == "overhaul"


class TestBuildSystem:
    def test_bare_method_and_preset_names(self):
        positions = small_positions()
        for name in ("object_indexing", "object_overhaul", "brute_force"):
            system = build_system(name, 2, QUERIES)
            system.load(positions)
            system.tick(positions)
            assert len(system.history) == 2

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            build_system("nope", 2, QUERIES)



class TestUnifiedCycleTiming:
    def test_exactly_one_timing_type(self):
        from repro.bench.runner import CycleTiming as bench_timing

        assert bench_timing is CycleTiming
        assert repro.CycleTiming is CycleTiming

    def test_single_record_and_summary_shapes(self):
        record = CycleTiming(1.0, 0.5, 0.25)
        assert record.cycles == 1
        assert record.total_time == pytest.approx(0.75)
        summary = CycleTiming.from_history(
            [CycleTiming(0.0, 1.0, 1.0), record, CycleTiming(2.0, 0.1, 0.05)]
        )
        assert summary.cycles == 2
        assert summary.index_time == pytest.approx(0.3)
        assert summary.answer_time == pytest.approx(0.15)

    def test_pipeline_owns_history(self):
        system = build_system("brute_force", 2, QUERIES)
        positions = small_positions()
        system.load(positions)
        system.tick(positions)
        assert system.history is system.pipeline.history
        assert [r.cycles for r in system.history] == [1, 1]
        assert system.last_stats is system.pipeline.last_record


class TestQuerySwapRegression:
    """Satellite: swapping queries between cycles must not leave stale
    per-query incremental state (previous-answer bounds) pointing at the
    old query positions."""

    @pytest.mark.parametrize("method,options", [("fast_grid", {})])
    def test_swapped_queries_stay_exact(self, method, options):
        from repro.core.brute import brute_force_knn

        rng = np.random.default_rng(41)
        positions = rng.random((300, 2))
        queries_a = rng.random((16, 2))
        queries_b = rng.random((16, 2))
        k = 4
        with build_system(method, k, queries_a, **options) as system:
            system.load(positions)
            current = queries_a
            for cycle in range(6):
                positions = np.clip(
                    positions + rng.normal(0, 0.005, positions.shape), 0, 1
                )
                current = queries_b if cycle % 2 == 0 else queries_a
                system.set_queries(current)
                answers = system.tick(positions)
                for (qx, qy), answer in zip(current, answers):
                    expected = brute_force_knn(positions, float(qx), float(qy), k)
                    assert answer.object_ids() == tuple(
                        oid for oid, _ in expected
                    ), f"{method} diverged after query swap on cycle {cycle}"


class TestFacadeCompatibility:
    def test_package_exports_engine_layer(self):
        for name in (
            "BaseEngine",
            "CyclePipeline",
            "CycleTiming",
            "FastGridEngine",
            "SnapshotIndex",
            "build_system",
            "make_snapshot",
            "snapshot_knn",
            "snapshot_range",
        ):
            assert name in repro.__all__, name
            assert hasattr(repro, name), name

    def test_registry_and_tracer_settable_through_facade(self):
        from repro.obs.registry import MetricsRegistry

        system = build_system("brute_force", 2, QUERIES)
        registry = MetricsRegistry()
        system.pipeline.bind(registry)
        assert system.registry is registry
        assert system.engine.metrics is registry

    def test_registry_and_tracer_are_read_only_on_the_facade(self):
        # Assigning either one would bypass CyclePipeline.bind and leave
        # the engine on its old sinks.
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracing import NULL_TRACER

        system = build_system("fast_grid", 2, QUERIES)
        with pytest.raises(AttributeError):
            system.registry = MetricsRegistry()
        with pytest.raises(AttributeError):
            system.tracer = NULL_TRACER
