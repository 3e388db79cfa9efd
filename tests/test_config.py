"""MethodConfig registry and the one system factory, build_system()."""

import numpy as np
import pytest

from repro import METHOD_CONFIGS, MethodConfig, build_system
from repro.core.config import (
    FastGridConfig,
    HierarchicalConfig,
    ObjectIndexingConfig,
    RTreeConfig,
    ShardedConfig,
    resolve_config,
)
from repro.errors import ConfigurationError


QUERIES = np.array([[0.25, 0.25], [0.75, 0.75]])


class TestRegistry:
    def test_every_method_has_a_config_class(self):
        expected = {
            "object_indexing", "query_indexing", "hierarchical", "rtree",
            "brute_force", "fast_grid", "tpr", "sharded",
        }
        assert set(METHOD_CONFIGS) == expected
        for name, cls in METHOD_CONFIGS.items():
            assert issubclass(cls, MethodConfig)
            assert cls.method == name

    def test_configs_are_frozen(self):
        config = ObjectIndexingConfig()
        with pytest.raises(Exception):
            config.maintenance = "incremental"

    def test_from_kwargs_rejects_unknown_naming_valid_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ObjectIndexingConfig.from_kwargs(ncell=64)
        message = str(excinfo.value)
        assert "'ncell'" in message
        for field in ("maintenance", "answering", "ncells", "delta"):
            assert field in message

    def test_merged_applies_overrides(self):
        config = ShardedConfig(workers=4).merged(shards=8)
        assert (config.workers, config.shards) == (4, 8)
        with pytest.raises(ConfigurationError):
            config.merged(worker=2)

    def test_resolve_config_paths(self):
        assert resolve_config("rtree").max_entries == 32
        assert resolve_config("rtree", None, {"max_entries": 8}).max_entries == 8
        base = RTreeConfig(maintenance="str_bulk")
        merged = resolve_config("rtree", base, {"max_entries": 16})
        assert (merged.maintenance, merged.max_entries) == ("str_bulk", 16)
        with pytest.raises(ConfigurationError):
            resolve_config("nope")
        with pytest.raises(ConfigurationError):
            resolve_config("rtree", FastGridConfig(), None)


class TestDictRoundTrip:
    """Satellite: config blocks round-trip through plain dicts so bench
    presets, CLI args, and the session layer share one validated path."""

    def test_every_method_round_trips(self):
        for name, cls in METHOD_CONFIGS.items():
            config = cls()
            data = config.to_dict()
            assert data["method"] == name
            assert MethodConfig.from_dict(data) == config
            assert cls.from_dict(data) == config

    def test_round_trip_preserves_overrides(self):
        config = ShardedConfig(workers=4, shards=8, seed_slack=0.25)
        clone = MethodConfig.from_dict(config.to_dict())
        assert clone == config and isinstance(clone, ShardedConfig)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MethodConfig.from_dict({"method": "fast_grid", "ncell": 64})
        assert "'ncell'" in str(excinfo.value)

    def test_from_dict_requires_method_on_base(self):
        with pytest.raises(ConfigurationError):
            MethodConfig.from_dict({"ncells": 64})
        with pytest.raises(ConfigurationError):
            MethodConfig.from_dict({"method": "nope"})

    def test_from_dict_missing_method_lists_every_known_method(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MethodConfig.from_dict({"ncells": 64})
        message = str(excinfo.value)
        assert "'method'" in message
        for name in METHOD_CONFIGS:
            assert name in message

    def test_from_dict_unknown_method_lists_every_known_method(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MethodConfig.from_dict({"method": "fast_gird"})
        message = str(excinfo.value)
        assert "'fast_gird'" in message
        for name in METHOD_CONFIGS:
            assert name in message

    def test_subclass_rejects_mismatched_method(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FastGridConfig.from_dict({"method": "rtree"})
        message = str(excinfo.value)
        assert "'rtree'" in message and "'fast_grid'" in message

    def test_resolve_config_accepts_mapping(self):
        config = resolve_config("sharded", {"method": "sharded", "workers": 2})
        assert isinstance(config, ShardedConfig) and config.workers == 2
        with pytest.raises(ConfigurationError):
            resolve_config("sharded", {"method": "rtree"})

    def test_create_accepts_dict_config(self):
        system = build_system(
            "fast_grid", 2, QUERIES, config={"method": "fast_grid", "ncells": 16}
        )
        assert system.engine._ncells == 16


class TestCreate:
    @pytest.mark.parametrize(
        "method,engine_name,options",
        [
            ("object_indexing", "object-indexing/rebuild/overhaul", {}),
            ("query_indexing", "query-indexing/incremental", {}),
            ("hierarchical", "hierarchical/incremental/incremental", {}),
            ("rtree", "rtree/overhaul", {}),
            ("brute_force", "brute-force", {}),
            ("fast_grid", "fast-grid", {}),
            ("fast_grid", "fast-grid", {"ncells": 8}),
            ("tpr", "tprtree/predictive", {}),
            # oversubscribe makes the effective worker count (and so the
            # engine name) independent of the CI box's core count.
            ("sharded", "sharded/2w2s", {"oversubscribe": True}),
        ],
    )
    def test_create_builds_every_method(self, method, engine_name, options):
        system = build_system(method, 2, QUERIES, **options)
        try:
            assert system.engine.name == engine_name
        finally:
            system.close()

    def test_create_unknown_option_names_valid_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_system("sharded", 2, QUERIES, shardz=3)
        assert "'shardz'" in str(excinfo.value)
        assert "workers" in str(excinfo.value)

    def test_create_with_config_block_and_override(self):
        system = build_system(
            "sharded", 2, QUERIES,
            config=ShardedConfig(workers=0, shards=3), seed_slack=0.1,
        )
        with system:
            engine = system.engine
            assert (engine.workers, engine.n_shards, engine.seed_slack) == (0, 3, 0.1)

    def test_factories_reject_positional_options(self):
        with pytest.raises(TypeError):
            build_system("object_indexing", 2, QUERIES, "incremental")

    @pytest.mark.parametrize(
        "factory,bad_kwarg",
        [
            ("object_indexing", {"ncell": 10}),
            ("query_indexing", {"cells": 10}),
            ("hierarchical", {"delta": 0.1}),
            ("rtree", {"max_entry": 8}),
            ("fast_grid", {"workers": 2}),
            ("sharded", {"ncells": 32}),
        ],
    )
    def test_factories_reject_unknown_kwargs(self, factory, bad_kwarg):
        with pytest.raises(ConfigurationError):
            build_system(factory, 2, QUERIES, **bad_kwarg)

    def test_engine_value_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            build_system("rtree", 2, QUERIES, maintenance="nope")


class TestBenchResolution:
    def test_bench_presets_resolve_through_registry(self):
        from repro.bench.runner import BENCH_PRESETS

        for name, (method, preset) in BENCH_PRESETS.items():
            assert method in METHOD_CONFIGS
            # preset option names must be valid for the method
            METHOD_CONFIGS[method].from_kwargs(**preset)
        system = build_system("object_overhaul", 2, QUERIES)
        assert system.engine.name == "object-indexing/rebuild/overhaul"

    def test_build_system_accepts_registry_names_and_overrides(self):
        system = build_system("sharded", 2, QUERIES, workers=0, shards=2)
        with system:
            assert system.engine.name == "sharded/0w2s"
        with pytest.raises(ConfigurationError):
            build_system("object_overhaul", 2, QUERIES, ncell=64)
        with pytest.raises(ConfigurationError):
            build_system("nope", 2, QUERIES)
