"""The single engine registry: method name -> engine class.

Every path that turns a method name into a running system resolves
through this table via :func:`build_system`, the one system factory:
the session, the benchmark presets (:data:`BENCH_PRESETS`) and the
experiment functions in :mod:`repro.bench.experiments` all call it.
Engine classes are looked up lazily by dotted path so importing the
registry stays cheap (the sharded engine, for instance, drags in
``multiprocessing``).
"""

from __future__ import annotations

import importlib
from typing import Dict, Mapping, Optional, Tuple, Type, Union

import numpy as np

from ..core.config import METHOD_CONFIGS, MethodConfig, resolve_config
from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry
from .base import BaseEngine

#: Method name -> (module, class name) of its engine.  The keys are
#: exactly the keys of :data:`~repro.core.config.METHOD_CONFIGS`; the
#: ``test_registry_covers_every_method`` test enforces that.
ENGINE_PATHS: Dict[str, Tuple[str, str]] = {
    "object_indexing": ("repro.engines.object_indexing", "ObjectIndexingEngine"),
    "query_indexing": ("repro.engines.query_indexing", "QueryIndexingEngine"),
    "hierarchical": ("repro.engines.hierarchical", "HierarchicalEngine"),
    "rtree": ("repro.engines.rtree_engine", "RTreeEngine"),
    "brute_force": ("repro.engines.brute", "BruteForceEngine"),
    "fast_grid": ("repro.core.fast_index", "FastGridEngine"),
    "tpr": ("repro.tprtree.engine", "TPREngine"),
    "sharded": ("repro.shard.engine", "ShardedGridEngine"),
}


def engine_class(method: str) -> Type[BaseEngine]:
    """The engine class registered for a method name."""
    try:
        module_path, class_name = ENGINE_PATHS[method]
    except KeyError:
        known = ", ".join(sorted(ENGINE_PATHS))
        raise ConfigurationError(
            f"no engine registered for method {method!r}; known: {known}"
        ) from None
    return getattr(importlib.import_module(module_path), class_name)


def make_engine(config: MethodConfig, k: int, queries: np.ndarray) -> BaseEngine:
    """Instantiate the engine a config block describes.

    Uniform across all methods: the config's fields are exactly the
    engine constructor's keyword arguments after ``(k, queries)``.
    """
    cls = engine_class(config.method)
    return cls(k, queries, **config._engine_kwargs())


# Benchmark method names -> (registry method, preset options).  Each entry
# maps to one line in the paper's figures; systems are built through the
# same MethodConfig registry as bare method names, so preset names and
# caller overrides are validated identically everywhere.
BENCH_PRESETS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "object_overhaul": (
        "object_indexing", {"maintenance": "rebuild", "answering": "overhaul"}
    ),
    "object_incremental": (
        "object_indexing", {"maintenance": "incremental", "answering": "incremental"}
    ),
    "query_indexing": ("query_indexing", {"maintenance": "incremental"}),
    "query_indexing_rebuild": ("query_indexing", {"maintenance": "rebuild"}),
    "hierarchical_rebuild": (
        "hierarchical", {"maintenance": "rebuild", "answering": "incremental"}
    ),
    "hierarchical_incremental": (
        "hierarchical", {"maintenance": "incremental", "answering": "incremental"}
    ),
    "rtree_overhaul": ("rtree", {"maintenance": "overhaul"}),
    "rtree_bottom_up": ("rtree", {"maintenance": "bottom_up"}),
    "rtree_str_bulk": ("rtree", {"maintenance": "str_bulk"}),
    "brute_force": ("brute_force", {}),
    "tpr_predictive": ("tpr", {}),
    "fast_grid": ("fast_grid", {}),
    "sharded": ("sharded", {}),
}


def resolve_preset(method: str, overrides: Mapping[str, object]) -> Tuple[str, Dict[str, object]]:
    """``(registry method, merged options)`` for a preset or bare method name.

    Bare registry method names are authoritative: they always resolve to
    the method's config-class defaults, never to a preset that happens to
    share the name.  Presets with non-default payloads therefore carry
    distinct names (``hierarchical_rebuild``, ``object_overhaul``, ...);
    the remaining same-named entries in :data:`BENCH_PRESETS` are no-op
    shadows kept so the bench suite can enumerate one table.
    """
    if method in METHOD_CONFIGS:
        return method, dict(overrides)
    if method in BENCH_PRESETS:
        base, preset = BENCH_PRESETS[method]
        merged: Dict[str, object] = dict(preset)
        merged.update(overrides)
        return base, merged
    known = ", ".join(sorted(set(BENCH_PRESETS) | set(METHOD_CONFIGS)))
    raise ConfigurationError(f"unknown method {method!r}; known: {known}")


def build_system(
    method: str,
    k: int,
    queries: np.ndarray,
    *,
    config: Optional[Union[MethodConfig, Mapping[str, object]]] = None,
    tau: float = 1.0,
    registry: Optional[MetricsRegistry] = None,
    **overrides: object,
):
    """Build a :class:`~repro.core.monitor.MonitoringSystem` by name.

    The one system factory.  ``method`` may be a benchmark
    preset (``object_overhaul``, ...) or any bare registry method name
    (``object_indexing``, ``sharded``, ...); ``config`` may be a typed
    :class:`~repro.core.config.MethodConfig` block or a plain dict
    (validated via :meth:`~repro.core.config.MethodConfig.from_dict`);
    keyword ``overrides`` are applied on top of the preset's options and
    validated against the method's config class either way.
    """
    from ..core.monitor import MonitoringSystem

    base, merged = resolve_preset(method, overrides)
    resolved = resolve_config(base, config, merged)
    return MonitoringSystem(
        make_engine(resolved, k, queries), tau=tau, registry=registry
    )
