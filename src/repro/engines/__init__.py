"""Monitoring engines: one module per method, one registry, one pipeline.

* :mod:`~repro.engines.base` — the :class:`BaseEngine` contract, the
  unified :class:`CycleTiming` record and the :class:`CyclePipeline`
  that owns load/maintain/answer sequencing and timing capture.
* One module per paper-faithful engine (``object_indexing``,
  ``query_indexing``, ``hierarchical``, ``rtree_engine``, ``brute``); the
  vectorized engine lives with its kernels (``repro.core.fast_index``),
  and TPR in ``repro.tprtree.engine``.
* :mod:`~repro.engines.registry` — the single method-name -> engine
  table every construction path resolves through.
* :mod:`~repro.engines.snapshot` — the :class:`SnapshotIndex` protocol
  and the backend-agnostic query operators the auxiliary workloads use.
"""

from .base import (
    BaseEngine,
    CyclePipeline,
    CycleTiming,
)
from .brute import BruteForceEngine
from .hierarchical import HierarchicalEngine
from .object_indexing import ObjectIndexingEngine
from .query_indexing import QueryIndexingEngine
from .registry import (
    BENCH_PRESETS,
    ENGINE_PATHS,
    build_system,
    engine_class,
    make_engine,
)
from .rtree_engine import RTreeEngine
from .snapshot import (
    SNAPSHOT_BACKENDS,
    SnapshotIndex,
    make_snapshot,
    snapshot_knn,
    snapshot_knn_seeded,
    snapshot_range,
)

__all__ = [
    "BENCH_PRESETS",
    "BaseEngine",
    "BruteForceEngine",
    "CyclePipeline",
    "CycleTiming",
    "ENGINE_PATHS",
    "FastGridEngine",
    "HierarchicalEngine",
    "ObjectIndexingEngine",
    "QueryIndexingEngine",
    "RTreeEngine",
    "SNAPSHOT_BACKENDS",
    "SnapshotIndex",
    "build_system",
    "engine_class",
    "make_engine",
    "make_snapshot",
    "snapshot_knn",
    "snapshot_knn_seeded",
    "snapshot_range",
]


def __getattr__(name: str):
    # The fast-grid engine lives with its numpy kernels; resolve it on
    # first access instead of at package import.
    if name == "FastGridEngine":
        from ..core.fast_index import FastGridEngine

        return FastGridEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
