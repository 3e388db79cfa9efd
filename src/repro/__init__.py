"""repro — grid-based continuous k-NN monitoring over moving objects.

A from-scratch reproduction of Yu, Pu & Koudas, *Monitoring k-Nearest
Neighbor Queries Over Moving Objects* (ICDE 2005).

Quickstart::

    from repro import build_system, make_dataset, make_queries, RandomWalkModel

    objects = make_dataset("uniform", n=10_000, seed=7)
    queries = make_queries(100, seed=11)
    motion = RandomWalkModel(vmax=0.005, seed=13)

    system = build_system("object_indexing", k=10, queries=queries)
    system.load(objects)
    for _ in range(10):
        objects = motion.step(objects)
        answers = system.tick(objects)   # exact k-NN per query, timestamped
"""

from .core import (
    METHOD_CONFIGS,
    AnswerDelta,
    AnswerList,
    CircleRegion,
    DeltaTracker,
    GNNMonitor,
    GroupQuery,
    HierarchicalObjectIndex,
    KNNJoinMonitor,
    MethodConfig,
    MonitoringSystem,
    ObjectIndex,
    QueryAnswer,
    QueryIndex,
    RKNNMonitor,
    RangeMonitor,
    Recommendation,
    RectRegion,
    SelfJoinMonitor,
    WorkloadProfile,
    answers_equal,
    brute_force_knn,
    calibrate,
    optimal_cell_size,
    pr_exit,
    recommend,
)
from .engines import (
    BaseEngine,
    CyclePipeline,
    CycleTiming,
    FastGridEngine,
    SnapshotIndex,
    build_system,
    make_snapshot,
    snapshot_knn,
    snapshot_range,
)
from .errors import (
    ConfigurationError,
    IndexStateError,
    NotEnoughObjectsError,
    OutOfRegionError,
    ReproError,
)
from .grid import Grid2D
from .motion import (
    DispersionProcess,
    RandomWalkModel,
    make_dataset,
    make_queries,
)
from .roadnet import (
    RoadNetwork,
    RoadNetworkModel,
    roadnet_dataset,
    synthetic_road_network,
)
from .motion.linear import LinearMotionModel
from .obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    cycle_report,
    prometheus_text,
    run_validation,
    write_history_jsonl,
)
from .rtree import RTree
from .service import MonitoringSession
from .state import WorldSnapshot, WorldStore
from .tprtree import TPREngine, TPRTree
from .viz import density_plot, side_by_side

__version__ = "1.0.0"

__all__ = [
    "AnswerDelta",
    "AnswerList",
    "BaseEngine",
    "CircleRegion",
    "ConfigurationError",
    "CyclePipeline",
    "CycleTiming",
    "DeltaTracker",
    "DispersionProcess",
    "FastGridEngine",
    "GNNMonitor",
    "Grid2D",
    "GroupQuery",
    "HierarchicalObjectIndex",
    "IndexStateError",
    "KNNJoinMonitor",
    "LinearMotionModel",
    "METHOD_CONFIGS",
    "MethodConfig",
    "MetricsRegistry",
    "MonitoringSession",
    "MonitoringSystem",
    "NULL_REGISTRY",
    "NotEnoughObjectsError",
    "NullRegistry",
    "ObjectIndex",
    "OutOfRegionError",
    "QueryAnswer",
    "QueryIndex",
    "RKNNMonitor",
    "RTree",
    "RangeMonitor",
    "Recommendation",
    "RectRegion",
    "SelfJoinMonitor",
    "SnapshotIndex",
    "TPREngine",
    "TPRTree",
    "Tracer",
    "WorkloadProfile",
    "WorldSnapshot",
    "WorldStore",
    "RandomWalkModel",
    "ReproError",
    "RoadNetwork",
    "RoadNetworkModel",
    "answers_equal",
    "brute_force_knn",
    "build_system",
    "calibrate",
    "cycle_report",
    "density_plot",
    "make_dataset",
    "make_queries",
    "make_snapshot",
    "side_by_side",
    "snapshot_knn",
    "snapshot_range",
    "optimal_cell_size",
    "pr_exit",
    "prometheus_text",
    "recommend",
    "roadnet_dataset",
    "run_validation",
    "synthetic_road_network",
    "write_history_jsonl",
    "__version__",
]
