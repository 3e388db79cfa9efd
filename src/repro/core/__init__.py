"""Core monitoring algorithms: the paper's primary contribution."""

from .advisor import Recommendation, WorkloadProfile, calibrate, recommend
from .answers import AnswerList, Neighbor, QueryAnswer, answers_equal
from .brute import brute_force_all, brute_force_knn
from .cost_model import (
    ObjectIndexingCost,
    SkewedQueryCost,
    expected_knn_radius_uniform,
    fit_linear,
    fit_power_law,
    incremental_maintenance_cost,
    linearity_r2,
    optimal_cell_size,
    pr_exit,
    pr_exit_paper,
)
from .deltas import AnswerDelta, DeltaTracker, answer_delta
from .gnn import GNNMonitor, GroupQuery, brute_force_group_knn, group_knn
from .hierarchical import HierarchicalObjectIndex
from .knn_join import KNNJoinMonitor, brute_force_knn_join
from .range_monitor import (
    CircleRegion,
    RangeMonitor,
    RectRegion,
    brute_force_range,
)
from .rknn import RKNNMonitor, brute_force_rknn
from .self_join import (
    SelfJoinMonitor,
    knn_self_join,
    knn_self_join_incremental,
)
from .config import (
    METHOD_CONFIGS,
    BruteForceConfig,
    FastGridConfig,
    HierarchicalConfig,
    MethodConfig,
    ObjectIndexingConfig,
    QueryIndexingConfig,
    RTreeConfig,
    TPRConfig,
)
from .monitor import MonitoringSystem
from .fast_index import CSRGrid, FastGridEngine
from .object_index import ObjectIndex
from .query_index import QueryIndex

__all__ = [
    "AnswerDelta",
    "AnswerList",
    "CircleRegion",
    "DeltaTracker",
    "GNNMonitor",
    "GroupQuery",
    "KNNJoinMonitor",
    "RKNNMonitor",
    "RangeMonitor",
    "RectRegion",
    "SelfJoinMonitor",
    "answer_delta",
    "brute_force_group_knn",
    "brute_force_knn_join",
    "calibrate",
    "recommend",
    "brute_force_range",
    "brute_force_rknn",
    "group_knn",
    "knn_self_join",
    "knn_self_join_incremental",
    "BruteForceConfig",
    "CSRGrid",
    "FastGridConfig",
    "HierarchicalConfig",
    "METHOD_CONFIGS",
    "MethodConfig",
    "ObjectIndexingConfig",
    "QueryIndexingConfig",
    "RTreeConfig",
    "TPRConfig",
    "FastGridEngine",
    "HierarchicalObjectIndex",
    "MonitoringSystem",
    "Neighbor",
    "ObjectIndex",
    "ObjectIndexingCost",
    "QueryAnswer",
    "QueryIndex",
    "Recommendation",
    "SkewedQueryCost",
    "WorkloadProfile",
    "answers_equal",
    "brute_force_all",
    "brute_force_knn",
    "expected_knn_radius_uniform",
    "fit_linear",
    "fit_power_law",
    "incremental_maintenance_cost",
    "linearity_r2",
    "optimal_cell_size",
    "pr_exit",
    "pr_exit_paper",
]
