"""Moving-object datasets and motion models."""

from .datasets import (
    gaussian_clusters_dataset,
    hi_skewed_dataset,
    make_dataset,
    make_queries,
    skewed_dataset,
    skewness_statistic,
    uniform_dataset,
)
from .dispersion import DispersionProcess
from .linear import LinearMotionModel
from .random_walk import RandomWalkModel, reflect_into_unit

__all__ = [
    "DispersionProcess",
    "LinearMotionModel",
    "RandomWalkModel",
    "gaussian_clusters_dataset",
    "hi_skewed_dataset",
    "make_dataset",
    "make_queries",
    "reflect_into_unit",
    "skewed_dataset",
    "skewness_statistic",
    "uniform_dataset",
]
