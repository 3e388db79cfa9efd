"""Continuous-monitoring facade over the engine layer.

:class:`MonitoringSystem` is the user-facing entry point.  It implements
the paper's cycle (§3): a snapshot ``OBJ_snapshot`` of the asynchronously
updated buffer ``OBJ_curr`` is taken every ``tau`` time units, the index is
maintained against the snapshot, and the exact k-NNs of every query are
recomputed.  Each returned answer carries the snapshot timestamp it is
exact for.

The engines themselves live in :mod:`repro.engines` (one module per
method); cycle sequencing and timing capture live in
:class:`repro.engines.base.CyclePipeline`.  Build a system by method name
with :func:`repro.engines.registry.build_system`, the one factory:

===========================  ==================================================
Method                       Paper method
===========================  ==================================================
``object_indexing``          one-level Object-Indexing (§3.1, §3.2)
``query_indexing``           Query-Indexing (§3.3)
``hierarchical``             hierarchical Object-Indexing (§4)
``rtree``                    R-tree overhaul / bottom-up baselines (§5.4)
``brute_force``              linear-scan oracle (not in the paper; testing)
``fast_grid``                vectorized CSR + batched answering (production
                             fast path, not a paper method; see fast_index)
``tpr``                      predictive TPR-tree (related-work baseline;
                             answers predicted positions)
===========================  ==================================================

``build_system`` resolves the name through the engine registry and its
typed :class:`~repro.core.config.MethodConfig` block — unknown keyword
arguments fail with a :class:`~repro.errors.ConfigurationError` naming
the valid fields.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..engines.base import BaseEngine, CyclePipeline, CycleTiming
from ..errors import ConfigurationError, IndexStateError
from ..obs.registry import MetricsRegistry
from .answers import AnswerList, QueryAnswer


class MonitoringSystem:
    """Continuous k-NN monitor over a population of moving objects.

    Construct with :func:`~repro.engines.registry.build_system`,
    :meth:`load` the first snapshot, then call :meth:`tick` once per cycle
    with each new snapshot.
    """

    def __init__(
        self,
        engine: BaseEngine,
        tau: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if tau <= 0.0:
            raise ConfigurationError(f"tau must be > 0, got {tau}")
        self.tau = tau
        self.cycle = 0
        self._loaded = False
        self.pipeline = CyclePipeline(engine, registry)

    # -- engine/pipeline delegation ------------------------------------
    @property
    def engine(self) -> BaseEngine:
        return self.pipeline.engine

    @property
    def history(self) -> List[CycleTiming]:
        return self.pipeline.history

    # Read-only: ``pipeline.bind`` is the one way to swap the sinks, so
    # the engine and the pipeline never disagree about them.
    @property
    def registry(self) -> MetricsRegistry:
        return self.pipeline.registry

    @property
    def tracer(self):
        return self.pipeline.tracer

    # -- monitoring ----------------------------------------------------
    @property
    def k(self) -> int:
        return self.engine.k

    @property
    def n_queries(self) -> int:
        return self.engine.n_queries

    @property
    def timestamp(self) -> float:
        """Snapshot time of the most recent cycle."""
        return self.cycle * self.tau

    def set_queries(self, queries: np.ndarray) -> None:
        """Move the monitored query points (the query count must not change)."""
        self.engine.set_queries(queries)

    def load(self, positions: np.ndarray) -> List[QueryAnswer]:
        """Take the initial snapshot, build the index, answer once."""
        answers = self.pipeline.run_cycle(positions, 0.0, initial=True)
        self.cycle = 0
        self._loaded = True
        return self._package(answers, 0.0)

    def tick(self, positions: np.ndarray) -> List[QueryAnswer]:
        """Run one monitoring cycle against a new snapshot."""
        if not self._loaded:
            raise IndexStateError("load() must run before tick()")
        self.cycle += 1
        timestamp = self.cycle * self.tau
        answers = self.pipeline.run_cycle(positions, timestamp)
        return self._package(answers, timestamp)

    def _package(
        self, answers: Sequence[AnswerList], timestamp: float
    ) -> List[QueryAnswer]:
        return [
            QueryAnswer(query_id, timestamp, tuple(answer.neighbors()))
            for query_id, answer in enumerate(answers)
        ]

    @property
    def last_stats(self) -> CycleTiming:
        return self.pipeline.last_record

    def mean_cycle_time(self, skip_first: bool = True) -> float:
        """Average total cycle time, by default excluding the initial build."""
        return self.pipeline.mean_cycle_time(skip_first)

    # -- resource management ---------------------------------------------
    def close(self) -> None:
        """Release engine-held OS resources through the engine's own
        ``close()``, if it has one (idempotent; no engine in this package
        holds any)."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "MonitoringSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
