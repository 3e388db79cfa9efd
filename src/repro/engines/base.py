"""Engine protocol and the unified monitoring-cycle pipeline.

A monitoring *engine* packages one method's index maintenance and query
answering behind the three-call contract of the paper's cycle (§3):
``load`` (initial build), ``maintain`` (per-cycle index maintenance) and
``answer`` (exact k-NNs of every query for the last snapshot).

:class:`CyclePipeline` owns everything that used to be duplicated between
the monitor layer and the benchmark layer: the load/maintain/answer
sequencing, wall-clock timing capture per stage, and observability
binding (metrics registry + tracer propagation into the engine).  Each
executed cycle appends one :class:`CycleTiming` record to
:attr:`CyclePipeline.history`.

:class:`CycleTiming` is the single cycle-timing type of the repository:
a record with ``cycles == 1`` is one cycle's breakdown, and
:meth:`CycleTiming.from_history` folds a history into the steady-state
means the benchmark tables print.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, IndexStateError
from ..obs.export import mean_cycle_counters
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..obs.tracing import NULL_TRACER, Tracer, span_seconds
from ..core.answers import AnswerList

# The churn delta records and the snapshot protocol live in the state
# plane now (they are produced by the WorldStore); re-exported here
# because engine code and external callers historically import them
# from this module.
from ..state import (  # noqa: F401  (re-exports)
    ObjectDelta,
    PositionsLike,
    QueryDelta,
    WorldSnapshot,
    as_world_snapshot,
)

_MAINTENANCE_MODES = ("rebuild", "incremental")
_ANSWERING_MODES = ("overhaul", "incremental")


def _as_queries(queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ConfigurationError("queries must be an (NQ, 2) array")
    return queries


class BaseEngine(abc.ABC):
    """One monitoring method: how to maintain an index and answer queries."""

    name = "base"

    #: Whether the engine can index a row-stable position universe with a
    #: changing live subset (``ObjectDelta.member_idx``).  Engines without
    #: it receive densely packed positions and rebuild on churn.
    supports_member_idx: ClassVar[bool] = False

    def __init__(self, k: int, queries: np.ndarray) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self.queries = _as_queries(queries)
        self._positions: Optional[np.ndarray] = None
        self._rebuild_pending = False
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.tracer = NULL_TRACER

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        """Attach a metrics sink and tracer (no-op instances by default).

        Subclasses propagate the tracer into their index structures so
        algorithm-level spans nest under the cycle-level ones.
        """
        self.metrics = registry
        self.tracer = tracer

    def set_queries(self, queries: np.ndarray) -> None:
        """Replace the query positions (queries may move between cycles).

        The query *set* must stay the same size: per-query state (previous
        answers, critical regions) is tracked positionally.  Correctness is
        unaffected — every incremental bound is recomputed from the new
        query position each cycle (§5.1 expects "comparable performance
        when query points are moving").
        """
        queries = _as_queries(queries)
        if len(queries) != len(self.queries):
            raise ConfigurationError(
                f"query count changed from {len(self.queries)} to "
                f"{len(queries)}; build a new monitoring system instead"
            )
        self.queries = queries

    # ------------------------------------------------------------------
    # Churn deltas (streaming session layer)
    # ------------------------------------------------------------------
    def request_rebuild(self) -> None:
        """Ask the pipeline to run :meth:`load` instead of :meth:`maintain`
        on the next cycle (cross-cycle state is about to be invalid).  The
        request stands until a :meth:`load` returns."""
        self._rebuild_pending = True

    def apply_query_delta(self, delta: QueryDelta) -> None:
        """Admit one cycle's batched query registrations and drops.

        The default is the cheap, always-correct fallback: swap the
        query array wholesale (unlike :meth:`set_queries`, the count may
        change) and request a rebuild, which resets whatever per-query
        state the engine tracks positionally.  Engines with remappable
        per-query state override this and use ``delta.kept`` instead.
        """
        self.queries = _as_queries(delta.queries)
        self.request_rebuild()

    def apply_object_delta(self, delta: ObjectDelta) -> None:
        """Admit one cycle's batched object joins and leaves.

        Default fallback: any membership change (or a compaction remap)
        invalidates the index, so request a rebuild; pure-move cycles
        (empty delta) cost nothing.  Engines that can patch membership
        incrementally override this.
        """
        if delta.member_idx is not None and not self.supports_member_idx:
            raise ConfigurationError(
                f"engine {self.name!r} does not support member-mode position "
                "universes; pass densely packed positions instead"
            )
        if len(delta.joined) or len(delta.left) or delta.compacted:
            self.request_rebuild()

    @abc.abstractmethod
    def load(self, positions: PositionsLike) -> None:
        """Initial build from the first snapshot.

        ``positions`` is a :class:`~repro.state.WorldSnapshot` when the
        cycle runs through :class:`CyclePipeline` (a raw array handed to
        the pipeline is shim-wrapped first); ``np.asarray(positions,
        dtype=np.float64)`` recovers the read-only view either way.
        """

    @abc.abstractmethod
    def maintain(self, positions: PositionsLike) -> None:
        """Per-cycle index maintenance against a new snapshot."""

    @abc.abstractmethod
    def answer(self) -> List[AnswerList]:
        """Exact k-NN answers for the snapshot last passed to maintain()."""


@dataclass(frozen=True)
class CycleTiming:
    """Timing breakdown of one or more monitoring cycles (seconds).

    With ``cycles == 1`` (the default) this is the record of a single
    cycle at snapshot time ``timestamp``; :meth:`from_history` returns the
    steady-state *means* over a history with ``cycles`` set to the number
    of cycles averaged.  ``counters`` holds the per-cycle metric deltas
    (spans included) when the system runs with a
    :class:`~repro.obs.registry.MetricsRegistry`; it stays ``None`` on
    uninstrumented runs and never takes part in equality.
    """

    timestamp: float
    index_time: float
    answer_time: float
    counters: Optional[Mapping[str, float]] = field(default=None, compare=False)
    cycles: int = 1

    @property
    def total_time(self) -> float:
        return self.index_time + self.answer_time

    @staticmethod
    def mean_of(
        history: Sequence["CycleTiming"], skip_first: bool = True
    ) -> "tuple[float, float, int]":
        """``(mean index_time, mean answer_time, cycles averaged)``.

        The single source of truth for steady-state cycle means.  The
        initial build cycle is excluded by default.
        """
        stats = history[1:] if skip_first and len(history) > 1 else list(history)
        if not stats:
            raise IndexStateError("no cycle has run yet")
        cycles = len(stats)
        return (
            sum(s.index_time for s in stats) / cycles,
            sum(s.answer_time for s in stats) / cycles,
            cycles,
        )

    @classmethod
    def from_history(
        cls, history: Sequence["CycleTiming"], skip_first: bool = True
    ) -> "CycleTiming":
        """Steady-state means of a monitoring history (initial build excluded)."""
        index_time, answer_time, cycles = cls.mean_of(history, skip_first)
        counters = mean_cycle_counters(history, skip_first=skip_first) or None
        return cls(history[-1].timestamp, index_time, answer_time, counters, cycles)

    def span_means(self) -> Dict[str, float]:
        """Mean seconds per span path per cycle (empty if uninstrumented)."""
        return span_seconds(self.counters or {})


class CyclePipeline:
    """Owns the load/maintain/answer sequencing of a monitoring engine.

    One pipeline wraps one :class:`BaseEngine` and is the only place that
    times the paper's two cycle stages (index maintenance vs query
    answering), captures per-cycle counter deltas, and binds observability
    into the engine.  :class:`~repro.core.monitor.MonitoringSystem` is a
    thin facade over it; the bench layer reads the same
    :attr:`history` records.
    """

    def __init__(
        self,
        engine: BaseEngine,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.history: List[CycleTiming] = []
        #: Optional per-cycle observer ``(record, answers) -> None`` called
        #: after every executed cycle — the verify subsystem's record/replay
        #: hook (:mod:`repro.verify`).  The raw :class:`AnswerList` objects
        #: are passed through, so observers see exact squared distances
        #: before any sqrt packaging.
        self.cycle_hook: Optional[Callable[..., None]] = None
        self.registry: MetricsRegistry = (
            registry if registry is not None else NULL_REGISTRY
        )
        if tracer is None:
            tracer = Tracer(self.registry) if self.registry.enabled else NULL_TRACER
        self.tracer = tracer
        engine.bind_observability(self.registry, self.tracer)

    def bind(
        self, registry: MetricsRegistry, tracer: Optional[Tracer] = None
    ) -> None:
        """Swap the metrics sink (and tracer) and rebind the engine."""
        self.registry = registry
        if tracer is None:
            tracer = Tracer(registry) if registry.enabled else NULL_TRACER
        self.tracer = tracer
        self.engine.bind_observability(self.registry, self.tracer)

    def run_cycle(
        self, positions: PositionsLike, timestamp: float, initial: bool = False
    ) -> List[AnswerList]:
        """Run one full cycle; returns the raw per-query answer lists.

        ``positions`` may be a published
        :class:`~repro.state.WorldSnapshot` (the zero-copy path) or any
        ``(N, 2)`` array-like, which is wrapped into an anonymous
        snapshot here — engines always see the snapshot type.

        ``initial=True`` runs the engine's :meth:`~BaseEngine.load` stage
        (under the ``load`` span) and resets :attr:`history`; otherwise
        :meth:`~BaseEngine.maintain` runs under the ``maintain`` span.
        An engine-requested rebuild (:meth:`BaseEngine.request_rebuild`,
        the churn-delta fallback) also routes through :meth:`load` — but
        mid-stream, so :attr:`history` keeps accumulating.  The request is
        cleared only when that :meth:`load` returns.
        """
        world = as_world_snapshot(positions)
        registry = self.registry
        reload = self.engine._rebuild_pending or initial
        before = registry.counter_values() if registry.enabled else None
        if reload and not initial:
            registry.inc("cycle.churn_rebuilds")
        start = time.perf_counter()
        with self.tracer.span("load" if reload else "maintain"):
            if reload:
                self.engine.load(world)
                # Cleared only once the rebuild returns: a load that raises
                # leaves the request standing for the next cycle.
                self.engine._rebuild_pending = False
            else:
                self.engine.maintain(world)
        index_time = time.perf_counter() - start
        start = time.perf_counter()
        with self.tracer.span("answer"):
            answers = self.engine.answer()
        answer_time = time.perf_counter() - start
        counters = registry.counters_since(before) if before is not None else None
        record = CycleTiming(timestamp, index_time, answer_time, counters)
        if initial:
            self.history = [record]
        else:
            self.history.append(record)
        registry.inc("cycle.count")
        registry.observe("cycle.total_seconds", record.total_time)
        if self.cycle_hook is not None:
            self.cycle_hook(record, answers)
        return answers

    @property
    def last_record(self) -> CycleTiming:
        if not self.history:
            raise IndexStateError("no cycle has run yet")
        return self.history[-1]

    def mean_cycle_time(self, skip_first: bool = True) -> float:
        """Average total cycle time, by default excluding the initial build."""
        index_mean, answer_mean, _ = CycleTiming.mean_of(self.history, skip_first)
        return index_mean + answer_mean
