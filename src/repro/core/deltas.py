"""Answer deltas: what changed between two consecutive k-NN answers.

Continuous applications rarely consume raw answer lists; they react to
*changes* — a rival entering combat range, a customer leaving a store's
top-k.  :func:`answer_delta` computes the entered/left/reordered sets
between two answers for the same query, and :class:`DeltaTracker` does it
for a whole query workload across cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from .answers import Neighbor, QueryAnswer


@dataclass(frozen=True)
class AnswerDelta:
    """Difference between consecutive answers of one query."""

    query_id: int
    entered: Tuple[int, ...]  # object IDs newly in the k-NN
    left: Tuple[int, ...]  # object IDs no longer in the k-NN
    reordered: bool  # same membership but different ranking

    @property
    def changed(self) -> bool:
        return bool(self.entered or self.left or self.reordered)

    @property
    def churn(self) -> int:
        """Number of membership changes (entries + exits)."""
        return len(self.entered) + len(self.left)


def answer_delta(
    query_id: int,
    previous: Sequence[Neighbor],
    current: Sequence[Neighbor],
) -> AnswerDelta:
    """Compute the delta between two answers of the same query."""
    previous_ids = [object_id for object_id, _ in previous]
    current_ids = [object_id for object_id, _ in current]
    previous_set = set(previous_ids)
    current_set = set(current_ids)
    entered = tuple(sorted(current_set - previous_set))
    left = tuple(sorted(previous_set - current_set))
    reordered = not entered and not left and previous_ids != current_ids
    return AnswerDelta(query_id, entered, left, reordered)


class DeltaTracker:
    """Track per-query answer changes across monitoring cycles.

    Feed it the :class:`QueryAnswer` lists produced by
    :meth:`~repro.core.monitor.MonitoringSystem.tick`; it returns the
    deltas against the previous cycle and accumulates churn statistics.

    Passing a :class:`~repro.obs.registry.MetricsRegistry` emits the
    churn as ``delta_tracker.*`` counters beside the engine's own, so a
    cycle's answer churn reads next to the work that produced it.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._previous: Dict[int, Tuple[Neighbor, ...]] = {}
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.cycles = 0
        self.total_churn = 0
        self.total_changed = 0

    def update(self, answers: Sequence[QueryAnswer]) -> List[AnswerDelta]:
        """Record one cycle's answers; returns the per-query deltas.

        The first cycle reports every non-empty answer as fully "entered".
        """
        deltas: List[AnswerDelta] = []
        entered = left = reordered = changed = 0
        for qa in answers:
            previous = self._previous.get(qa.query_id, ())
            delta = answer_delta(qa.query_id, previous, qa.neighbors)
            deltas.append(delta)
            self._previous[qa.query_id] = qa.neighbors
            self.total_churn += delta.churn
            entered += len(delta.entered)
            left += len(delta.left)
            reordered += int(delta.reordered)
            if delta.changed:
                self.total_changed += 1
                changed += 1
        self.cycles += 1
        registry = self.registry
        registry.inc("delta_tracker.cycles")
        registry.inc("delta_tracker.answers", len(deltas))
        registry.inc("delta_tracker.entered", entered)
        registry.inc("delta_tracker.left", left)
        registry.inc("delta_tracker.reordered", reordered)
        registry.inc("delta_tracker.changed_queries", changed)
        registry.inc("delta_tracker.churn", entered + left)
        return deltas

    def mean_churn_per_cycle(self) -> float:
        """Average membership changes per cycle across all queries."""
        if self.cycles == 0:
            return 0.0
        return self.total_churn / self.cycles
