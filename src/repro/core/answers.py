"""k-NN answer lists.

Each monitored query maintains "an ordered list of k objects sorted from
the nearest neighbor to the furthest" (paper, Fig. 1).  :class:`AnswerList`
is that structure: a bounded, distance-sorted list of ``(object_id,
distance)`` pairs.  For the small ``k`` typical of this workload (the paper
sweeps k up to 20) binary-search insertion into a flat list beats a heap.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from ..errors import ConfigurationError

Neighbor = Tuple[int, float]
"""An ``(object_id, distance)`` pair as reported to users."""


class AnswerList:
    """A bounded list of the k nearest objects seen so far.

    Entries are ``(squared_distance, object_id)`` so plain tuple ordering
    sorts by distance (object id breaks exact ties deterministically).
    """

    __slots__ = ("k", "_entries")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: List[Tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def full(self) -> bool:
        """True once k candidates have been collected."""
        return len(self._entries) >= self.k

    @property
    def worst_dist2(self) -> float:
        """Squared distance of the current k-th nearest candidate.

        ``inf`` while the list still has free slots, so any candidate is
        accepted.
        """
        if len(self._entries) < self.k:
            return math.inf
        return self._entries[-1][0]

    def offer(self, dist2: float, object_id: int) -> bool:
        """Consider a candidate; keep it only if it beats the k-th best.

        Returns True when the candidate entered the list.  The comparison
        is on the full ``(dist2, object_id)`` tuple, so exact distance
        ties at the k-th slot resolve to the lowest ID *regardless of the
        order candidates arrive in* — the final content is a pure
        function of the candidate multiset.  That makes answers identical
        across index backends that enumerate cell contents in different
        orders (see :mod:`repro.engines.snapshot`).
        """
        entries = self._entries
        entry = (dist2, object_id)
        if len(entries) < self.k:
            insort(entries, entry)
            return True
        if entry >= entries[-1]:
            return False
        entries.pop()
        insort(entries, entry)
        return True

    def object_ids(self) -> List[int]:
        """The neighbor IDs, nearest first."""
        return [object_id for _, object_id in self._entries]

    def neighbors(self) -> List[Neighbor]:
        """The answer as ``(object_id, distance)`` pairs, nearest first."""
        return [(object_id, math.sqrt(d2)) for d2, object_id in self._entries]

    def kth_dist(self) -> float:
        """Distance to the k-th (furthest reported) neighbor."""
        if not self._entries:
            return math.inf
        return math.sqrt(self._entries[-1][0])


@dataclass(frozen=True)
class QueryAnswer:
    """An immutable, timestamped k-NN answer for one query.

    ``timestamp`` is the snapshot time the answer is exact for — the paper's
    guarantee is exactness with a reporting delay, so every answer carries
    the instant it refers to.
    """

    query_id: int
    timestamp: float
    neighbors: Tuple[Neighbor, ...] = field(default=())

    @property
    def k(self) -> int:
        return len(self.neighbors)

    def object_ids(self) -> Tuple[int, ...]:
        return tuple(object_id for object_id, _ in self.neighbors)

    def kth_dist(self) -> float:
        if not self.neighbors:
            return math.inf
        return self.neighbors[-1][1]


def answers_equal(
    left: Sequence[Neighbor], right: Sequence[Neighbor], tol: float = 1e-12
) -> bool:
    """Whether two answers agree, allowing reordering of exact distance ties.

    Two valid exact answers may order equidistant objects differently; this
    comparison treats them as equal when the sorted distance profiles match
    and IDs only differ inside groups of equal distance.  The final group is
    special: when several objects tie at the k-th distance, any size-k
    truncation is a correct answer, so for that group only the size is
    compared.
    """
    if len(left) != len(right):
        return False
    for (_, dl), (_, dr) in zip(left, right):
        if abs(dl - dr) > tol:
            return False

    def _groups(ans: Sequence[Neighbor]) -> List[frozenset]:
        groups: List[frozenset] = []
        group: List[int] = []
        group_dist = None
        for object_id, d in ans:
            if group_dist is None or abs(d - group_dist) <= tol:
                group.append(object_id)
                group_dist = d if group_dist is None else group_dist
            else:
                groups.append(frozenset(group))
                group = [object_id]
                group_dist = d
        if group:
            groups.append(frozenset(group))
        return groups

    left_groups = _groups(left)
    right_groups = _groups(right)
    if len(left_groups) != len(right_groups):
        return False
    # All interior groups must hold the same IDs; the group cut by the k-th
    # position may legitimately hold different (equidistant) IDs.
    return all(
        gl == gr for gl, gr in zip(left_groups[:-1], right_groups[:-1])
    ) and len(left_groups[-1]) == len(right_groups[-1])
