"""Published world-state views and the churn delta records.

A :class:`WorldSnapshot` is the read-only face of one published store
epoch: the paper's ``OBJ_snapshot`` (§3) as a zero-copy view instead of
a private array per layer.  The session, the cycle pipeline and every
engine all read the *same* ``writeable=False`` view; the owning :class:`~repro.state.store.WorldStore`
keeps writing into its staging buffer and never mutates a published
epoch, which is what makes sharing safe.

Snapshots are array-likes: ``np.asarray(snapshot, dtype=np.float64)``
returns the read-only positions view without copying, so engine code
written against plain ``(N, 2)`` arrays keeps working unchanged.  A raw
ndarray entering the pipeline is checked against the object region and
wrapped by :func:`as_world_snapshot` into an *anonymous* snapshot
(``epoch is None``).

The churn delta records (:class:`QueryDelta` / :class:`ObjectDelta`)
live here too — they are state-plane records produced by the store and
consumed by the engines, and homing them below both layers keeps the
import graph acyclic (``engines.base`` re-exports them for
compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, OutOfRegionError

__all__ = [
    "OBJECT_REGION",
    "ObjectDelta",
    "PositionsLike",
    "QueryDelta",
    "WorldSnapshot",
    "as_world_snapshot",
    "check_object_points",
]

#: Where object points must lie.  The square is closed: a point at exactly
#: 1.0 sits on the closed edge of the last grid cell, so the ring-growth
#: bound of the grid engines still holds for it.
OBJECT_REGION = "the closed unit square [0, 1]^2"


def check_object_points(points: np.ndarray) -> None:
    """Raise :class:`~repro.errors.OutOfRegionError` unless every point
    lies in :data:`OBJECT_REGION`.

    One ``min``/``max`` pass over the array; NaN fails it too.
    """
    if len(points) == 0 or (points.min() >= 0.0 and points.max() <= 1.0):
        return
    inside = ((points >= 0.0) & (points <= 1.0)).all(axis=1)
    x, y = points[np.flatnonzero(~inside)[0]]
    raise OutOfRegionError(float(x), float(y), OBJECT_REGION)


@dataclass(frozen=True)
class QueryDelta:
    """One cycle's batched query-set change, applied between cycles.

    ``queries`` is the complete post-churn ``(nq', 2)`` array; ``kept``
    maps each new row to the engine row it occupied before the delta
    (``-1`` for newly registered queries).  Kept rows carry *unchanged*
    positions — the session layer registers and drops queries but never
    moves them through a delta, so per-query state (previous answers,
    critical rectangles, routing seeds) stays valid under the remap.
    """

    queries: np.ndarray
    kept: np.ndarray


@dataclass(frozen=True)
class ObjectDelta:
    """One cycle's batched object-population change.

    ``joined``/``left`` hold the affected row ids of the caller's
    position array (opaque to engines that rebuild); ``member_idx`` is
    the full sorted set of live rows when the caller runs engines in
    *member mode* (positions stay a stable row universe and membership
    is a subset), or ``None`` when the caller compacts positions to the
    live population itself.  ``compacted`` marks a row-remapping event:
    every cross-cycle structure keyed by row id is invalid.
    """

    joined: np.ndarray
    left: np.ndarray
    member_idx: Optional[np.ndarray]
    n_universe: int
    compacted: bool = False


def _frozen_view(positions: np.ndarray) -> np.ndarray:
    """A read-only view of ``positions`` (the base array is untouched)."""
    view = positions.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class WorldSnapshot:
    """One consistent, immutable view of the world's positions.

    ``positions`` is always a read-only ``(rows, 2)`` float64 view —
    writing through it raises.  ``epoch`` is the store publication the
    view belongs to, or ``None`` for an anonymous snapshot of a raw
    array.
    """

    positions: np.ndarray
    epoch: Optional[int] = None
    queries: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.positions.flags.writeable:  # pragma: no cover - guarded upstream
            object.__setattr__(self, "positions", _frozen_view(self.positions))

    # -- array-like protocol: legacy engine code sees a plain (N, 2) array
    def __array__(
        self, dtype: Optional[np.dtype] = None, copy: Optional[bool] = None
    ) -> np.ndarray:
        if copy:
            return self.positions.copy().astype(dtype or np.float64, copy=False)
        if dtype is None or np.dtype(dtype) == self.positions.dtype:
            return self.positions
        return self.positions.astype(dtype)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.positions.shape

    @property
    def n_rows(self) -> int:
        return len(self.positions)


#: What the pipeline accepts: a published snapshot or any (N, 2) array-like.
PositionsLike = Union[WorldSnapshot, np.ndarray]


def as_world_snapshot(positions: PositionsLike) -> WorldSnapshot:
    """Normalize pipeline input to a :class:`WorldSnapshot`.

    Raw arrays are wrapped as *anonymous* snapshots: the positions
    become a read-only view (the caller's array object is not frozen —
    only the view handed to engines is) and ``epoch`` stays ``None``.
    A raw array must hold only
    points of :data:`OBJECT_REGION` (:func:`check_object_points`), so an
    out-of-region or NaN row raises before any engine runs.  Published
    snapshots skip that check: the session checked every point on its
    way into the store, and vacant rows carry the ``(-1, -1)`` sentinel.
    """
    if isinstance(positions, WorldSnapshot):
        return positions
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError("positions must be an (N, 2) array")
    check_object_points(arr)
    return WorldSnapshot(positions=_frozen_view(arr))
