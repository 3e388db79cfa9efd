"""Published world-state views and the churn delta records.

A :class:`WorldSnapshot` is the read-only face of one published store
epoch: the paper's ``OBJ_snapshot`` (§3) as a zero-copy view instead of
a private array per layer.  The buffer, the session, the cycle
pipeline, every engine and the shard workers all read the *same*
``writeable=False`` view; the owning :class:`~repro.state.store.WorldStore`
keeps writing into its staging buffer and never mutates a published
epoch, which is what makes sharing safe.

Snapshots are array-likes: ``np.asarray(snapshot, dtype=np.float64)``
returns the read-only positions view without copying, so engine code
written against plain ``(N, 2)`` arrays keeps working unchanged.  A raw
ndarray entering the pipeline is wrapped by :func:`as_world_snapshot`
into an *anonymous* snapshot (``epoch is None``): correctness-neutral,
but epoch-keyed fast paths (the sharded engine's shared-memory reuse)
stay off because nothing vouches for the array's stability.

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

from ..errors import ConfigurationError

__all__ = [
    "ObjectDelta",
    "PositionsLike",
    "QueryDelta",
    "WorldSnapshot",
    "as_world_snapshot",
]


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
    writing through it raises.  ``epoch`` / ``token`` identify which
    store publication the view belongs to: equal ``(token, epoch)``
    pairs are guaranteed to be the *same bytes*, so consumers may key
    caches (shared-memory segments, alias checks) on them.  Anonymous
    snapshots (``epoch is None``) carry no such guarantee and must be
    treated as fresh content every time.
    """

    positions: np.ndarray
    epoch: Optional[int] = None
    token: int = 0
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

    @property
    def versioned(self) -> bool:
        """Whether the view is pinned to a store epoch (content-stable)."""
        return self.epoch is not None


#: What the pipeline accepts: a published snapshot or any (N, 2) array-like.
PositionsLike = Union[WorldSnapshot, np.ndarray]


def as_world_snapshot(positions: PositionsLike) -> WorldSnapshot:
    """Normalize pipeline input to a :class:`WorldSnapshot`.

    Raw arrays are wrapped as *anonymous* snapshots: the positions
    become a read-only view (the caller's array object is not frozen —
    only the view handed to engines is), ``epoch`` stays ``None``, and
    no content-stability fast path applies.
    """
    if isinstance(positions, WorldSnapshot):
        return positions
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError("positions must be an (N, 2) array")
    return WorldSnapshot(positions=_frozen_view(arr))
