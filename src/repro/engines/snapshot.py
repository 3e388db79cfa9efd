"""Index-agnostic snapshot protocol and the generic query operators.

The paper's query algorithms only ever need two primitives from a grid
snapshot: *count the objects inside a cell rectangle* (to grow ``R0``
ring by ring, Fig. 3) and *gather the objects inside a cell rectangle*
(to scan the critical rectangle).  :class:`SnapshotIndex` captures
exactly that contract; both the paper-faithful
:class:`~repro.core.object_index.ObjectIndex` (Grid2D bucket lists) and
the vectorized :class:`~repro.core.fast_index.CSRGrid` implement it, so
every auxiliary workload (range, RkNN, GNN, self-join, kNN-join) runs
unchanged on either backend.

All generic operators break distance ties by lowest object ID (via
``(distance^2, id)`` tuple ordering in
:class:`~repro.core.answers.AnswerList`), so two backends holding the
same snapshot return *identical* answers — the parametrized
cross-backend suite in ``tests/test_snapshot_protocol.py`` asserts this
including duplicate-coordinate tie-breaks.
"""

from __future__ import annotations

import math
from typing import List, Protocol, Sequence, Tuple

import numpy as np

from ..core.answers import AnswerList
from ..errors import ConfigurationError, NotEnoughObjectsError
from ..grid.geometry import rect_for_radius
from ..grid.grid2d import resolve_grid_size


class SnapshotIndex(Protocol):
    """A queryable grid snapshot of one cycle's object positions.

    The grid is square (``ncells`` per side) over the unit square with
    cell size ``delta``; object IDs are stable across the snapshot.
    Cell rectangles are inclusive ``(ilo, jlo, ihi, jhi)`` index ranges.
    """

    @property
    def ncells(self) -> int: ...

    @property
    def delta(self) -> float: ...

    @property
    def n_objects(self) -> int: ...

    def locate(self, x: float, y: float) -> Tuple[int, int]:
        """Cell ``(i, j)`` of a point (clamped to the grid)."""
        ...

    def count_in_cells(self, ilo: int, jlo: int, ihi: int, jhi: int) -> int:
        """Number of objects inside the inclusive cell rectangle."""
        ...

    def gather_cells(
        self, ilo: int, jlo: int, ihi: int, jhi: int
    ) -> Tuple[List[int], List[float], List[float]]:
        """``(ids, xs, ys)`` of every object inside the cell rectangle."""
        ...

    def position_of(self, object_id: int) -> Tuple[float, float]:
        """Snapshot position of one object."""
        ...


#: Snapshot backend name -> builder; see :func:`make_snapshot`.
SNAPSHOT_BACKENDS = ("object_index", "csr")


def make_snapshot(positions: np.ndarray, backend: str = "object_index") -> SnapshotIndex:
    """Build a :class:`SnapshotIndex` over a position snapshot.

    ``backend`` picks the implementation: ``"object_index"`` (the
    paper-faithful Grid2D bucket index) or ``"csr"`` (the vectorized CSR
    layout).  Both use the paper's optimal cell size for the population.
    Either snapshot stays valid when the caller later rewrites
    ``positions``: the CSR grid reads coordinates through a view of the
    array it was built over, so it gets a private copy.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if backend == "object_index":
        from ..core.object_index import ObjectIndex

        index = ObjectIndex(n_objects=max(1, len(positions)))
        index.build(positions)
        return index
    if backend == "csr":
        from ..core.fast_index import CSRGrid

        return CSRGrid(
            positions.copy(), resolve_grid_size(n_objects=max(1, len(positions)))
        )
    raise ConfigurationError(
        f"unknown snapshot backend {backend!r}; known: {', '.join(SNAPSHOT_BACKENDS)}"
    )


def snapshot_knn(index: SnapshotIndex, qx: float, qy: float, k: int) -> AnswerList:
    """Exact k-NN from scratch against any snapshot backend (paper Fig. 3).

    Grows ``R0`` around the query's cell one ring at a time until it
    holds at least ``k`` objects, takes the k-th-nearest distance inside
    ``R0`` as the critical radius, and scans the critical rectangle.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if k > index.n_objects:
        raise NotEnoughObjectsError(k, index.n_objects)
    n = index.ncells
    ci, cj = index.locate(qx, qy)
    level = 0
    while True:
        ilo, jlo = max(ci - level, 0), max(cj - level, 0)
        ihi, jhi = min(ci + level, n - 1), min(cj + level, n - 1)
        if index.count_in_cells(ilo, jlo, ihi, jhi) >= k:
            break
        if ilo == 0 and jlo == 0 and ihi == n - 1 and jhi == n - 1:
            # Whole grid scanned; unreachable while k <= n_objects.
            raise NotEnoughObjectsError(k, index.n_objects)
        level += 1
    _, xs, ys = index.gather_cells(ilo, jlo, ihi, jhi)
    d2s = sorted((x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in zip(xs, ys))
    lcrit = math.sqrt(d2s[k - 1])
    return _scan_rect(index, qx, qy, lcrit, k)


def snapshot_knn_seeded(
    index: SnapshotIndex,
    qx: float,
    qy: float,
    k: int,
    previous_ids: Sequence[int],
) -> AnswerList:
    """Exact k-NN seeded by a previous answer set (§3.2, backend-agnostic).

    The critical radius is the distance to the farthest *new* position of
    the previous k-NNs; the disc of that radius contains k objects, so it
    bounds the true k-th-nearest distance.  Falls back to
    :func:`snapshot_knn` when no usable previous answer exists.
    """
    n_obj = index.n_objects
    if len(previous_ids) < k or any(not 0 <= p < n_obj for p in previous_ids):
        return snapshot_knn(index, qx, qy, k)
    worst2 = 0.0
    for object_id in previous_ids:
        x, y = index.position_of(object_id)
        d2 = (x - qx) * (x - qx) + (y - qy) * (y - qy)
        if d2 > worst2:
            worst2 = d2
    answers = _scan_rect(index, qx, qy, math.sqrt(worst2), k)
    if len(answers) < k:  # pragma: no cover - defensive; cannot happen
        return snapshot_knn(index, qx, qy, k)
    return answers


def _scan_rect(
    index: SnapshotIndex, qx: float, qy: float, radius: float, k: int
) -> AnswerList:
    """Offer every object within the critical rectangle of ``radius``."""
    rect = rect_for_radius(qx, qy, radius, index.delta, index.ncells)
    answers = AnswerList(k)
    ids, xs, ys = index.gather_cells(rect.ilo, rect.jlo, rect.ihi, rect.jhi)
    offer = answers.offer
    for object_id, x, y in zip(ids, xs, ys):
        dx = x - qx
        dy = y - qy
        offer(dx * dx + dy * dy, object_id)
    return answers


def snapshot_range(index: SnapshotIndex, region) -> List[int]:
    """Member object IDs of one range query region, ascending.

    ``region`` is any object with ``bounds()`` and ``contains(x, y)``
    (:class:`~repro.core.range_monitor.RectRegion` /
    :class:`~repro.core.range_monitor.CircleRegion`).
    """
    xlo, ylo, xhi, yhi = region.bounds()
    ilo, jlo = index.locate(max(0.0, xlo), max(0.0, ylo))
    ihi, jhi = index.locate(min(1.0 - 1e-12, xhi), min(1.0 - 1e-12, yhi))
    ids, xs, ys = index.gather_cells(ilo, jlo, ihi, jhi)
    members = [
        object_id for object_id, x, y in zip(ids, xs, ys) if region.contains(x, y)
    ]
    members.sort()
    return members
