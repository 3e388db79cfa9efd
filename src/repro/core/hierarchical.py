"""Hierarchical (multi-level) Object-Index (paper §4).

A one-level grid at a coarse initial cell size ``delta0`` is built first.
Any cell holding more than ``Nc`` objects (the *maximal cell load*) is split
into an ``m x m`` sub-grid (``m`` is the *split factor*), recursively, until
no cell exceeds the load — the structure of the paper's Fig. 7.  Cells are
therefore of two kinds: *leaf cells* storing object IDs and *index cells*
pointing to sub-grids.

Maintenance is incremental (move objects between leaves, splitting
overflowing leaves and collapsing underfull sub-grids back into leaves) or
by overhaul rebuild.  Query answering uses the circle-based critical region
of Fig. 8: the region consists of the largest cells enclosed by — and the
smallest cells partially overlapping — the circle around the query, found
top-down at answer time (the region is never materialised).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, IndexStateError, NotEnoughObjectsError
from ..grid.geometry import min_dist2_point_box
from ..obs.counters import CounterBlock
from ..obs.tracing import NULL_TRACER
from .answers import AnswerList

_Bucket = List[int]


class HierarchicalCounters(CounterBlock):
    """Work counters for the §4 multi-level index.

    Always counted with plain integer adds; the engine layer diffs the
    block per maintenance/answering stage and publishes the deltas as
    ``hier.maintain.*`` / ``hier.answer.*`` metrics when instrumentation
    is on.
    """

    FIELDS = (
        "nodes_visited",
        "cells_pruned",
        "leaves_scanned",
        "objects_scanned",
        "splits",
        "collapses",
        "overhaul_calls",
        "overhaul_rescans",
        "incremental_calls",
        "incremental_fallbacks",
    )
    __slots__ = FIELDS


class _SubGrid:
    """One level of the hierarchy: an ``m x m`` block of slots.

    Each slot is either a leaf bucket (a plain list of object IDs) or a
    child :class:`_SubGrid`.  ``count`` caches the number of objects in the
    whole subtree for O(1) collapse decisions.
    """

    __slots__ = ("x0", "y0", "cell_side", "m", "slots", "count", "depth")

    def __init__(
        self, x0: float, y0: float, cell_side: float, m: int, depth: int
    ) -> None:
        self.x0 = x0
        self.y0 = y0
        self.cell_side = cell_side
        self.m = m
        self.depth = depth
        self.slots: List[Union[_Bucket, "_SubGrid"]] = [
            [] for _ in range(m * m)
        ]
        self.count = 0

    def slot_of(self, x: float, y: float) -> int:
        """Flat slot index of the slot containing ``(x, y)`` (clamped)."""
        i = int((x - self.x0) / self.cell_side)
        j = int((y - self.y0) / self.cell_side)
        m = self.m
        if i >= m:
            i = m - 1
        elif i < 0:
            i = 0
        if j >= m:
            j = m - 1
        elif j < 0:
            j = 0
        return j * m + i

    def slot_bounds(self, idx: int) -> Tuple[float, float, float, float]:
        """``(xlo, ylo, xhi, yhi)`` of slot ``idx``."""
        i = idx % self.m
        j = idx // self.m
        xlo = self.x0 + i * self.cell_side
        ylo = self.y0 + j * self.cell_side
        return xlo, ylo, xlo + self.cell_side, ylo + self.cell_side


class HierarchicalObjectIndex:
    """Adaptive multi-level grid index over moving objects.

    Parameters
    ----------
    delta0:
        Top-level cell size (the paper uses 0.1).  Unlike the one-level
        index this need not depend on the population size — robustness to
        ``delta0`` is one of the claims reproduced in Fig. 16.
    max_cell_load:
        The paper's ``Nc``: a leaf holding more than this many objects is
        split (default 10, the paper's Fig. 18 setting).
    split_factor:
        The paper's ``m``: each split produces ``m x m`` sub-cells
        (default 3, the paper's setting).
    max_depth:
        Safety bound on recursion so pathological coincident points cannot
        split forever; leaves at ``max_depth`` may exceed the load.
    """

    def __init__(
        self,
        delta0: float = 0.1,
        max_cell_load: int = 10,
        split_factor: int = 3,
        max_depth: int = 12,
    ) -> None:
        if not 0.0 < delta0 <= 1.0:
            raise ConfigurationError(f"delta0={delta0!r} must be in (0, 1]")
        if max_cell_load < 1:
            raise ConfigurationError(f"max_cell_load must be >= 1, got {max_cell_load}")
        if split_factor < 2:
            raise ConfigurationError(f"split_factor must be >= 2, got {split_factor}")
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        self.delta0 = delta0
        self.max_cell_load = max_cell_load
        self.split_factor = split_factor
        self.max_depth = max_depth
        self.counters = HierarchicalCounters()
        self.tracer = NULL_TRACER
        top = max(1, int(round(1.0 / delta0)))
        self._root = _SubGrid(0.0, 0.0, 1.0 / top, top, depth=0)
        self._x: List[float] = []
        self._y: List[float] = []
        # Per-object back-reference to the leaf that stores it, so
        # incremental deletes need no tree descent.
        self._leaf: List[Tuple[_SubGrid, int]] = []
        self._built = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return len(self._x)

    @property
    def built(self) -> bool:
        return self._built

    def cell_counts(self) -> Tuple[int, int]:
        """``(index_cells, leaf_cells)`` across all levels (Fig. 21 metric)."""
        index_cells = 0
        leaf_cells = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for slot in node.slots:
                if isinstance(slot, _SubGrid):
                    index_cells += 1
                    stack.append(slot)
                else:
                    leaf_cells += 1
        return index_cells, leaf_cells

    def depth(self) -> int:
        """Number of levels currently present (>= 1)."""
        deepest = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            deepest = max(deepest, node.depth)
            for slot in node.slots:
                if isinstance(slot, _SubGrid):
                    stack.append(slot)
        return deepest + 1

    # ------------------------------------------------------------------
    # Structural mutation
    # ------------------------------------------------------------------
    def _split(self, node: _SubGrid, idx: int) -> None:
        """Split an overflowing leaf slot into an ``m x m`` sub-grid."""
        bucket = node.slots[idx]
        assert isinstance(bucket, list)
        self.counters.splits += 1
        m = self.split_factor
        xlo, ylo, _, _ = node.slot_bounds(idx)
        child = _SubGrid(
            xlo, ylo, node.cell_side / m, m, depth=node.depth + 1
        )
        xs = self._x
        ys = self._y
        leaf = self._leaf
        for object_id in bucket:
            slot_idx = child.slot_of(xs[object_id], ys[object_id])
            sub = child.slots[slot_idx]
            assert isinstance(sub, list)
            sub.append(object_id)
            leaf[object_id] = (child, slot_idx)
        child.count = len(bucket)
        node.slots[idx] = child
        # Newly created sub-cells may themselves overflow (coincident or
        # tightly clustered points); split them recursively.
        if child.depth < self.max_depth - 1:
            for slot_idx, sub in enumerate(child.slots):
                if isinstance(sub, list) and len(sub) > self.max_cell_load:
                    self._split(child, slot_idx)

    def _collapse(self, node: _SubGrid, idx: int) -> None:
        """Collapse an underfull child sub-grid back into a leaf."""
        child = node.slots[idx]
        assert isinstance(child, _SubGrid)
        self.counters.collapses += 1
        gathered: _Bucket = []
        stack = [child]
        while stack:
            sub = stack.pop()
            for slot in sub.slots:
                if isinstance(slot, _SubGrid):
                    stack.append(slot)
                else:
                    gathered.extend(slot)
        node.slots[idx] = gathered
        leaf = self._leaf
        for object_id in gathered:
            leaf[object_id] = (node, idx)

    def _insert(self, object_id: int, x: float, y: float) -> None:
        """Insert one object top-down, splitting on overflow."""
        node = self._root
        while True:
            node.count += 1
            idx = node.slot_of(x, y)
            slot = node.slots[idx]
            if isinstance(slot, _SubGrid):
                node = slot
                continue
            slot.append(object_id)
            self._leaf[object_id] = (node, idx)
            if (
                len(slot) > self.max_cell_load
                and node.depth < self.max_depth - 1
            ):
                self._split(node, idx)
            return

    def _remove(self, object_id: int) -> None:
        """Remove one object via its leaf back-reference, collapsing on the way up.

        The paper checks whether "the sub-cell that c belongs to can be
        collapsed back into a leaf node at the higher level"; counts are
        maintained on every ancestor by a descent from the root (the leaf
        back-reference spares only the final list search).
        """
        leaf_node, idx = self._leaf[object_id]
        bucket = leaf_node.slots[idx]
        assert isinstance(bucket, list)
        try:
            bucket.remove(object_id)
        except ValueError:
            raise IndexStateError(
                f"object {object_id} missing from its recorded leaf"
            ) from None
        # Walk down from the root to fix counts and find the shallowest
        # ancestor sub-grid that has become collapsible.
        x = self._x[object_id]
        y = self._y[object_id]
        node = self._root
        node.count -= 1
        collapse_at: Optional[Tuple[_SubGrid, int]] = None
        while True:
            slot_idx = node.slot_of(x, y)
            slot = node.slots[slot_idx]
            if not isinstance(slot, _SubGrid):
                break
            slot.count -= 1
            if collapse_at is None and slot.count <= self.max_cell_load:
                collapse_at = (node, slot_idx)
            node = slot
        if collapse_at is not None:
            self._collapse(*collapse_at)

    # ------------------------------------------------------------------
    # Maintenance API
    # ------------------------------------------------------------------
    def build(self, positions: np.ndarray) -> None:
        """Overhaul rebuild from a snapshot of positions.

        The rebuild groups objects into cells level by level with
        vectorised index arithmetic (the same single-scan cost model as the
        one-level grid's bulk load), splitting each overflowing cell into
        a sub-grid built recursively from its own id subset.
        """
        positions = np.asarray(positions, dtype=np.float64)
        top = self._root.m
        self._root = _SubGrid(0.0, 0.0, 1.0 / top, top, depth=0)
        self._x = positions[:, 0].tolist()
        self._y = positions[:, 1].tolist()
        self._leaf = [(self._root, 0)] * len(self._x)
        if len(positions):
            ids = np.arange(len(positions), dtype=np.intp)
            self._bulk_fill(self._root, positions[:, 0], positions[:, 1], ids)
        self._built = True

    def _bulk_fill(
        self,
        node: _SubGrid,
        xs: np.ndarray,
        ys: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        """Distribute ``ids`` into ``node``, splitting overflowing slots."""
        m = node.m
        node.count = len(ids)
        ii = np.clip(((xs - node.x0) / node.cell_side).astype(np.intp), 0, m - 1)
        jj = np.clip(((ys - node.y0) / node.cell_side).astype(np.intp), 0, m - 1)
        flat = jj * m + ii
        order = np.argsort(flat, kind="stable")
        flat_sorted = flat[order]
        boundaries = np.searchsorted(
            flat_sorted, np.arange(m * m + 1), side="left"
        )
        leaf = self._leaf
        can_split = node.depth < self.max_depth - 1
        for slot_idx in range(m * m):
            lo = boundaries[slot_idx]
            hi = boundaries[slot_idx + 1]
            if lo == hi:
                continue
            member_order = order[lo:hi]
            if hi - lo > self.max_cell_load and can_split:
                xlo = node.x0 + (slot_idx % m) * node.cell_side
                ylo = node.y0 + (slot_idx // m) * node.cell_side
                child = _SubGrid(
                    xlo,
                    ylo,
                    node.cell_side / self.split_factor,
                    self.split_factor,
                    depth=node.depth + 1,
                )
                node.slots[slot_idx] = child
                self._bulk_fill(
                    child, xs[member_order], ys[member_order], ids[member_order]
                )
            else:
                bucket = ids[member_order].tolist()
                node.slots[slot_idx] = bucket
                for object_id in bucket:
                    leaf[object_id] = (node, slot_idx)

    def update(self, positions: np.ndarray) -> int:
        """Incremental maintenance: re-home only objects that left their leaf.

        Returns the number of delete+insert moves performed.
        """
        if not self._built:
            raise IndexStateError("update() requires a prior build()")
        positions = np.asarray(positions, dtype=np.float64)
        if len(positions) != len(self._x):
            raise IndexStateError(
                f"population changed from {len(self._x)} to {len(positions)}; "
                "rebuild the index instead of updating it"
            )
        xs_new = positions[:, 0].tolist()
        ys_new = positions[:, 1].tolist()
        moves = 0
        for object_id in range(len(xs_new)):
            x = xs_new[object_id]
            y = ys_new[object_id]
            node, idx = self._leaf[object_id]
            xlo, ylo, xhi, yhi = node.slot_bounds(idx)
            if xlo <= x < xhi and ylo <= y < yhi:
                # Same leaf: only the stored coordinates change.
                self._x[object_id] = x
                self._y[object_id] = y
                continue
            self._remove(object_id)
            self._x[object_id] = x
            self._y[object_id] = y
            self._insert(object_id, x, y)
            moves += 1
        return moves

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def _scan_region(
        self,
        node: _SubGrid,
        qx: float,
        qy: float,
        radius2: float,
        answers: AnswerList,
    ) -> None:
        """Scan the critical region of ``circle(q, r)`` top-down (Fig. 8).

        Descends only into slots whose cell intersects the circle, and
        additionally prunes cells that cannot beat the current k-th
        candidate (exactness-preserving).
        """
        xs = self._x
        ys = self._y
        slots = node.slots
        m = node.m
        side = node.cell_side
        x0 = node.x0
        y0 = node.y0
        counters = self.counters
        counters.nodes_visited += 1
        # Only the slots whose cells intersect the bounding box of the
        # circle can intersect the circle; restrict the loop to that
        # sub-rectangle instead of sweeping all m*m slots.
        radius = math.sqrt(radius2)
        ilo = int((qx - radius - x0) / side)
        ihi = int((qx + radius - x0) / side)
        jlo = int((qy - radius - y0) / side)
        jhi = int((qy + radius - y0) / side)
        if ilo < 0:
            ilo = 0
        if jlo < 0:
            jlo = 0
        if ihi >= m:
            ihi = m - 1
        if jhi >= m:
            jhi = m - 1
        for j in range(jlo, jhi + 1):
            base = j * m
            ylo = y0 + j * side
            for i in range(ilo, ihi + 1):
                slot = slots[base + i]
                if isinstance(slot, list):
                    if not slot:
                        continue
                elif slot.count == 0:
                    continue
                xlo = x0 + i * side
                d2 = min_dist2_point_box(
                    qx, qy, xlo, ylo, xlo + side, ylo + side
                )
                # Both prunes strict: a box at distance exactly radius2 (or
                # exactly the current k-th distance) can still contribute an
                # equidistant lower-id candidate to the (dist2, id) tie-break.
                if d2 > radius2 or (answers.full and d2 > answers.worst_dist2):
                    counters.cells_pruned += 1
                    continue
                if isinstance(slot, _SubGrid):
                    self._scan_region(slot, qx, qy, radius2, answers)
                else:
                    counters.leaves_scanned += 1
                    counters.objects_scanned += len(slot)
                    for object_id in slot:
                        dx = xs[object_id] - qx
                        dy = ys[object_id] - qy
                        answers.offer(dx * dx + dy * dy, object_id)

    def knn_overhaul(self, qx: float, qy: float, k: int) -> AnswerList:
        """Exact k-NN by repeated radius enlargement (§4).

        Starting from the side of the query's leaf cell, the radius is
        enlarged and the critical region recomputed until the k-th
        candidate provably lies inside the scanned circle.
        """
        if not self._built:
            raise IndexStateError("knn_overhaul() requires a prior build()")
        if k > self.n_objects:
            raise NotEnoughObjectsError(k, self.n_objects)
        counters = self.counters
        counters.overhaul_calls += 1
        # Initial radius: the side of the leaf containing q, a density-aware
        # starting point (small in dense areas, large in sparse ones).
        node = self._root
        while True:
            slot = node.slots[node.slot_of(qx, qy)]
            if isinstance(slot, _SubGrid):
                node = slot
            else:
                break
        # The radius travels squared: a rescan at sqrt(worst_dist2) squared
        # again can round below worst_dist2 and prune the cell holding an
        # equidistant lower-id object.
        radius2 = node.cell_side * node.cell_side
        limit2 = 2.0  # sqrt(2) circumscribes the unit square from any point
        first = True
        while True:
            if not first:
                counters.overhaul_rescans += 1
            first = False
            answers = AnswerList(k)
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("region_scan"):
                    self._scan_region(self._root, qx, qy, radius2, answers)
            else:
                self._scan_region(self._root, qx, qy, radius2, answers)
            if answers.full:
                if answers.worst_dist2 <= radius2:
                    return answers
                # The k candidates bound the true k-th distance; one more
                # scan at that radius is guaranteed exact.
                radius2 = answers.worst_dist2
            else:
                if radius2 > limit2:
                    raise NotEnoughObjectsError(k, self.n_objects)
                radius2 *= 4.0

    def knn_incremental(
        self, qx: float, qy: float, k: int, previous_ids: Sequence[int]
    ) -> AnswerList:
        """Exact k-NN seeded from the previous answer set (§4).

        ``r = max ||q - p(t')||`` over the previous k-NNs guarantees the
        circle already holds k objects, so a single scan is exact.
        """
        if not self._built:
            raise IndexStateError("knn_incremental() requires a prior build()")
        counters = self.counters
        counters.incremental_calls += 1
        n = self.n_objects
        if len(previous_ids) < k or any(not 0 <= p < n for p in previous_ids):
            counters.incremental_fallbacks += 1
            return self.knn_overhaul(qx, qy, k)
        xs = self._x
        ys = self._y
        worst2 = 0.0
        for object_id in previous_ids:
            dx = xs[object_id] - qx
            dy = ys[object_id] - qy
            d2 = dx * dx + dy * dy
            if d2 > worst2:
                worst2 = d2
        answers = AnswerList(k)
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("region_scan"):
                self._scan_region(self._root, qx, qy, worst2, answers)
        else:
            self._scan_region(self._root, qx, qy, worst2, answers)
        if len(answers) < k:  # pragma: no cover - defensive
            counters.incremental_fallbacks += 1
            return self.knn_overhaul(qx, qy, k)
        return answers

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check counts, leaf back-references, and load limits."""
        if not self._built:
            raise IndexStateError("validate() requires a prior build()")
        total = self._check_node(self._root)
        if total != self.n_objects:
            raise IndexStateError(
                f"tree stores {total} objects, population is {self.n_objects}"
            )

    def _check_node(self, node: _SubGrid) -> int:
        total = 0
        for idx, slot in enumerate(node.slots):
            xlo, ylo, xhi, yhi = node.slot_bounds(idx)
            if isinstance(slot, _SubGrid):
                if slot.count <= self.max_cell_load:
                    raise IndexStateError(
                        f"sub-grid at depth {slot.depth} holds {slot.count} "
                        f"<= Nc={self.max_cell_load} objects and should have "
                        "been collapsed"
                    )
                child_total = self._check_node(slot)
                if child_total != slot.count:
                    raise IndexStateError(
                        f"sub-grid count {slot.count} != actual {child_total}"
                    )
                total += child_total
            else:
                if (
                    len(slot) > self.max_cell_load
                    and node.depth < self.max_depth - 1
                ):
                    raise IndexStateError(
                        f"leaf at depth {node.depth} overflows: {len(slot)} "
                        f"> Nc={self.max_cell_load}"
                    )
                for object_id in slot:
                    x = self._x[object_id]
                    y = self._y[object_id]
                    inside_x = xlo <= x < xhi or (xhi >= 1.0 and x >= xlo)
                    inside_y = ylo <= y < yhi or (yhi >= 1.0 and y >= ylo)
                    if not (inside_x and inside_y):
                        raise IndexStateError(
                            f"object {object_id} at ({x}, {y}) stored in leaf "
                            f"[{xlo}, {xhi}) x [{ylo}, {yhi})"
                        )
                    ref_node, ref_idx = self._leaf[object_id]
                    if ref_node is not node or ref_idx != idx:
                        raise IndexStateError(
                            f"object {object_id} has a stale leaf back-reference"
                        )
                total += len(slot)
        return total
