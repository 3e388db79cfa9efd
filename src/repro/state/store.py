"""The epoch-tagged columnar world store.

One :class:`WorldStore` owns everything the paper's §3 system model
calls world state: the current positions of the object universe, the
membership bookkeeping (row-stable universe, free list, external-id
remap) and the query set.  Writers — the report buffer, the session's
streaming motion path, the churn admission — all ingest into the
*staging* epoch; :meth:`WorldStore.publish` flips it into a read-only
:class:`~repro.state.snapshot.WorldSnapshot` that every downstream
consumer (pipeline, engines) shares zero-copy.

**Double buffering.**  The store keeps two ``(cap, 2)`` position
buffers.  Writes land in the staging buffer; the published buffer is
never written while published, which is what lets snapshots be handed
out as plain views.  At ``publish()`` the buffers swap roles.  The
subtlety is keeping the *new* staging buffer (the previously published
one) current without a full copy: the store tracks ``pending`` (rows
written since the last flip) and ``stale`` (rows the staging buffer
missed because the *previous* epoch wrote them).  At flip time only
``stale & ~pending`` rows — written last epoch but not this one — are
carried forward.  In the steady full-motion state every row is written
every epoch, the carry-forward set is empty, and a publish is O(1):
this is the zero-copy path the ``state.copies_per_cycle`` gauge
asserts.

**Epochs.**  ``publish()`` bumps the epoch only when something was
written since the last flip; an unchanged world returns the *same*
snapshot object (same epoch).

Structural events (capacity growth, compaction) allocate a fresh buffer
pair; retired buffers are never written again, so snapshots already
handed out stay valid for as long as anyone holds them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from .snapshot import ObjectDelta, WorldSnapshot, _frozen_view

#: Universe capacity floor; also the compaction floor (never shrink below).
_MIN_CAP = 64


class WorldStore:
    """Columnar world state with double-buffered epoch publication.

    Parameters
    ----------
    initial_positions:
        Optional ``(n, 2)`` seed population.  Seeded stores start in
        *identity* mapping — external id ``i`` is row ``i`` — and defer
        building the id remap table until the first churn admission,
        so fixed-population users (the report buffer) never pay for it.
    capacity:
        Initial row capacity (grown on demand; floored at ``64``).
    registry:
        Metrics sink for the ``state.*`` counters (optional).
    """

    def __init__(
        self,
        initial_positions: Optional[np.ndarray] = None,
        *,
        capacity: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry: MetricsRegistry = (
            registry if registry is not None else NULL_REGISTRY
        )
        n0 = 0
        if initial_positions is not None:
            initial_positions = np.asarray(initial_positions, dtype=np.float64)
            if initial_positions.ndim != 2 or initial_positions.shape[1] != 2:
                raise ConfigurationError("positions must be an (N, 2) array")
            n0 = len(initial_positions)
        cap = max(_MIN_CAP, int(capacity or 0), n0)
        # Both buffers carry the vacancy sentinel everywhere a row was
        # never written, so reads through either are always defined.
        self._staging = np.full((cap, 2), -1.0, dtype=np.float64)
        self._published = np.full((cap, 2), -1.0, dtype=np.float64)
        self._pending = np.zeros(cap, dtype=bool)  # written since last flip
        self._stale = np.zeros(cap, dtype=bool)  # staging lags published here
        self._cap = cap
        self._epoch = 0
        self._dirty = False  # anything written since the last flip?
        self._snapshot: Optional[WorldSnapshot] = None

        # Membership: row-stable universe, LIFO free list, external ids.
        # ``_row_of_ext is None`` means the identity mapping (ext id i ==
        # row i, rows [0, top) all live) — the fixed-population fast path.
        self._ext_of_row = np.full(cap, -1, dtype=np.int64)
        self._row_of_ext: Optional[Dict[int, int]] = None
        self._free: List[int] = []
        self._top = 0  # rows ever used; rows >= _top are untouched
        self._live_rows: Optional[np.ndarray] = None

        self._queries = np.empty((0, 2), dtype=np.float64)

        #: Hand-off position copies (dense gathers, legacy paths) — the
        #: number the zero-copy acceptance criterion audits.
        self.full_copies = 0
        #: Buffer-pair reallocations (growth / compaction).
        self.structural_copies = 0

        if n0:
            self._seed(initial_positions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def epoch(self) -> int:
        """Epoch of the last published snapshot (0 before any publish)."""
        return self._epoch

    @property
    def n_live(self) -> int:
        if self._row_of_ext is None:
            return self._top
        return len(self._row_of_ext)

    @property
    def queries(self) -> np.ndarray:
        """The current query set (read-only)."""
        return self._queries

    def live_rows(self) -> np.ndarray:
        """Sorted rows of the live population (cached between admissions)."""
        if self._live_rows is None:
            self._live_rows = np.flatnonzero(self._ext_of_row[: self._top] >= 0)
        return self._live_rows

    def live_index(self) -> Union[slice, np.ndarray]:
        """Index of the live population in :meth:`live_rows` order.

        With no vacant row below the high-water mark the live rows are
        exactly ``[0, top)``, and the slice lets a full-population write
        skip the fancy-indexed scatter; otherwise :meth:`live_rows`.
        """
        if not self._free:
            return slice(0, self._top)
        return self.live_rows()

    def ext_ids(self, rows: np.ndarray) -> np.ndarray:
        """External ids of ``rows`` (vectorized gather)."""
        return self._ext_of_row[rows]

    def ext_table(self) -> np.ndarray:
        """The full row → external-id table (``-1`` marks vacant rows)."""
        return self._ext_of_row

    def contains(self, object_id: int) -> bool:
        if self._row_of_ext is None:
            return 0 <= object_id < self._top
        return object_id in self._row_of_ext

    def row_of(self, object_id: int) -> Optional[int]:
        """Universe row of a live external id (``None`` if unknown)."""
        if self._row_of_ext is None:
            return object_id if 0 <= object_id < self._top else None
        return self._row_of_ext.get(object_id)

    def rows_of(self, object_ids: Iterable[int]) -> np.ndarray:
        """Universe rows of many external ids; ``KeyError`` on unknowns."""
        ids = np.asarray(list(object_ids) if not hasattr(object_ids, "__len__")
                         else object_ids)
        if self._row_of_ext is None:
            rows = ids.astype(np.intp, copy=True)
            bad = (rows < 0) | (rows >= self._top)
            if bad.any():
                raise KeyError(int(rows[bad][0]))
            return rows
        table = self._row_of_ext
        return np.fromiter(
            (table[int(i)] for i in ids), dtype=np.intp, count=len(ids)
        )

    # ------------------------------------------------------------------
    # Writes (staging epoch)
    # ------------------------------------------------------------------
    def write_row(self, row: int, x: float, y: float) -> None:
        """Write one row's position into the staging epoch."""
        self._staging[row, 0] = x
        self._staging[row, 1] = y
        self._pending[row] = True
        self._dirty = True

    def write_rows(self, rows: Union[slice, np.ndarray], points: np.ndarray) -> None:
        """Vectorized position write into the staging epoch (rows: an
        index array or the slice of :meth:`live_index`)."""
        self._staging[rows] = points
        self._pending[rows] = True
        self._dirty = True

    def set_queries(self, queries: np.ndarray) -> None:
        """Replace the query set (the session admits query churn here)."""
        self._queries = _frozen_view(np.asarray(queries, dtype=np.float64))

    # ------------------------------------------------------------------
    # Reads (latest values: published overlaid with staged writes)
    # ------------------------------------------------------------------
    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Latest positions of ``rows`` (a fresh array, caller-owned)."""
        rows = np.asarray(rows, dtype=np.intp)
        out = self._published[rows]
        staged = self._pending[rows]
        if staged.any():
            out[staged] = self._staging[rows[staged]]
        return out

    def _latest(self) -> np.ndarray:
        """Latest value of every row — only for structural reallocation."""
        out = self._published.copy()
        rows = np.flatnonzero(self._pending)
        if len(rows):
            out[rows] = self._staging[rows]
        return out

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self) -> WorldSnapshot:
        """Flip the staging epoch into a read-only snapshot.

        With no writes since the last flip this returns the *same*
        snapshot object (same epoch).  Otherwise the
        flip carries forward only the rows the previous epoch wrote and
        this one did not, bumps the epoch, and freezes the new buffer.
        """
        registry = self.registry
        if self._snapshot is not None and not self._dirty:
            return self._snapshot
        need = np.flatnonzero(self._stale & ~self._pending)
        if len(need):
            self._staging[need] = self._published[need]
            registry.inc("state.synced_rows", len(need))
        self._published, self._staging = self._staging, self._published
        self._stale, self._pending = self._pending, self._stale
        self._pending[:] = False
        self._epoch += 1
        self._dirty = False
        self._snapshot = WorldSnapshot(
            positions=_frozen_view(self._published),
            epoch=self._epoch,
            queries=self._queries,
        )
        registry.inc("state.publishes")
        if registry.enabled:
            registry.set_gauge("state.epoch", float(self._epoch))
        return self._snapshot

    def packed(self, snapshot: Optional[WorldSnapshot] = None) -> WorldSnapshot:
        """The live population densely packed, for member-less engines.

        With no vacant rows below the high-water mark the live rows are
        exactly ``[0, top)`` and this is a zero-copy contiguous view of
        the published buffer, keeping the snapshot's epoch.  With holes
        it must gather — one counted ``state.full_copies`` hand-off copy
        — and the result is anonymous (``epoch None``): a gathered array
        is new memory every time, so nothing may cache by epoch.
        """
        snap = snapshot if snapshot is not None else self.publish()
        if not self._free:
            return WorldSnapshot(
                positions=snap.positions[: self._top],
                epoch=snap.epoch,
                queries=snap.queries,
            )
        gathered = snap.positions[self.live_rows()]
        self.full_copies += 1
        self.registry.inc("state.full_copies")
        return WorldSnapshot(
            positions=_frozen_view(gathered), queries=snap.queries
        )

    # ------------------------------------------------------------------
    # Membership (churn admission)
    # ------------------------------------------------------------------
    def admit(
        self,
        joins: Mapping[int, Tuple[float, float]],
        leaves: Iterable[int],
        *,
        member_mode: bool,
    ) -> ObjectDelta:
        """Apply one cycle's batched joins and leaves; the native delta.

        Leaves free their rows (vacancy sentinel written so snapshots
        match the packed-survivor world bit for bit); joins take rows
        from the free list or the high-water mark, growing capacity as
        needed.  When occupancy drops below a quarter the universe is
        compacted — row order preserved, ``compacted=True`` flagged so
        engines drop row-keyed state.  The returned
        :class:`~repro.state.snapshot.ObjectDelta` is exactly what
        :meth:`~repro.engines.base.BaseEngine.apply_object_delta` eats.
        """
        table = self._materialize()
        left_rows: List[int] = []
        for oid in leaves:
            row = table.pop(int(oid))
            self._ext_of_row[row] = -1
            self.write_row(row, -1.0, -1.0)
            self._free.append(row)
            left_rows.append(row)
        joined_rows: List[int] = []
        for oid, (x, y) in joins.items():
            row = self._alloc_row()
            self.write_row(row, float(x), float(y))
            self._ext_of_row[row] = oid
            table[int(oid)] = row
            joined_rows.append(row)
        self._live_rows = None
        compacted = self._maybe_compact()
        return ObjectDelta(
            joined=np.asarray(joined_rows, dtype=np.intp),
            left=np.asarray(left_rows, dtype=np.intp),
            member_idx=self.live_rows() if member_mode else None,
            n_universe=self._cap,
            compacted=compacted,
        )

    def _seed(self, positions: np.ndarray) -> None:
        n = len(positions)
        self._staging[:n] = positions
        self._pending[:n] = True
        self._top = n
        self._ext_of_row[:n] = np.arange(n, dtype=np.int64)
        self._live_rows = None
        self._dirty = True

    def _materialize(self) -> Dict[int, int]:
        """Leave identity mapping on the first real churn admission."""
        if self._row_of_ext is None:
            self._row_of_ext = {i: i for i in range(self._top)}
        return self._row_of_ext

    def _alloc_row(self) -> int:
        if self._free:
            return self._free.pop()
        if self._top == self._cap:
            self._grow(self._cap * 2)
        row = self._top
        self._top += 1
        return row

    def _reallocate(
        self, new_cap: int, positions: np.ndarray, ext: np.ndarray
    ) -> None:
        """Install a fresh buffer pair (structural copy).

        The retired pair is never written again, so snapshots already
        handed out stay frozen at their epoch's content.
        """
        staging = np.full((new_cap, 2), -1.0, dtype=np.float64)
        staging[: len(positions)] = positions
        self._staging = staging
        self._published = staging.copy()
        self._pending = np.zeros(new_cap, dtype=bool)
        self._stale = np.zeros(new_cap, dtype=bool)
        ext_of_row = np.full(new_cap, -1, dtype=np.int64)
        ext_of_row[: len(ext)] = ext
        self._ext_of_row = ext_of_row
        self._cap = new_cap
        self._live_rows = None
        self._dirty = True
        self.structural_copies += 1
        self.registry.inc("state.structural_copies")

    def _grow(self, new_cap: int) -> None:
        self._reallocate(new_cap, self._latest(), self._ext_of_row)

    def _maybe_compact(self) -> bool:
        """Repack survivors when the universe is three-quarters vacant.

        Row order is preserved (survivors keep their relative order), so
        dense-mode consumers see an unchanged packed array; member-mode
        engines are told via ``ObjectDelta.compacted`` and rebuild.
        """
        n_live = self.n_live
        if self._cap <= _MIN_CAP or n_live * 4 > self._cap:
            return False
        rows = self.live_rows()
        new_cap = max(_MIN_CAP, 2 * n_live)
        latest = self.read_rows(rows)
        ext = self._ext_of_row[rows].copy()
        self._reallocate(new_cap, latest, ext)
        self._top = n_live
        self._free = []
        self._row_of_ext = {int(oid): row for row, oid in enumerate(ext)}
        return True
