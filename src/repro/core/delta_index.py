"""Delta-CSR grid: the sharded engine's incrementally maintained stripe index.

:class:`~repro.core.fast_index.CSRGrid` rebuilds its snapshot from
scratch every cycle — one ``argsort`` over flat cell IDs plus three
permuted-array gathers.  :class:`DeltaCSRGrid` keeps the previous
cycle's CSR arrays alive and maintains them *incrementally*; each worker
of the sharded engine (:mod:`repro.shard`) keeps one per stripe across
cycles:

* **Mover diff.**  The grid remembers each object's flat cell ID; one
  vectorized compare against the new cell IDs yields the movers.  Objects
  that stay in their cell need no structural work at all — candidate
  coordinates are resolved lazily (``x[ids[slot]]``) from the *current*
  position array at answer time.
* **Bucketed patch.**  When the mover fraction is at most
  :data:`_PATCH_THRESHOLD`, movers are deleted from their old cells and
  inserted into their new ones with per-cell slack capacity
  (:data:`_SLACK`): affected old cells are repacked (live entries stay
  contiguous at the cell front, slack slots hold ``-1``), inserts append
  into the slack.  A cell whose slack overflows triggers one compaction —
  a full slack rebuild — and is counted as a ``compaction`` event.
* **Counting-sort rebuild.**  Above the threshold (the paper's default
  random walk moves almost every object across cells every cycle)
  patching cannot win, so the grid rebuilds: the grouping runs as a
  C-level counting sort (SciPy's ``coo_tocsr`` when available, int32
  ``argsort`` otherwise), only the ``ids`` permutation is materialized
  (no permuted ``xs``/``ys`` copies), and the 2-D prefix-sum is
  accumulated in int32 into preallocated buffers.
* **Dirty rows.**  In the patch regime the horizontal pass of the
  prefix-sum is recomputed only for rows containing a touched cell; the
  vertical accumulation is one O(ncells) ``cumsum``.

Membership is the ``member_idx`` subset of a row-stable position
universe; it may change between updates, and joins and leaves are plain
inserts and deletes to the patch machinery.  Mover detection diffs the
new cell assignment against the grid's own stored one, never against an
older position array, so the caller may rewrite the position buffer in
place between updates (the stripe tasks' shared-memory snapshot does).

:func:`~repro.core.fast_index.batch_knn` answers over this grid
unchanged.  It is re-exported here because the tick benchmark's trace
(``benchmarks/tick/layers.py``) wraps it as a global of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from .fast_index import batch_knn, cell_index

__all__ = ["DeltaCSRGrid", "DeltaUpdateStats", "batch_knn"]

try:  # pragma: no cover - exercised via _scipy_group_works()
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except Exception:  # pragma: no cover - scipy absent in minimal CI envs
    _scipy_sparsetools = None


def _scipy_group_works() -> bool:
    """Verify the C counting-sort kernel on a tiny case before trusting it.

    ``coo_tocsr`` is private SciPy API; a signature or semantics change in
    a future release must demote us to the argsort fallback, not corrupt
    the index.
    """
    if _scipy_sparsetools is None or not hasattr(_scipy_sparsetools, "coo_tocsr"):
        return False
    try:
        rows = np.array([2, 0, 2, 1], dtype=np.int32)
        cols = np.array([0, 1, 2, 3], dtype=np.int32)
        ones = np.ones(4, dtype=np.int8)
        indptr = np.zeros(4, dtype=np.int32)
        indices = np.empty(4, dtype=np.int32)
        data_out = np.empty(4, dtype=np.int8)
        _scipy_sparsetools.coo_tocsr(
            3, 4, 4, rows, cols, ones, indptr, indices, data_out
        )
    except Exception:
        return False
    return indptr.tolist() == [0, 1, 2, 4] and indices.tolist() == [1, 3, 0, 2]


#: Module switches; tests monkeypatch them to force each path.
_USE_SCIPY = _scipy_group_works()
#: Patch when at most this fraction of the members changed cell.
_PATCH_THRESHOLD = 0.3
#: Spare capacity per cell in the patch regime, relative to its count.
_SLACK = 0.5


@dataclass(frozen=True)
class DeltaUpdateStats:
    """What one :meth:`DeltaCSRGrid.update` call did."""

    mode: str  # "patch" | "rebuild"
    movers: int
    compacted: bool


def _segmented_arange(lengths: np.ndarray) -> Tuple[np.ndarray, int]:
    """``concat([arange(n) for n in lengths])`` plus the total length."""
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    return np.arange(total) - np.repeat(ends - lengths, lengths), total


class DeltaCSRGrid:
    """A CSR grid snapshot of one region, maintained incrementally.

    Exposes the answer-facing surface of
    :class:`~repro.core.fast_index.CSRGrid` that
    :func:`~repro.core.fast_index.batch_knn` reads (``count_in_rects``,
    ``pair_candidates``, ``cell_start``/``ids`` row runs and the
    ``region``/``nx``/``ny``/``dx``/``dy`` geometry).  Differences:
    ``ids`` may contain ``-1`` slack gaps (masked to ``inf`` distance by
    :meth:`pair_candidates`) and candidate coordinates are gathered
    lazily from the raw position array instead of permuted copies.
    """

    def __init__(
        self,
        positions: np.ndarray,
        *,
        region: Tuple[float, float, float, float],
        nx: int,
        ny: int,
        member_idx: np.ndarray,
    ) -> None:
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1:
            raise ConfigurationError(
                f"grid must have >= 1 cell per side, got {nx}x{ny}"
            )
        x0, y0, x1, y1 = (float(v) for v in region)
        if not (x1 > x0 and y1 > y0):
            raise ConfigurationError(f"degenerate region {region!r}")
        self.nx = nx
        self.ny = ny
        self.region = (x0, y0, x1, y1)
        self.dx = (x1 - x0) / nx
        self.dy = (y1 - y0) / ny

        self._n_cells = nx * ny
        self._n_universe = -1
        self._has_slack = False
        self._backoff = False
        self._x = np.empty(0)
        self._y = np.empty(0)
        self._obj_cell = np.empty(0, dtype=np.int32)
        self._scratch = np.empty(0, dtype=np.int32)
        self._ones = np.empty(0, dtype=np.int8)
        self._data_out = np.empty(0, dtype=np.int8)
        self._indptr = np.empty(0, dtype=np.int32)
        self._indices = np.empty(0, dtype=np.int32)
        self._live = np.zeros(self._n_cells, dtype=np.int32)
        self.prefix = np.zeros((ny + 1, nx + 1), dtype=np.int32)
        self._ptmp = np.empty((ny, nx), dtype=np.int32)
        self._rowcum = np.zeros((ny, nx + 1), dtype=np.int32)

        self.n_objects = 0
        self.ids: np.ndarray = np.empty(0, dtype=np.int32)
        self.cell_start: np.ndarray = np.zeros(1, dtype=np.int32)
        self.last_stats: DeltaUpdateStats

        self.update(positions, member_idx)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update(
        self, positions: np.ndarray, member_idx: np.ndarray
    ) -> DeltaUpdateStats:
        """Bring the snapshot up to date with a new position array.

        ``member_idx`` lists the universe rows that belong to the grid.
        Chooses the patch or the rebuild regime from the measured mover
        fraction; returns (and stores in :attr:`last_stats`) what it did.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (N, 2) array")
        fresh = len(positions) != self._n_universe
        if fresh:
            self._allocate(len(positions))
        new_cell = self._compute_cells(positions, member_idx)
        movers = len(member_idx)
        patchable = False
        if not fresh:
            mover_mask = new_cell != self._obj_cell
            movers = int(np.count_nonzero(mover_mask))
            # After an overflow-triggered compaction, demand half the
            # churn before attempting to patch again: near the threshold
            # a patch overflows almost every cycle, and
            # compact-retry-compact thrash costs more than rebuilding
            # outright.
            threshold = _PATCH_THRESHOLD * (0.5 if self._backoff else 1.0)
            patchable = (
                _SLACK > 0.0
                and _PATCH_THRESHOLD > 0.0
                and movers / max(1, len(member_idx)) <= threshold
            )

        mode, compacted = "rebuild", False
        if not patchable:
            self._rebuild(new_cell, member_idx, slack_on=False)
        elif not self._has_slack:
            # Entering the patch regime: one slack rebuild lays out the
            # spare capacity the bucketed inserts need.
            self._rebuild(new_cell, member_idx, slack_on=True)
        elif self._patch(mover_mask, new_cell):
            self._backoff = compacted = True
            self._rebuild(new_cell, member_idx, slack_on=True)
        else:
            self._backoff = False
            mode = "patch"

        # new_cell is self._scratch; swap it into place and recycle the
        # old cell array as the next scratch buffer.
        self._obj_cell, self._scratch = new_cell, self._obj_cell
        self._x = positions[:, 0]
        self._y = positions[:, 1]
        self.last_stats = DeltaUpdateStats(mode, movers, compacted)
        return self.last_stats

    def _allocate(self, n: int) -> None:
        self._n_universe = n
        self._obj_cell = np.full(n, -1, dtype=np.int32)
        self._scratch = np.empty(n, dtype=np.int32)
        self._ones = np.ones(n, dtype=np.int8)
        self._data_out = np.empty(n, dtype=np.int8)
        self._indptr = np.empty(self._n_cells + 1, dtype=np.int32)
        self._indices = np.empty(n, dtype=np.int32)
        self._has_slack = False

    def _compute_cells(
        self, positions: np.ndarray, member_idx: np.ndarray
    ) -> np.ndarray:
        """Flat cell ID per universe row (``-1`` for non-members).

        Cells come from :func:`~repro.core.fast_index.cell_index`, the
        expression :func:`~repro.core.fast_index.batch_knn` uses for
        query home cells and critical rectangles, so a point on a cell
        boundary lands in the same cell whichever of them asks.
        """
        x0, y0, x1, y1 = self.region
        members = positions[member_idx]
        scratch = self._scratch
        scratch.fill(-1)
        scratch[member_idx] = cell_index(
            members[:, 1], y0, y1, self.ny
        ) * self.nx + cell_index(members[:, 0], x0, x1, self.nx)
        return scratch

    def _group_members(
        self, new_cell: np.ndarray, member_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids_grouped_by_cell, indptr)`` via counting sort.

        The hot step of the rebuild regime.  SciPy's ``coo_tocsr`` is a
        two-pass C counting sort (~3x faster than ``argsort`` at NP=1M);
        the fallback is an int32 ``argsort``.
        """
        indptr = self._indptr
        flat = np.ascontiguousarray(new_cell[member_idx], dtype=np.int32)
        cols = np.ascontiguousarray(member_idx, dtype=np.int32)
        nnz = len(flat)
        out = self._indices[:nnz]
        if _USE_SCIPY:
            assert _scipy_sparsetools is not None
            _scipy_sparsetools.coo_tocsr(
                self._n_cells, self._n_universe, nnz,
                flat, cols, self._ones[:nnz], indptr, out, self._data_out[:nnz],
            )
            return out, indptr
        out[:] = cols[np.argsort(flat)]
        counts = np.bincount(flat, minlength=self._n_cells)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        return out, indptr

    def _rebuild(
        self, new_cell: np.ndarray, member_idx: np.ndarray, *, slack_on: bool
    ) -> None:
        grouped, indptr = self._group_members(new_cell, member_idx)
        nnz = len(grouped)
        if not slack_on:
            self.ids = grouped
            self.cell_start = indptr
            self._has_slack = False
            # indptr is already the row-major cumulative count, so the
            # horizontal prefix pass collapses to one subtraction of each
            # row's start; only the vertical accumulation remains.
            np.subtract(
                indptr[1:].reshape(self.ny, self.nx),
                indptr[0 : self._n_cells : self.nx, None],
                out=self._ptmp,
            )
            np.cumsum(self._ptmp, axis=0, out=self.prefix[1:, 1:])
        else:
            counts = np.subtract(indptr[1:], indptr[:-1]).astype(np.int64)
            extra = np.maximum(1, np.ceil(counts * _SLACK).astype(np.int64))
            cap_start = np.zeros(self._n_cells + 1, dtype=np.int32)
            np.cumsum(counts + extra, out=cap_start[1:])
            padded = np.full(int(cap_start[-1]), -1, dtype=np.int32)
            if nnz:
                # Cell of each grouped slot, then scatter into the padded
                # layout preserving the grouped order within each cell.
                cell_of = new_cell[grouped]
                within = np.arange(nnz) - indptr[cell_of]
                padded[cap_start[cell_of] + within] = grouped
            self.ids = padded
            self.cell_start = cap_start
            np.copyto(self._live, counts, casting="unsafe")
            self._has_slack = True
            live2d = self._live.reshape(self.ny, self.nx)
            np.cumsum(live2d, axis=1, out=self._rowcum[:, 1:])
            np.cumsum(self._rowcum, axis=0, out=self.prefix[1:, :])
        self.n_objects = nnz

    def _patch(self, mover_mask: np.ndarray, new_cell: np.ndarray) -> bool:
        """Bucketed delete/insert of the movers; True on slack overflow."""
        ids = self.ids
        cell_start = self.cell_start
        live = self._live
        mov = np.flatnonzero(mover_mask)
        if not len(mov):
            return False
        old_c = self._obj_cell[mov]
        new_c = new_cell[mov]

        # Inserts are bounded by per-cell slack; check capacity *before*
        # mutating anything so an overflow can fall back to a clean
        # rebuild (one compaction event).
        ins_mask = new_c >= 0
        ins_ids = mov[ins_mask]
        ins_cells = new_c[ins_mask]
        order = np.argsort(ins_cells)
        ins_ids = ins_ids[order]
        ins_cells = ins_cells[order]
        uniq_ins, first, ins_counts = np.unique(
            ins_cells, return_index=True, return_counts=True
        )
        del_cells = old_c[old_c >= 0]
        touched_old, del_counts = np.unique(del_cells, return_counts=True)
        # Deletions landing in the insert cells (sorted-set lookup; a
        # bincount over all cells would be O(ncells) per patch).
        if len(touched_old):
            pos = np.searchsorted(touched_old, uniq_ins)
            safe_pos = np.minimum(pos, len(touched_old) - 1)
            hit = (pos < len(touched_old)) & (touched_old[safe_pos] == uniq_ins)
            dels_at_ins = np.where(hit, del_counts[safe_pos], 0)
        else:
            # Pure-insert patch (objects entering the stripe with no one
            # leaving it this cycle).
            dels_at_ins = np.zeros(len(uniq_ins), dtype=np.int64)
        capacity = cell_start[uniq_ins + 1] - cell_start[uniq_ins]
        occupied_after = live[uniq_ins] - dels_at_ins + ins_counts
        if np.any(occupied_after > capacity):
            return True

        # Repack affected old cells: gather their live runs, drop movers,
        # rewrite compacted, blank the tail.
        if len(touched_old):
            starts = cell_start[touched_old].astype(np.intp)
            lens = live[touched_old].astype(np.intp)
            within, total = _segmented_arange(lens)
            slot = np.repeat(starts, lens) + within
            entries = ids[slot]
            keep = ~mover_mask[entries]
            seg = np.repeat(np.arange(len(touched_old)), lens)
            kept_seg = seg[keep]
            new_len = np.bincount(kept_seg, minlength=len(touched_old)).astype(
                np.intp
            )
            within_k, _ = _segmented_arange(new_len)
            ids[np.repeat(starts, new_len) + within_k] = entries[keep]
            tail = lens - new_len
            within_t, _ = _segmented_arange(tail)
            ids[np.repeat(starts + new_len, tail) + within_t] = -1
            live[touched_old] = new_len

        # Bucketed inserts into the slack.
        if len(uniq_ins):
            base = cell_start[uniq_ins].astype(np.intp) + live[uniq_ins]
            within_i = np.arange(len(ins_cells)) - np.repeat(first, ins_counts)
            ids[np.repeat(base, ins_counts) + within_i] = ins_ids
            live[uniq_ins] += ins_counts.astype(np.int32)

        self.n_objects += int(len(ins_ids)) - int(len(del_cells))

        # Prefix: horizontal pass over dirty rows only, then one vertical
        # accumulation.
        rowcum = self._rowcum
        touched = np.unique(
            np.concatenate((touched_old, uniq_ins)) // self.nx
        )
        live2d = self._live.reshape(self.ny, self.nx)
        rowcum[touched, 1:] = np.cumsum(live2d[touched], axis=1)
        np.cumsum(rowcum, axis=0, out=self.prefix[1:, :])
        return False

    # ------------------------------------------------------------------
    # Answering surface (consumed by batch_knn)
    # ------------------------------------------------------------------
    def count_in_rects(
        self, ilo: np.ndarray, jlo: np.ndarray, ihi: np.ndarray, jhi: np.ndarray
    ) -> np.ndarray:
        """Live objects inside each inclusive cell rectangle (vectorized)."""
        p = self.prefix
        return (
            p[jhi + 1, ihi + 1] - p[jlo, ihi + 1] - p[jhi + 1, ilo] + p[jlo, ilo]
        )

    def pair_candidates(
        self, cand: np.ndarray, px: np.ndarray, py: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, d2)`` per candidate slot; slack gaps mask to ``inf``.

        Coordinates resolve lazily through the slot->object indirection
        against the *current* position array — the reason stayers need no
        per-cycle structural work.  Gap slots (``id == -1``) report
        infinite distance; ring growth counts only live objects, so every
        query's rectangle holds >= k real candidates and gaps can never
        be selected.
        """
        ids = self.ids[cand]
        gaps = ids < 0
        safe = np.where(gaps, 0, ids)
        pdx = self._x[safe] - px
        pdy = self._y[safe] - py
        d2 = pdx * pdx + pdy * pdy
        if gaps.any():
            d2[gaps] = np.inf
        return ids, d2
