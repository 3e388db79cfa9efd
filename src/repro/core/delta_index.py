"""Incremental delta-CSR grid maintenance + dirty-region answer reuse.

:class:`~repro.core.fast_index.CSRGrid` rebuilds its snapshot from
scratch every cycle — one ``argsort`` over flat cell IDs plus three
permuted-array gathers — which is most of the fast-grid cycle at NP=1M.
:class:`DeltaCSRGrid` keeps the previous cycle's CSR arrays alive and
maintains them *incrementally*, the §3.2 insight of the paper lifted
into the vectorized layer:

* **Mover diff.**  The grid remembers each object's flat cell ID; one
  vectorized compare against the new cell IDs yields the movers.  Objects
  that stay in their cell need no structural work at all — candidate
  coordinates are resolved lazily (``x[ids[slot]]``) from the *current*
  position array at answer time, so an in-place coordinate update is
  free.
* **Bucketed patch.**  When the mover fraction is below
  ``patch_threshold``, movers are deleted from their old cells and
  inserted into their new ones with per-cell slack capacity: affected old
  cells are repacked (live entries stay contiguous at the cell front,
  slack slots hold ``-1``), inserts append into the slack.  A cell whose
  slack overflows triggers one compaction — a full slack rebuild — and is
  counted as a ``compaction`` event.
* **Counting-sort rebuild.**  Above the threshold (the paper's default
  random walk at NP=1M moves ~99% of objects across δ*-cells every
  cycle) patching cannot win, so the grid falls back to a rebuild that is
  still ~3x cheaper than ``CSRGrid``: cell IDs are computed in int32, the
  grouping runs as a C-level counting sort (SciPy's ``coo_tocsr`` when
  available, int32 ``argsort`` otherwise), only the ``ids`` permutation
  is materialized (no permuted ``xs``/``ys`` copies), and the 2-D
  prefix-sum is accumulated in int32 into preallocated buffers.
* **Dirty rows.**  In the patch regime the horizontal pass of the
  prefix-sum is recomputed only for rows containing a touched cell; the
  vertical accumulation is one O(ncells) ``cumsum``.

On top of the structure, the grid tracks the **dirty-cell set** of each
cycle: every cell whose membership changed plus every cell holding an
object whose coordinates changed.  :class:`DeltaGridEngine` intersects
that set (via a summed-area table over the dirty mask) with each query's
previous critical rectangle — expanded by one cell — and re-runs
:func:`~repro.core.fast_index.batch_knn` only for the affected queries,
seeding their ring growth from the previous k-th distance; the answers of
clean queries carry forward verbatim.

Exactness argument (see DESIGN.md for the long form): a query answered
from rectangle ``R`` covering the disc of its k-th distance stays exact
as long as no object inside ``R`` moved and no object entered or left
``R``.  Both events mark a cell of ``R`` dirty — an object at distance
exactly ``lcrit`` can sit on the closed boundary of ``R``, whose cell can
fall just outside it when ``q + lcrit`` lands exactly on a cell edge,
which is why the dirty test expands ``R`` by one cell.  Re-answered
queries run through the same exact kernel (any seed level only enlarges
the candidate superset the exact (distance, ID) selection then reduces),
so answers are bit-identical to a full ``fast_grid`` recompute.

Positions contract: the grid keeps *references* to the position arrays
(no copies) and compares consecutive snapshots to detect coordinate
changes, so callers must pass a fresh array each cycle rather than
mutating one in place.  The motion layer always does; if the same array
object is passed twice, the grid stays exact but disables answer reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..engines.base import BaseEngine
from ..errors import ConfigurationError, IndexStateError, NotEnoughObjectsError
from ..state import as_world_snapshot
from ..grid.grid2d import resolve_grid_size
from .answers import AnswerList
from .fast_index import batch_knn

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


#: Module switch (tests monkeypatch this to force the fallback path).
_USE_SCIPY = _scipy_group_works()

#: Re-answer everything when more than this fraction of cells is dirty:
#: the summed-area table over the dirty mask would cost more than the
#: answering it could save.
_REUSE_DIRTY_LIMIT = 0.25

#: Relative inflation of the previous k-th distance when seeding ring
#: growth (mirrors the sharded engine's ``seed_slack`` idea; any value is
#: exact, a small one keeps the seeded rectangle tight).
_SEED_SLACK = 0.05


@dataclass(frozen=True)
class DeltaUpdateStats:
    """What one :meth:`DeltaCSRGrid.update` call did."""

    mode: str  # "patch" | "rebuild"
    n_members: int
    movers: int
    mover_fraction: float
    dirty_cells: int
    dirty_fraction: float
    dirty_all: bool
    compacted: bool
    slack_enabled: bool


def _segmented_arange(lengths: np.ndarray) -> Tuple[np.ndarray, int]:
    """``concat([arange(n) for n in lengths])`` plus the total length."""
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    return np.arange(total) - np.repeat(ends - lengths, lengths), total


class DeltaCSRGrid:
    """A CSR grid snapshot maintained incrementally across cycles.

    Exposes the same answer-facing surface as
    :class:`~repro.core.fast_index.CSRGrid` (``count_in_rects``,
    ``pair_candidates``, ``cell_start``/``ids`` row runs and the scalar
    SnapshotIndex accessors), so :func:`~repro.core.fast_index.batch_knn`
    runs against it unchanged.  Differences: ``ids`` may contain ``-1``
    slack gaps (masked to ``inf`` distance by :meth:`pair_candidates`) and
    candidate coordinates are gathered lazily from the raw position
    array instead of permuted copies.

    ``member_idx`` optionally restricts the grid to a subset of the
    object universe (the sharded engine keeps one delta grid per stripe);
    membership may change between updates — joins and leaves are handled
    as plain inserts and deletes by the patch machinery.
    """

    def __init__(
        self,
        positions: np.ndarray,
        ncells: Optional[int] = None,
        *,
        region: Tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        nx: Optional[int] = None,
        ny: Optional[int] = None,
        patch_threshold: float = 0.3,
        slack: float = 0.5,
        track_dirty: bool = True,
        member_idx: Optional[np.ndarray] = None,
    ) -> None:
        if ncells is not None:
            nx = ny = int(ncells)
        if nx is None or ny is None:
            raise ConfigurationError("specify either ncells= or both nx= and ny=")
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1:
            raise ConfigurationError(
                f"grid must have >= 1 cell per side, got {nx}x{ny}"
            )
        x0, y0, x1, y1 = (float(v) for v in region)
        if not (x1 > x0 and y1 > y0):
            raise ConfigurationError(f"degenerate region {region!r}")
        if not 0.0 <= patch_threshold <= 1.0:
            raise ConfigurationError(
                f"patch_threshold must be in [0, 1], got {patch_threshold}"
            )
        if slack < 0.0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self.nx = nx
        self.ny = ny
        self.ncells = nx  # legacy alias; square unit-grids keep nx == ny
        self.region = (x0, y0, x1, y1)
        self.dx = (x1 - x0) / nx
        self.dy = (y1 - y0) / ny
        self.delta = self.dx  # legacy alias
        self.patch_threshold = float(patch_threshold)
        self.slack = float(slack)
        self.track_dirty = bool(track_dirty)
        self.compactions = 0

        self._n_cells = nx * ny
        self._n_universe = -1
        self._has_slack = False
        self._backoff = False
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._positions_ref: Optional[np.ndarray] = None
        self._obj_cell: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._fbuf: Optional[np.ndarray] = None
        self._ibuf: Optional[np.ndarray] = None
        self._col: Optional[np.ndarray] = None
        self._ones: Optional[np.ndarray] = None
        self._data_out: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._live = np.zeros(self._n_cells, dtype=np.int32)
        self.prefix = np.zeros((ny + 1, nx + 1), dtype=np.int32)
        self._ptmp = np.empty((ny, nx), dtype=np.int32)
        self._rowcum: Optional[np.ndarray] = None
        self.dirty: Optional[np.ndarray] = None
        self._dirty_sat: Optional[np.ndarray] = None
        self._dirty_sat_fresh = False

        self.n_objects = 0
        self.ids: np.ndarray = np.empty(0, dtype=np.int32)
        self.cell_start: np.ndarray = np.zeros(1, dtype=np.int32)
        self.last_stats: DeltaUpdateStats

        self.update(positions, member_idx)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update(
        self,
        positions: np.ndarray,
        member_idx: Optional[np.ndarray] = None,
        *,
        pinned: bool = False,
    ) -> DeltaUpdateStats:
        """Bring the snapshot up to date with a new position array.

        Chooses the patch or the rebuild regime from the measured mover
        fraction; returns (and stores in :attr:`last_stats`) what it did.

        ``pinned=True`` declares the array content-stable for at least
        one cycle (an epoch-versioned store snapshot: published buffers
        are never mutated).  Unpinned arrays that share memory with the
        previous cycle's are treated as *aliased* — the caller may have
        mutated them in place, so the stored coordinate views can't
        witness what changed and answer reuse is disabled for the cycle.
        The identity check alone is not enough: a fresh view over the
        same mutated buffer is a different object with the same bytes.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (N, 2) array")
        n = len(positions)
        ref = self._positions_ref
        aliased = (
            not pinned
            and ref is not None
            and (positions is ref or np.may_share_memory(positions, ref))
        )
        fresh = n != self._n_universe
        if fresh:
            self._allocate(n)
        x = positions[:, 0]
        y = positions[:, 1]

        new_cell = self._compute_cells(x, y, member_idx)
        if fresh:
            stats = self._rebuild(
                x, y, new_cell, member_idx, slack_on=False, compacted=False
            )
            self._finish_update(positions, x, y, new_cell, stats)
            return stats

        assert self._obj_cell is not None
        mover_mask = new_cell != self._obj_cell
        movers = int(np.count_nonzero(mover_mask))
        n_members = (
            n if member_idx is None else int(len(member_idx))
        )
        mover_fraction = movers / max(1, n_members)

        dirty_all, dirty_count = self._track_dirty_cells(
            x, y, mover_mask, new_cell, mover_fraction, aliased
        )

        # After an overflow-triggered compaction, demand half the churn
        # before attempting to patch again: near the threshold a patch
        # overflows almost every cycle, and compact-retry-compact thrash
        # costs more than rebuilding outright.
        threshold = self.patch_threshold * (0.5 if self._backoff else 1.0)
        patchable = (
            self.slack > 0.0
            and self.patch_threshold > 0.0
            and mover_fraction <= threshold
        )
        if not patchable:
            stats = self._rebuild(
                x, y, new_cell, member_idx, slack_on=False, compacted=False,
                movers=movers, mover_fraction=mover_fraction,
                dirty_all=dirty_all, dirty_count=dirty_count,
                n_members=n_members,
            )
        elif not self._has_slack:
            # Entering the patch regime: one slack rebuild lays out the
            # spare capacity the bucketed inserts need.
            stats = self._rebuild(
                x, y, new_cell, member_idx, slack_on=True, compacted=False,
                movers=movers, mover_fraction=mover_fraction,
                dirty_all=dirty_all, dirty_count=dirty_count,
                n_members=n_members,
            )
        else:
            overflow = self._patch(mover_mask, new_cell)
            if overflow:
                self.compactions += 1
                self._backoff = True
                stats = self._rebuild(
                    x, y, new_cell, member_idx, slack_on=True, compacted=True,
                    movers=movers, mover_fraction=mover_fraction,
                    dirty_all=dirty_all, dirty_count=dirty_count,
                    n_members=n_members,
                )
            else:
                self._backoff = False
                stats = DeltaUpdateStats(
                    mode="patch",
                    n_members=n_members,
                    movers=movers,
                    mover_fraction=mover_fraction,
                    dirty_cells=dirty_count,
                    dirty_fraction=dirty_count / self._n_cells,
                    dirty_all=dirty_all,
                    compacted=False,
                    slack_enabled=True,
                )
        self._finish_update(positions, x, y, new_cell, stats)
        return stats

    def _allocate(self, n: int) -> None:
        # The full-membership float/int work buffers (_fbuf/_ibuf/_col)
        # are allocated lazily on first use: per-stripe grids only ever
        # run the member_idx path and would waste ~16MB per stripe at
        # NP=1M universes otherwise.
        self._n_universe = n
        self._obj_cell = np.full(n, -1, dtype=np.int32)
        self._scratch = np.empty(n, dtype=np.int32)
        self._fbuf = None
        self._ibuf = None
        self._col = None
        self._ones = np.ones(n, dtype=np.int8)
        self._data_out = np.empty(n, dtype=np.int8)
        self._indptr = np.empty(self._n_cells + 1, dtype=np.int32)
        self._indices = np.empty(n, dtype=np.int32)
        self._has_slack = False
        self._rowcum = None
        self._positions_ref = None

    def _compute_cells(
        self, x: np.ndarray, y: np.ndarray, member_idx: Optional[np.ndarray]
    ) -> np.ndarray:
        """Flat cell ID per universe object (``-1`` for non-members).

        Uses the exact float expression of
        :class:`~repro.core.fast_index.CSRGrid` so cell assignment (and
        with it every boundary case) is bit-identical across engines.
        """
        nx, ny = self.nx, self.ny
        x0, y0, x1, y1 = self.region
        sx = nx / (x1 - x0)
        sy = ny / (y1 - y0)
        scratch = self._scratch
        assert scratch is not None
        if member_idx is not None:
            xm = x[member_idx]
            ym = y[member_idx]
            ii = np.clip(((xm - x0) * sx).astype(np.int32), 0, nx - 1)
            jj = np.clip(((ym - y0) * sy).astype(np.int32), 0, ny - 1)
            scratch.fill(-1)
            scratch[member_idx] = jj * np.int32(nx) + ii
            return scratch
        if self._ibuf is None:
            self._fbuf = np.empty(self._n_universe, dtype=np.float64)
            self._ibuf = np.empty(self._n_universe, dtype=np.int32)
        fbuf, ibuf = self._fbuf, self._ibuf
        assert fbuf is not None and ibuf is not None
        # ii into ibuf.  ``v - 0.0 == v`` exactly for the in-region domain,
        # so the subtraction pass is skipped for origin-anchored regions
        # (the common unit square); the float64 product is truncated to
        # int32 by the ufunc's output cast — both transforms drop whole
        # memory passes without changing a single bit vs CSRGrid.
        if x0 == 0.0:
            np.multiply(x, sx, out=ibuf, casting="unsafe")
        else:
            np.subtract(x, x0, out=fbuf)
            np.multiply(fbuf, sx, out=fbuf)
            np.copyto(ibuf, fbuf, casting="unsafe")
        np.clip(ibuf, 0, nx - 1, out=ibuf)
        # jj into scratch, then flat = jj * nx + ii in place
        if y0 == 0.0:
            np.multiply(y, sy, out=scratch, casting="unsafe")
        else:
            np.subtract(y, y0, out=fbuf)
            np.multiply(fbuf, sy, out=fbuf)
            np.copyto(scratch, fbuf, casting="unsafe")
        np.clip(scratch, 0, ny - 1, out=scratch)
        np.multiply(scratch, np.int32(nx), out=scratch)
        np.add(scratch, ibuf, out=scratch)
        return scratch

    def _group_members(
        self, new_cell: np.ndarray, member_idx: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids_grouped_by_cell, indptr)`` via counting sort.

        The hot step of the rebuild regime.  SciPy's ``coo_tocsr`` is a
        two-pass C counting sort (~3x faster than ``argsort`` at NP=1M);
        the fallback is an int32 ``argsort`` — still cheaper than the
        ``CSRGrid`` build, which additionally gathers three permuted
        arrays.
        """
        indptr = self._indptr
        indices = self._indices
        assert indptr is not None and indices is not None
        if member_idx is None:
            if self._col is None:
                self._col = np.arange(self._n_universe, dtype=np.int32)
            flat = new_cell
            cols = self._col
            nnz = self._n_universe
            out = indices
        else:
            flat = np.ascontiguousarray(new_cell[member_idx], dtype=np.int32)
            cols = np.ascontiguousarray(member_idx, dtype=np.int32)
            nnz = len(flat)
            out = indices[:nnz]
        if _USE_SCIPY:
            data_out = self._data_out
            assert _scipy_sparsetools is not None
            assert self._ones is not None and data_out is not None
            _scipy_sparsetools.coo_tocsr(
                self._n_cells, self._n_universe, nnz,
                flat, cols, self._ones[:nnz], indptr, out, data_out[:nnz],
            )
            return out, indptr
        order = np.argsort(flat)
        out[:] = cols[order] if member_idx is not None else order
        counts = np.bincount(flat, minlength=self._n_cells)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        return out, indptr

    def _rebuild(
        self,
        x: np.ndarray,
        y: np.ndarray,
        new_cell: np.ndarray,
        member_idx: Optional[np.ndarray],
        *,
        slack_on: bool,
        compacted: bool,
        movers: Optional[int] = None,
        mover_fraction: float = 1.0,
        dirty_all: bool = True,
        dirty_count: Optional[int] = None,
        n_members: Optional[int] = None,
    ) -> DeltaUpdateStats:
        grouped, indptr = self._group_members(new_cell, member_idx)
        nnz = len(grouped)
        if not slack_on:
            self.ids = grouped
            self.cell_start = indptr
            self._has_slack = False
            self._rowcum = None
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
            extra = np.maximum(
                1, np.ceil(counts * self.slack).astype(np.int64)
            )
            cap_start = np.zeros(self._n_cells + 1, dtype=np.int32)
            np.cumsum(counts + extra, out=cap_start[1:])
            padded = np.full(int(cap_start[-1]), -1, dtype=np.int32)
            if nnz:
                # Cell of each grouped slot, then scatter into the padded
                # layout preserving the grouped order within each cell.
                cell_of = (
                    new_cell[grouped]
                    if member_idx is not None
                    else np.repeat(np.arange(self._n_cells), counts)
                )
                within = np.arange(nnz) - indptr[cell_of]
                padded[cap_start[cell_of] + within] = grouped
            self.ids = padded
            self.cell_start = cap_start
            np.copyto(self._live, counts, casting="unsafe")
            self._has_slack = True
            self._refresh_rowcum_full()
        self.n_objects = nnz
        if movers is None:
            movers = nnz
        if n_members is None:
            n_members = nnz
        if dirty_count is None:
            dirty_count = self._n_cells
        return DeltaUpdateStats(
            mode="rebuild",
            n_members=n_members,
            movers=movers,
            mover_fraction=mover_fraction,
            dirty_cells=self._n_cells if dirty_all else dirty_count,
            dirty_fraction=1.0 if dirty_all else dirty_count / self._n_cells,
            dirty_all=dirty_all,
            compacted=compacted,
            slack_enabled=slack_on,
        )

    def _refresh_rowcum_full(self) -> None:
        if self._rowcum is None:
            self._rowcum = np.zeros((self.ny, self.nx + 1), dtype=np.int32)
        live2d = self._live.reshape(self.ny, self.nx)
        np.cumsum(live2d, axis=1, out=self._rowcum[:, 1:])
        np.cumsum(self._rowcum, axis=0, out=self.prefix[1:, :])

    def _patch(self, mover_mask: np.ndarray, new_cell: np.ndarray) -> bool:
        """Bucketed delete/insert of the movers; True on slack overflow."""
        obj_cell = self._obj_cell
        ids = self.ids
        cell_start = self.cell_start
        live = self._live
        assert obj_cell is not None
        mov = np.flatnonzero(mover_mask)
        if not len(mov):
            return False
        old_c = obj_cell[mov]
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
            # Pure-insert patch (churn: objects entering a stripe or the
            # population with no one leaving this cycle).
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
        assert rowcum is not None
        touched = np.unique(
            np.concatenate((touched_old, uniq_ins)) // self.nx
        )
        live2d = self._live.reshape(self.ny, self.nx)
        rowcum[touched, 1:] = np.cumsum(live2d[touched], axis=1)
        np.cumsum(rowcum, axis=0, out=self.prefix[1:, :])
        return False

    def _track_dirty_cells(
        self,
        x: np.ndarray,
        y: np.ndarray,
        mover_mask: np.ndarray,
        new_cell: np.ndarray,
        mover_fraction: float,
        aliased: bool,
    ) -> Tuple[bool, int]:
        """Mark cells invalidated this cycle; returns ``(dirty_all, count)``.

        A cell is dirty when its membership changed *or* any object it
        holds changed coordinates.  When reuse is hopeless (high mover
        fraction, aliased position buffers, tracking disabled) the O(n)
        coordinate compare is skipped and everything counts as dirty.
        """
        self._dirty_sat_fresh = False
        if (
            not self.track_dirty
            or aliased
            or self._x is None
            or mover_fraction > _REUSE_DIRTY_LIMIT
        ):
            self.dirty = None
            return True, self._n_cells
        obj_cell = self._obj_cell
        assert obj_cell is not None
        changed = x != self._x
        changed |= y != self._y
        changed |= mover_mask
        touched = np.flatnonzero(changed)
        if self.dirty is None or len(self.dirty) != self._n_cells:
            self.dirty = np.zeros(self._n_cells, dtype=bool)
        else:
            self.dirty[:] = False
        old_cells = obj_cell[touched]
        new_cells = new_cell[touched]
        self.dirty[old_cells[old_cells >= 0]] = True
        self.dirty[new_cells[new_cells >= 0]] = True
        count = int(np.count_nonzero(self.dirty))
        if count > _REUSE_DIRTY_LIMIT * self._n_cells:
            self.dirty = None
            return True, count
        return False, count

    def _finish_update(
        self,
        positions: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        new_cell: np.ndarray,
        stats: DeltaUpdateStats,
    ) -> None:
        # new_cell is self._scratch; swap it into place and recycle the
        # old cell array as the next scratch buffer.
        self._obj_cell, self._scratch = new_cell, self._obj_cell
        self._x = x
        self._y = y
        self._positions_ref = positions
        self.last_stats = stats

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
        assert self._x is not None and self._y is not None
        ids = self.ids[cand]
        gaps = ids < 0
        safe = np.where(gaps, 0, ids)
        pdx = self._x[safe] - px
        pdy = self._y[safe] - py
        d2 = pdx * pdx + pdy * pdy
        if gaps.any():
            d2[gaps] = np.inf
        return ids, d2

    def clean_queries(self, rects: np.ndarray) -> np.ndarray:
        """Per-query True when no dirty cell meets the rectangle (+-1 cell).

        ``rects`` is the ``(nq, 4)`` array of previous critical
        rectangles from :class:`~repro.core.fast_index.BatchKNNResult`.
        The one-cell expansion covers the knife edge where an object at
        distance exactly ``lcrit`` sits in the cell just past the
        rectangle's clamped bounding box.
        """
        if self.dirty is None:
            return np.zeros(len(rects), dtype=bool)
        if not self._dirty_sat_fresh:
            if self._dirty_sat is None:
                self._dirty_sat = np.zeros(
                    (self.ny + 1, self.nx + 1), dtype=np.int32
                )
            dirty2d = self.dirty.reshape(self.ny, self.nx)
            tmp = np.cumsum(dirty2d, axis=0, dtype=np.int32)
            np.cumsum(tmp, axis=1, out=self._dirty_sat[1:, 1:])
            self._dirty_sat_fresh = True
        p = self._dirty_sat
        ilo = np.maximum(rects[:, 0] - 1, 0)
        jlo = np.maximum(rects[:, 1] - 1, 0)
        ihi = np.minimum(rects[:, 2] + 1, self.nx - 1)
        jhi = np.minimum(rects[:, 3] + 1, self.ny - 1)
        hits = (
            p[jhi + 1, ihi + 1] - p[jlo, ihi + 1] - p[jhi + 1, ilo] + p[jlo, ilo]
        )
        return hits == 0

    # ------------------------------------------------------------------
    # SnapshotIndex protocol — scalar accessors (parity with CSRGrid)
    # ------------------------------------------------------------------
    def locate(self, x: float, y: float) -> Tuple[int, int]:
        """Cell ``(i, j)`` of a point (clamped to the grid)."""
        x0, y0, x1, y1 = self.region
        i = min(max(int((x - x0) * (self.nx / (x1 - x0))), 0), self.nx - 1)
        j = min(max(int((y - y0) * (self.ny / (y1 - y0))), 0), self.ny - 1)
        return i, j

    def count_in_cells(self, ilo: int, jlo: int, ihi: int, jhi: int) -> int:
        """Number of live objects inside the inclusive cell rectangle."""
        p = self.prefix
        return int(
            p[jhi + 1, ihi + 1] - p[jlo, ihi + 1] - p[jhi + 1, ilo] + p[jlo, ilo]
        )

    def gather_cells(
        self, ilo: int, jlo: int, ihi: int, jhi: int
    ) -> Tuple[List[int], List[float], List[float]]:
        """``(ids, xs, ys)`` of every live object inside the rectangle."""
        assert self._x is not None and self._y is not None
        starts = self.cell_start
        nx = self.nx
        out_ids: List[int] = []
        out_xs: List[float] = []
        out_ys: List[float] = []
        for j in range(jlo, jhi + 1):
            base = j * nx
            lo = int(starts[base + ilo])
            hi = int(starts[base + ihi + 1])
            if lo == hi:
                continue
            run = self.ids[lo:hi]
            run = run[run >= 0]
            out_ids.extend(run.tolist())
            out_xs.extend(self._x[run].tolist())
            out_ys.extend(self._y[run].tolist())
        return out_ids, out_xs, out_ys

    def position_of(self, object_id: int) -> Tuple[float, float]:
        """Snapshot position of one object (by global ID)."""
        assert self._x is not None and self._y is not None
        return float(self._x[object_id]), float(self._y[object_id])


class DeltaGridEngine(BaseEngine):
    """Monitoring engine over :class:`DeltaCSRGrid` with answer reuse.

    Same exact-answer contract (ties broken by object ID) as
    :class:`~repro.core.fast_index.FastGridEngine`, and the same stage
    spans on the tracer the pipeline binds, except that maintenance runs
    as ``maintain.delta_update`` and the answer stage adds
    ``answer.reuse_check``.

    Churn support (member mode): with a row-stable position universe and
    an ``ObjectDelta.member_idx`` subset, joins and leaves reach the grid
    as ordinary movers (cell ``-1`` ↔ live cell), so membership churn is
    patched incrementally instead of forcing a rebuild.  Query deltas
    remap the per-query reuse state through ``QueryDelta.kept``: a
    surviving query keeps its previous answer, critical rectangle and
    seeded radius; registered queries are answered by a one-shot overhaul
    on their first cycle (their rows are masked out of the clean set).
    """

    supports_member_idx = True

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        ncells: Optional[int] = None,
        delta: Optional[float] = None,
        patch_threshold: float = 0.3,
        slack: float = 0.5,
        reuse: bool = True,
    ) -> None:
        super().__init__(k, queries)
        self.name = "delta-grid"
        self._ncells = ncells
        self._delta = delta
        self._patch_threshold = float(patch_threshold)
        self._slack = float(slack)
        self._reuse = bool(reuse)
        self.grid: Optional[DeltaCSRGrid] = None
        self.last_reuse_mask: Optional[np.ndarray] = None
        self._prev_top_d2: Optional[np.ndarray] = None
        self._prev_top_ids: Optional[np.ndarray] = None
        self._prev_rects: Optional[np.ndarray] = None
        self._prev_kth: Optional[np.ndarray] = None
        self._prev_answers: Optional[List[AnswerList]] = None
        self._member_idx: Optional[np.ndarray] = None
        # Rows admitted by the last query delta: their remapped reuse
        # slots are placeholders, so they must be re-answered once.
        self._fresh_queries: Optional[np.ndarray] = None

    def set_queries(self, queries: np.ndarray) -> None:
        """Move the query points, dropping all per-query reuse state.

        Previous critical rectangles describe the old positions, so
        every query is re-answered on the next cycle.
        """
        super().set_queries(queries)
        self._drop_reuse_state()

    def _drop_reuse_state(self) -> None:
        self._prev_top_d2 = None
        self._prev_top_ids = None
        self._prev_rects = None
        self._prev_kth = None
        self._prev_answers = None
        self.last_reuse_mask = None
        self._fresh_queries = None

    # ------------------------------------------------------------------
    # Churn deltas
    # ------------------------------------------------------------------
    def apply_query_delta(self, delta) -> None:
        """Admit a query churn batch, carrying surviving reuse state over.

        ``delta.kept`` maps new rows to old rows; surviving queries keep
        their previous answers, critical rectangles and k-th-distance
        seeds (their positions are unchanged by contract).  New rows get
        placeholder state and are force-re-answered on the next cycle.
        """
        kept = np.asarray(delta.kept, dtype=np.intp)
        had_state = self._prev_top_d2 is not None
        self.queries = np.asarray(delta.queries, dtype=np.float64)
        nq = len(self.queries)
        if not had_state:
            self._drop_reuse_state()
            return
        has_prev = kept >= 0
        safe = np.where(has_prev, kept, 0)
        k = self.k
        top_d2 = self._prev_top_d2[safe].copy()
        top_ids = self._prev_top_ids[safe].copy()
        rects = self._prev_rects[safe].copy()
        kth = self._prev_kth[safe].copy()
        new_rows = ~has_prev
        top_d2[new_rows] = np.inf
        top_ids[new_rows] = -1
        rects[new_rows] = 0
        kth[new_rows] = np.inf
        if self._prev_answers is not None:
            # Fresh rows get placeholders; they are force-re-answered
            # (via _fresh_queries) before the next answers are returned.
            self._prev_answers = [
                self._prev_answers[i] if i >= 0 else AnswerList(k)
                for i in kept
            ]
        self._prev_top_d2 = top_d2
        self._prev_top_ids = top_ids
        self._prev_rects = rects
        self._prev_kth = kth
        self._fresh_queries = new_rows if new_rows.any() else None
        self.last_reuse_mask = None
        assert len(top_d2) == nq

    def apply_object_delta(self, delta) -> None:
        """Admit an object churn batch.

        Membership changes need no structural work here — the next
        :meth:`maintain` passes the new ``member_idx`` to the grid, which
        treats joins and leaves as movers.  Answer reuse stays sound:
        every join or leave dirties its cell, so any query whose answer
        could change is re-answered.  A compaction remaps row ids, which
        invalidates the grid's cell bookkeeping and every stored answer
        id — rebuild from scratch.
        """
        self._member_idx = delta.member_idx
        if delta.compacted:
            self.request_rebuild()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    #: Default grid-sizing factor vs the paper's delta* = 1/sqrt(NP).
    #: The overhaul cost model behind Theorem 1 balances per-cycle build
    #: cost against per-query scan cost; the delta engine's rebuild is
    #: dominated by the counting-sort scatter over the cell array, whose
    #: cache behavior improves sharply with fewer cells while the
    #: vectorized answering stays exact at any resolution.  Half the
    #: cells per side (cell area x4) measures fastest end-to-end at
    #: NP=1M on the benchmark box.
    GRID_FACTOR = 0.5

    def _resolve_ncells(self, n_objects: int) -> int:
        if self._ncells is None and self._delta is None:
            base = resolve_grid_size(n_objects=max(1, n_objects))
            return max(1, round(base * self.GRID_FACTOR))
        return resolve_grid_size(self._ncells, self._delta, None)

    def load(self, positions: np.ndarray) -> None:
        self.grid = None
        self._drop_reuse_state()
        self.maintain(positions)

    def maintain(self, positions: np.ndarray) -> None:
        with self.tracer.span("delta_update"):
            world = as_world_snapshot(positions)
            positions = np.asarray(world, dtype=np.float64)
            member = self._member_idx
            n_live = len(positions) if member is None else len(member)
            # Sizing from the *live* population keeps the geometry
            # identical to a fresh engine built from the packed survivors
            # (the bit-identity contract of the churn suite).
            ncells = self._resolve_ncells(n_live)
            grid = self.grid
            if grid is None or grid.nx != ncells:
                self.grid = grid = DeltaCSRGrid(
                    positions,
                    ncells,
                    patch_threshold=self._patch_threshold,
                    slack=self._slack,
                    track_dirty=self._reuse,
                    member_idx=member,
                )
                # A fresh grid means fresh geometry: old critical
                # rectangles are meaningless in the new cell coordinates.
                self._drop_reuse_state()
            else:
                grid.update(positions, member, pinned=world.versioned)
            self._positions = positions
        metrics = self.metrics
        if metrics.enabled:
            stats = grid.last_stats
            metrics.inc("delta.movers", stats.movers)
            metrics.inc("delta.dirty_cells", stats.dirty_cells)
            metrics.inc(
                "delta.patch_cycles" if stats.mode == "patch"
                else "delta.rebuild_cycles"
            )
            if stats.compacted:
                metrics.inc("delta.compactions")
            metrics.set_gauge("delta.mover_fraction", stats.mover_fraction)
            metrics.set_gauge("delta.dirty_fraction", stats.dirty_fraction)

    # ------------------------------------------------------------------
    # Answering: dirty-rectangle reuse + seeded batch_knn
    # ------------------------------------------------------------------
    def answer(self) -> List[AnswerList]:
        grid = self.grid
        if grid is None:
            raise IndexStateError("load() must run before answer()")
        k = self.k
        if k > grid.n_objects:
            raise NotEnoughObjectsError(k, grid.n_objects)
        nq = self.n_queries
        if nq == 0:
            return []

        with self.tracer.span("reuse_check"):
            reusable = (
                self._reuse
                and self._prev_rects is not None
                and len(self._prev_rects) == nq
                and not grid.last_stats.dirty_all
            )
            if reusable:
                clean = grid.clean_queries(self._prev_rects)
                if self._fresh_queries is not None:
                    # Rows admitted by the last query delta carry
                    # placeholder rects — never reusable.
                    clean &= ~self._fresh_queries
            else:
                clean = np.zeros(nq, dtype=bool)
            self._fresh_queries = None
        affected = np.flatnonzero(~clean)
        n_clean = int(nq - len(affected))

        if self._prev_top_d2 is None:
            top_d2 = np.full((nq, k), np.inf)
            top_ids = np.full((nq, k), -1, dtype=np.int64)
            rects = np.zeros((nq, 4), dtype=np.intp)
        else:
            top_d2 = self._prev_top_d2
            top_ids = self._prev_top_ids
            rects = self._prev_rects

        if len(affected):
            qx = self.queries[affected, 0]
            qy = self.queries[affected, 1]
            seeds = None
            if self._prev_kth is not None and len(self._prev_kth) == nq:
                radius = self._prev_kth[affected] * (1.0 + _SEED_SLACK)
                cell = min(grid.dx, grid.dy)
                seeds = np.where(
                    np.isfinite(radius),
                    np.ceil(radius / cell),
                    0.0,
                ).astype(np.intp)
            result = batch_knn(
                grid, qx, qy, k, self.tracer, seed_level=seeds
            )
            top_d2[affected] = result.top_d2
            top_ids[affected] = result.top_ids
            rects[affected] = result.rects
            if self.metrics.enabled:
                stats = result.stats
                self.metrics.inc("fast.answer.queries", len(affected))
                self.metrics.inc("fast.answer.ring_passes", stats["ring_passes"])
                self.metrics.inc("fast.answer.pairs", stats["pairs"])

        prev_answers = self._prev_answers
        if prev_answers is not None and len(prev_answers) == nq:
            # Clean queries keep last cycle's AnswerList objects (and
            # their memoized neighbors); only re-answered rows are
            # materialized again.
            answers = prev_answers
            if len(affected):
                d_rows = top_d2[affected].tolist()
                i_rows = top_ids[affected].tolist()
                for j, query_id in enumerate(affected.tolist()):
                    answer = AnswerList(k)
                    answer._entries = list(zip(d_rows[j], i_rows[j]))
                    answers[query_id] = answer
        else:
            answers = []
            d_rows = top_d2.tolist()
            i_rows = top_ids.tolist()
            for query_id in range(nq):
                answer = AnswerList(k)
                answer._entries = list(zip(d_rows[query_id], i_rows[query_id]))
                answers.append(answer)
        self._prev_answers = answers

        self._prev_top_d2 = top_d2
        self._prev_top_ids = top_ids
        self._prev_rects = rects
        self._prev_kth = np.sqrt(top_d2[:, k - 1])
        self.last_reuse_mask = clean
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("delta.queries_reused", n_clean)
            metrics.inc("delta.queries_reanswered", len(affected))
            if n_clean:
                metrics.inc("delta.reuse_cycles")
        return answers
