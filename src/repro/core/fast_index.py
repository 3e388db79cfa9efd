"""Vectorized CSR grid snapshot + batched multi-query k-NN answering.

This is the repository's *production* fast path, distinct from the
paper-faithful engines in :mod:`~repro.core.object_index` et al. (which
deliberately stay pure-Python so the reproduced cost model holds; see
DESIGN.md).  It keeps the paper's algorithmic skeleton — grid snapshot,
ring growth to a critical radius, critical-rectangle scan — but lays the
grid out as flat numpy arrays and answers all queries of a cycle in one
batched pass, in the spirit of Lettich et al.'s manycore k-NN engine,
which likewise rebuilds one flat grid per tick:

* **CSR snapshot** (:class:`CSRGrid`): one counting sort groups the row
  ids of the indexed objects by flat cell ID (SciPy's C ``coo_tocsr``
  when its import-time self-test passes, an int32 ``argsort``
  otherwise), so "all objects in cells ``(ilo..ihi, j)``" is a single
  contiguous slice of ``ids``; coordinates are read through those ids,
  never copied.  A 2-D prefix-sum of the cell counts makes "objects
  inside rectangle R" an O(1) lookup.  The grid is rebuilt from scratch
  on every update, like the paper's overhaul snapshot (§3.1).
* **Batched answering** (:func:`batch_knn`): per-query critical radii
  come from vectorized ring growth over the prefix-sum (every active
  query advances one ring per pass, no per-object work); queries are
  then grouped by home cell with ``np.minimum.reduceat`` /
  ``np.maximum.reduceat`` union rectangles so queries sharing a cell
  share one gather; one ``np.partition`` per power-of-two bucket of
  candidate counts finds each query's k-th smallest distance, and one
  ``lexsort`` of the pairs at or below it ranks the exact k-NN, with ties
  broken by object ID.  A caller may also bound each query's k-th
  distance (the paper's §3.2 incremental radius, see
  :class:`FastGridEngine`); the radius is then the smaller of the two.

Exactness argument (same as the paper's Fig. 3): the ring growth stops at
the first rectangle ``R0 = R(cq, l)`` holding at least ``k`` objects, so
the distance from ``q`` to the farthest corner of ``R0`` bounds the true
k-th-NN distance; so does the farthest current position of any ``k``
live objects (§3.2), and the minimum of two sound bounds is sound.  The
critical rectangle covers the disc of that radius, padded by a relative
``1e-9`` and an absolute ``1e-12`` so an object at exactly the radius
lands inside it despite rounding in ``q ± r`` and in the cell
assignment; rectangle cells and snapshot cells use the one expression
of :func:`cell_index`.  The per-query union rectangle only ever *adds*
candidate cells.  Queries may lie outside the unit square: the home
cell clamps to the nearest edge cell, which only enlarges ``R0`` (and so
the candidate set), never shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, IndexStateError, NotEnoughObjectsError
from ..grid.grid2d import resolve_grid_size
from ..obs.tracing import NULL_TRACER, NullTracer, Tracer

from ..engines.base import BaseEngine, _as_queries
from .answers import AnswerList

try:  # pragma: no cover - exercised via _scipy_group_works()
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover - scipy absent in minimal CI envs
    _scipy_sparsetools = None

#: Relative and absolute pad on every critical radius: an object at exactly
#: the radius must fall inside the critical rectangle even when ``q ± r``
#: rounds across a cell boundary.
RADIUS_PAD_REL = 1e-9
RADIUS_PAD_ABS = 1e-12

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


#: Whether :class:`CSRGrid` groups with SciPy's kernel; tests monkeypatch
#: it to run the argsort fallback.
_USE_SCIPY = _scipy_group_works()


def cell_index(v: np.ndarray, n: int, dtype=np.intp) -> np.ndarray:
    """Clamped cell index along one axis of ``n`` cells over ``[0, 1)``.

    The one cell expression of the fast path: snapshot cells, query home
    cells and critical-rectangle bounds all come from it, so a point on a
    cell boundary lands in the same cell whichever of them asks.  The
    clamp runs on floats, before the cast, so coordinates far outside the
    unit square (or infinite) clamp to the edge cells instead of
    overflowing, and NaN lands in cell 0: every result is a valid index,
    which the counting sort's C kernel relies on.
    """
    c = np.asarray(v, dtype=np.float64) * n
    np.fmax(c, 0.0, out=c)  # fmax, unlike clip, maps NaN to 0
    np.fmin(c, n - 1, out=c)
    return c.astype(dtype)


class CSRGrid:
    """A grid snapshot of the unit square in CSR layout.

    ``nx x nx`` square cells of side ``dx`` cover the unit square.  The
    indexed objects are the ``member_idx`` rows of an ``(N, 2)`` position
    array (every row when ``None``); their rows are the object IDs the
    grid reports, so IDs stay row-stable while membership changes.

    ``ids``
        int32 member rows grouped by flat cell ID ``j * nx + i``: cell
        ``(i, j)`` owns ``ids[cell_start[j*nx+i] : cell_start[j*nx+i+1]]``,
        and cells ``(ilo..ihi, j)`` form one contiguous run.
    ``cell_start``
        ``(nx*nx + 1,)`` int32 offsets, the counting sort's ``indptr``.
    ``prefix``
        ``(nx+1, nx+1)`` int32 summed-area table of cell counts for O(1)
        rectangle population counts.

    Coordinates are not copied: the grid keeps a view of the position
    array it was last built over and reads them through ``ids``, so the
    caller must not rewrite that array before the next :meth:`update`
    (:func:`~repro.engines.snapshot.make_snapshot` hands it a private
    copy).
    """

    def __init__(
        self,
        positions: np.ndarray,
        nx: int,
        *,
        member_idx: Optional[np.ndarray] = None,
    ) -> None:
        nx = int(nx)
        if nx < 1:
            raise ConfigurationError(f"grid must have >= 1 cell per side, got {nx}")
        self.nx = nx
        self.dx = 1.0 / nx
        self.cell_start = np.zeros(nx * nx + 1, dtype=np.int32)
        self.prefix = np.zeros((nx + 1, nx + 1), dtype=np.int32)
        self._row_counts = np.empty((nx, nx), dtype=np.int32)
        # Counting-sort buffers, grown to the largest population seen.
        self._ids = np.empty(0, dtype=np.int32)
        self._ones = np.empty(0, dtype=np.int8)
        self._data_out = np.empty(0, dtype=np.int8)
        self._all_rows = np.empty(0, dtype=np.int32)
        self.update(positions, member_idx)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def update(
        self, positions: np.ndarray, member_idx: Optional[np.ndarray] = None
    ) -> None:
        """Rebuild the snapshot over ``positions`` in place.

        The cell layout stays; ``member_idx`` (a sorted set of row ids, as
        :class:`~repro.state.ObjectDelta` carries it, or ``None`` for
        every row) may differ from the last build.  A member set that is
        exactly ``[0, n)`` — first row 0, last row ``n - 1`` — is read as
        the view ``positions[:n]``, with no gather.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError("positions must be an (N, 2) array")
        n = len(positions) if member_idx is None else len(member_idx)
        if member_idx is None or n == 0 or (
            member_idx[0] == 0 and member_idx[-1] == n - 1
        ):
            if len(self._all_rows) < n:
                self._all_rows = np.arange(n, dtype=np.int32)
            rows = self._all_rows[:n]
            members = positions[:n]
        else:
            rows = np.ascontiguousarray(member_idx, dtype=np.int32)
            members = positions[rows]
        nx = self.nx
        flat = cell_index(members[:, 1], nx, np.int32)
        flat *= nx
        flat += cell_index(members[:, 0], nx, np.int32)
        self.ids = self._group(flat, rows, len(positions))
        self.n_objects = n
        # cell_start is the row-major running count, so each grid row's
        # horizontal prefix is one subtraction of the row's start; only
        # the vertical accumulation remains.
        np.subtract(
            self.cell_start[1:].reshape(nx, nx),
            self.cell_start[0 : nx * nx : nx, None],
            out=self._row_counts,
        )
        np.cumsum(self._row_counts, axis=0, out=self.prefix[1:, 1:])
        self._x = positions[:, 0]
        self._y = positions[:, 1]

    def _group(
        self, flat: np.ndarray, rows: np.ndarray, n_rows: int
    ) -> np.ndarray:
        """``rows`` grouped by cell; fills :attr:`cell_start` in place.

        SciPy's ``coo_tocsr`` is a two-pass C counting sort, more than
        twice as fast as the int32 ``argsort`` fallback at a million
        objects.
        """
        nnz = len(rows)
        if len(self._ids) < nnz:
            self._ids = np.empty(nnz, dtype=np.int32)
            self._ones = np.ones(nnz, dtype=np.int8)
            self._data_out = np.empty(nnz, dtype=np.int8)
        out = self._ids[:nnz]
        n_cells = len(self.cell_start) - 1
        if _USE_SCIPY:
            assert _scipy_sparsetools is not None
            _scipy_sparsetools.coo_tocsr(
                n_cells, n_rows, nnz, flat, rows, self._ones[:nnz],
                self.cell_start, out, self._data_out[:nnz],
            )
        else:
            out[:] = rows[np.argsort(flat)]
            np.cumsum(
                np.bincount(flat, minlength=n_cells), out=self.cell_start[1:]
            )
        return out

    # ------------------------------------------------------------------
    # Answering surface (batch_knn)
    # ------------------------------------------------------------------
    def count_in_rects(
        self, ilo: np.ndarray, jlo: np.ndarray, ihi: np.ndarray, jhi: np.ndarray
    ) -> np.ndarray:
        """Objects inside each inclusive cell rectangle (vectorized)."""
        p = self.prefix
        return (
            p[jhi + 1, ihi + 1] - p[jlo, ihi + 1] - p[jhi + 1, ilo] + p[jlo, ilo]
        )

    def pair_candidates(
        self, cand: np.ndarray, px: np.ndarray, py: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, d2)`` of candidate slots against per-pair query coords."""
        ids = self.ids[cand]
        pdx = self._x[ids] - px
        pdy = self._y[ids] - py
        return ids, pdx * pdx + pdy * pdy

    # ------------------------------------------------------------------
    # SnapshotIndex protocol (repro.engines.snapshot) — scalar accessors
    # used by the index-agnostic workload operators over the grid
    # make_snapshot builds.  The batched fast path above never calls
    # these.
    # ------------------------------------------------------------------
    @property
    def ncells(self) -> int:
        """Cells per side."""
        return self.nx

    @property
    def delta(self) -> float:
        """Cell side."""
        return self.dx

    def locate(self, x: float, y: float) -> Tuple[int, int]:
        """Cell ``(i, j)`` of a point (clamped to the grid)."""
        top = self.nx - 1
        return min(max(int(x * self.nx), 0), top), min(max(int(y * self.nx), 0), top)

    def count_in_cells(self, ilo: int, jlo: int, ihi: int, jhi: int) -> int:
        """Number of objects inside the inclusive cell rectangle."""
        p = self.prefix
        return int(
            p[jhi + 1, ihi + 1] - p[jlo, ihi + 1] - p[jhi + 1, ilo] + p[jlo, ilo]
        )

    def gather_cells(
        self, ilo: int, jlo: int, ihi: int, jhi: int
    ) -> Tuple[List[int], List[float], List[float]]:
        """``(ids, xs, ys)`` of every object inside the cell rectangle.

        One contiguous CSR slice per grid row; returns plain Python lists
        so answers are bit-identical to the ObjectIndex backend.
        """
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
            ids = self.ids[lo:hi]
            out_ids.extend(ids.tolist())
            out_xs.extend(self._x[ids].tolist())
            out_ys.extend(self._y[ids].tolist())
        return out_ids, out_xs, out_ys

    def position_of(self, object_id: int) -> Tuple[float, float]:
        """Snapshot position of one object (its row)."""
        return float(self._x[object_id]), float(self._y[object_id])


@dataclass
class BatchKNNResult:
    """Raw output of one :func:`batch_knn` pass.

    ``top_d2``/``top_ids`` are ``(nq, k)`` arrays in the *caller's* query
    order.  ``stats`` carries the algorithmic counters of the pass.
    """

    top_d2: np.ndarray
    top_ids: np.ndarray
    stats: Dict[str, int]


def kth_smallest(
    d2: np.ndarray, counts: np.ndarray, starts: np.ndarray, k: int
) -> np.ndarray:
    """The ``k``-th smallest value of every ragged run of ``d2``.

    Run ``q`` is ``d2[starts[q] : starts[q] + counts[q]]``; a run shorter
    than ``k`` reports ``inf``.  Runs are bucketed by the power of two of
    their length; each bucket becomes one ``(runs, width)`` matrix padded
    with ``inf``, and its width is below twice every member's length, so
    the padding never exceeds the pairs however skewed the lengths are.
    One ``np.partition`` per bucket then places each row's k-th value.
    """
    kth = np.empty(len(counts))
    _, octave = np.frexp(counts)  # counts[q] in [2**(octave-1), 2**octave)
    by_octave = np.argsort(octave, kind="stable")
    edges = np.flatnonzero(np.diff(octave[by_octave])) + 1
    for rows in np.split(by_octave, edges):
        lengths = counts[rows]
        col = np.arange(max(int(lengths.max()), k))
        idx = starts[rows, None] + col
        pad = col >= lengths[:, None]
        idx[pad] = 0
        block = d2[idx]
        block[pad] = np.inf
        kth[rows] = np.partition(block, k - 1, axis=1)[:, k - 1]
    return kth


def batch_knn(
    csr: CSRGrid,
    qx: np.ndarray,
    qy: np.ndarray,
    k: int,
    tracer: Tracer | NullTracer = NULL_TRACER,
    bound_d2: Optional[np.ndarray] = None,
) -> BatchKNNResult:
    """Exact batched k-NN of every query against one CSR snapshot.

    The answering kernel: radii -> gather -> select, all queries at once,
    ties broken by (distance, object ID).  Raises
    :class:`~repro.errors.NotEnoughObjectsError` when ``k`` exceeds the
    snapshot's population.  Queries may lie outside the unit square;
    their home cell clamps to the nearest edge cell, which preserves
    exactness (see module docstring).

    ``bound_d2`` optionally gives each query an upper bound on its k-th
    squared distance (``inf`` where there is none): the squared distance
    to the farthest of any ``k`` live objects of this snapshot.  A query's
    radius is then the smaller of the bound and the ring-growth radius;
    ``stats["bounded"]`` counts the queries whose radius came from the
    bound.

    Each stage runs under a span of ``tracer`` (``radii``, ``gather``,
    ``select``); an instrumented engine passes its own tracer, so the
    stages nest under the pipeline's ``answer`` span.
    """
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    qy = np.ascontiguousarray(qy, dtype=np.float64)
    nq = len(qx)
    k = int(k)
    if k > csr.n_objects:
        raise NotEnoughObjectsError(k, csr.n_objects)
    if nq == 0:
        return BatchKNNResult(
            np.empty((0, k)),
            np.empty((0, k), dtype=np.intp),
            {"ring_passes": 0, "groups": 0, "candidates": 0, "pairs": 0, "bounded": 0},
        )

    nx = csr.nx
    dx = csr.dx

    # ---- stage: radii -------------------------------------------------
    with tracer.span("radii"):
        qi = cell_index(qx, nx)
        qj = cell_index(qy, nx)

        # Vectorized ring growth: every query still short of k objects
        # grows its rectangle R(cq, l) by one ring per pass; the
        # prefix-sum makes each pass O(NQ) with no per-object work.
        level = np.zeros(nq, dtype=np.intp)
        active = csr.count_in_rects(qi, qj, qi, qj) < k
        l = 0
        while active.any():
            l += 1
            level[active] += 1
            ai, aj, al = qi[active], qj[active], level[active]
            acounts = csr.count_in_rects(
                np.maximum(ai - al, 0),
                np.maximum(aj - al, 0),
                np.minimum(ai + al, nx - 1),
                np.minimum(aj + al, nx - 1),
            )
            done = acounts >= k
            idx = np.nonzero(active)[0]
            active[idx[done]] = False

        # lcrit: distance from q to the farthest corner of the clamped R0.
        # R0 holds >= k objects, so the disc (q, lcrit) covers the true k-NN.
        r0_xlo = np.maximum(qi - level, 0) * dx
        r0_ylo = np.maximum(qj - level, 0) * dx
        r0_xhi = (np.minimum(qi + level, nx - 1) + 1) * dx
        r0_yhi = (np.minimum(qj + level, nx - 1) + 1) * dx
        far_dx = np.maximum(qx - r0_xlo, r0_xhi - qx)
        far_dy = np.maximum(qy - r0_ylo, r0_yhi - qy)
        radius = np.hypot(far_dx, far_dy)
        bounded = 0
        if bound_d2 is not None:
            bound_r = np.sqrt(np.asarray(bound_d2, dtype=np.float64))
            tighter = bound_r < radius
            bounded = int(np.count_nonzero(tighter))
            radius = np.where(tighter, bound_r, radius)
        radius = radius * (1.0 + RADIUS_PAD_REL) + RADIUS_PAD_ABS

        # Critical rectangle: cells intersecting the bounding box of the disc.
        ilo = cell_index(qx - radius, nx)
        jlo = cell_index(qy - radius, nx)
        ihi = cell_index(qx + radius, nx)
        jhi = cell_index(qy + radius, nx)

    # ---- stage: gather ------------------------------------------------
    with tracer.span("gather"):
        # Group queries by home cell; the group's union rectangle is shared
        # by every member, so co-located queries share one gather.
        qflat = qj * nx + qi
        qorder = np.argsort(qflat, kind="stable")
        sorted_flat = qflat[qorder]
        group_start = np.concatenate(
            ([0], np.nonzero(np.diff(sorted_flat))[0] + 1)
        )
        g_ilo = np.minimum.reduceat(ilo[qorder], group_start)
        g_jlo = np.minimum.reduceat(jlo[qorder], group_start)
        g_ihi = np.maximum.reduceat(ihi[qorder], group_start)
        g_jhi = np.maximum.reduceat(jhi[qorder], group_start)
        group_sizes = np.diff(np.concatenate((group_start, [nq])))
        ngroups = len(group_start)

        # Expand each group rectangle into row segments: row j of the rect
        # is one contiguous CSR slice (cells (ilo..ihi, j) have consecutive
        # flat IDs).
        rows_per_group = g_jhi - g_jlo + 1
        seg_group = np.repeat(np.arange(ngroups), rows_per_group)
        row_cum = np.concatenate(([0], np.cumsum(rows_per_group)))
        seg_j = g_jlo[seg_group] + (np.arange(row_cum[-1]) - row_cum[seg_group])
        seg_lo = csr.cell_start[seg_j * nx + g_ilo[seg_group]]
        seg_hi = csr.cell_start[seg_j * nx + g_ihi[seg_group] + 1]
        seg_len = seg_hi - seg_lo

        # Flatten the segments into per-group candidate blocks of CSR
        # indices (block = all objects inside the group's rectangle).
        ncand = int(seg_len.sum())
        seg_cum = np.concatenate(([0], np.cumsum(seg_len)))
        block_idx = (
            np.repeat(seg_lo - seg_cum[:-1], seg_len) + np.arange(ncand)
        )
        cand_per_group = np.bincount(
            seg_group, weights=seg_len, minlength=ngroups
        ).astype(np.intp)
        group_cand_start = np.concatenate(
            ([0], np.cumsum(cand_per_group))
        )

        # Expand to (query, candidate) pairs: every query of a group pairs
        # with the group's whole block.
        pairs_per_query = cand_per_group[np.repeat(np.arange(ngroups), group_sizes)]
        npairs = int(pairs_per_query.sum())
        pair_cum = np.concatenate(([0], np.cumsum(pairs_per_query)))
        pair_block_start = np.repeat(
            group_cand_start[:-1], group_sizes * cand_per_group
        )
        pair_local = np.arange(npairs) - np.repeat(pair_cum[:-1], pairs_per_query)
        pair_cand = block_idx[pair_block_start + pair_local]
        # Query of each pair, in sorted-query positions (0..nq-1).
        pair_qpos = np.repeat(np.arange(nq), pairs_per_query)

        sqx = qx[qorder]
        sqy = qy[qorder]
        pair_ids, pair_d2 = csr.pair_candidates(
            pair_cand, sqx[pair_qpos], sqy[pair_qpos]
        )

    # ---- stage: select ------------------------------------------------
    with tracer.span("select"):
        # One exact select for every candidate distribution: find each
        # query's k-th smallest distance, keep the pairs at or below it
        # (ties included), and rank only that remainder by (query,
        # distance, ID); the first k of each query's run are its k-NN.
        kth = kth_smallest(pair_d2, pairs_per_query, pair_cum[:-1], k)
        if not np.isfinite(kth).all():
            # Ring growth and the bound each guarantee >= k live objects
            # inside the critical rectangle; this is an internal error.
            raise IndexStateError(
                "batch_knn: a query's critical rectangle holds fewer than "
                f"k={k} objects"
            )
        keep = np.flatnonzero(pair_d2 <= np.repeat(kth, pairs_per_query))
        keep_q = pair_qpos[keep]
        ranked = keep[np.lexsort((pair_ids[keep], pair_d2[keep], keep_q))]
        kept_per_query = np.bincount(keep_q, minlength=nq)
        run_start = np.concatenate(([0], np.cumsum(kept_per_query)[:-1]))
        top = ranked[run_start[:, None] + np.arange(k)]

        # Scatter back to the caller's query order.
        top_d2 = np.empty((nq, k))
        top_ids = np.empty((nq, k), dtype=np.intp)
        top_d2[qorder] = pair_d2[top]
        top_ids[qorder] = pair_ids[top]

    return BatchKNNResult(
        top_d2,
        top_ids,
        {
            "ring_passes": l,
            "groups": ngroups,
            "candidates": ncand,
            "pairs": npairs,
            "bounded": bounded,
        },
    )


class FastGridEngine(BaseEngine):
    """Batched CSR-grid monitoring engine (production fast path).

    Same :class:`~repro.core.monitor.BaseEngine` contract as the
    paper-faithful engines, exact answers with ties broken by object ID.
    Its stages run as spans on the tracer the pipeline binds
    (``maintain.csr_snapshot`` and ``answer.{radii,gather,select}``).

    The engine keeps one :class:`CSRGrid` and rebuilds it in place every
    cycle (a fresh grid after :meth:`load` or when the population moves
    the cell count).  Its one piece of
    cross-cycle state is the object rows of its last answer: at the next
    answer the farthest *current* position of a query's previous k
    neighbours bounds its new k-th distance (the paper's §3.2 incremental
    radius), and :func:`batch_knn` takes the smaller of that bound and
    ring growth.  A query has a bound only while all k rows are still
    live: none after :meth:`load`, for queries admitted this cycle, when
    a previous neighbour left, after a compaction, or for a row outside
    the snapshot.  :meth:`set_queries` keeps the bound — any k live
    objects bound the k-th distance from any query position.

    Churn support: query deltas swap the array and remap the previous
    answer rows; object deltas record the live subset — in member mode
    the grid indexes the ``member_idx`` rows and reports rows as object
    IDs, so neighbor IDs stay row-stable across joins and leaves.
    """

    supports_member_idx = True

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        ncells: Optional[int] = None,
        delta: Optional[float] = None,
    ) -> None:
        super().__init__(k, queries)
        self.name = "fast-grid"
        self._ncells = ncells
        self._delta = delta
        self._member_idx: Optional[np.ndarray] = None
        self.csr: Optional[CSRGrid] = None
        # (nq, k) object rows of the last answer; a row of -1 marks a
        # query without a valid §3.2 bound.
        self._prev_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Maintenance: rebuild the CSR snapshot every cycle
    # ------------------------------------------------------------------
    def _resolve_ncells(self, n_objects: int) -> int:
        if self._ncells is None and self._delta is None:
            return resolve_grid_size(n_objects=max(1, n_objects))
        return resolve_grid_size(self._ncells, self._delta, None)

    def apply_query_delta(self, delta) -> None:
        # Kept queries keep their previous answer rows (and so their
        # bound); queries registered this cycle start without one.
        self.queries = _as_queries(delta.queries)
        prev = self._prev_rows
        if prev is None:
            return
        kept = np.asarray(delta.kept, dtype=np.intp)
        rows = np.full((len(kept), self.k), -1, dtype=prev.dtype)
        old = kept >= 0
        rows[old] = prev[kept[old]]
        self._prev_rows = rows

    def apply_object_delta(self, delta) -> None:
        # The snapshot is rebuilt from scratch each maintain() anyway;
        # membership churn only updates which rows that rebuild indexes,
        # and drops the bound of every query a leaving row answered.
        self._member_idx = delta.member_idx
        prev = self._prev_rows
        if prev is None:
            return
        if delta.compacted:
            self._prev_rows = None
        elif len(delta.left):
            prev[np.isin(prev, delta.left).any(axis=1)] = -1

    def load(self, positions: np.ndarray) -> None:
        self._prev_rows = None
        self.csr = None
        self.maintain(positions)

    def maintain(self, positions: np.ndarray) -> None:
        with self.tracer.span("csr_snapshot"):
            positions = np.asarray(positions, dtype=np.float64)
            member = self._member_idx
            ncells = self._resolve_ncells(
                len(positions) if member is None else len(member)
            )
            if self.csr is None or self.csr.nx != ncells:
                self.csr = CSRGrid(positions, ncells, member_idx=member)
            else:
                self.csr.update(positions, member)
            self._positions = positions

    # ------------------------------------------------------------------
    # Answering: one batch_knn pass over the whole unit square
    # ------------------------------------------------------------------
    def _bound_d2(self) -> Optional[np.ndarray]:
        """Per-query §3.2 bound on the k-th squared distance, or ``None``.

        The squared distance from each query's current position to the
        farthest current position of its previous k neighbours; ``inf``
        for queries without a valid bound.
        """
        prev = self._prev_rows
        positions = self._positions
        if prev is None or positions is None or len(prev) != self.n_queries:
            return None
        valid = ((prev >= 0) & (prev < len(positions))).all(axis=1)
        if not valid.any():
            return None
        rows = positions[np.where(valid[:, None], prev, 0)]
        ddx = rows[:, :, 0] - self.queries[:, 0, None]
        ddy = rows[:, :, 1] - self.queries[:, 1, None]
        bound = (ddx * ddx + ddy * ddy).max(axis=1)
        bound[~valid] = np.inf
        return bound

    def answer(self) -> List[AnswerList]:
        if self.csr is None:
            raise IndexStateError("load() must run before answer()")
        k = self.k
        nq = self.n_queries
        # batch_knn raises NotEnoughObjectsError when k exceeds the population.
        result = batch_knn(
            self.csr,
            self.queries[:, 0],
            self.queries[:, 1],
            k,
            self.tracer,
            bound_d2=self._bound_d2(),
        )
        if nq == 0:
            self._prev_rows = None
            return []
        self._prev_rows = result.top_ids

        answers: List[AnswerList] = []
        d_rows = result.top_d2.tolist()
        i_rows = result.top_ids.tolist()
        for query_id in range(nq):
            answer = AnswerList(k)
            answer._entries = list(zip(d_rows[query_id], i_rows[query_id]))
            answers.append(answer)

        metrics = self.metrics
        if metrics.enabled:
            stats = result.stats
            metrics.inc("fast.answer.queries", nq)
            metrics.inc("fast.answer.ring_passes", stats["ring_passes"])
            metrics.inc("fast.answer.groups", stats["groups"])
            metrics.inc("fast.answer.candidates", stats["candidates"])
            metrics.inc("fast.answer.pairs", stats["pairs"])
            metrics.inc("fast.answer.bounded_queries", stats["bounded"])
        return answers
