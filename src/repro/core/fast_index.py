"""Vectorized CSR grid snapshot + batched multi-query k-NN answering.

This is the repository's *production* fast path, distinct from the
paper-faithful engines in :mod:`~repro.core.object_index` et al. (which
deliberately stay pure-Python so the reproduced cost model holds; see
DESIGN.md).  It keeps the paper's algorithmic skeleton — grid snapshot,
ring growth to a critical radius, critical-rectangle scan — but lays the
grid out as flat numpy arrays and answers all queries of a cycle in one
batched pass, in the spirit of Lettich et al.'s manycore k-NN engine:

* **CSR snapshot** (:class:`CSRGrid`): one ``argsort`` over flat cell IDs
  plus one ``bincount``/``cumsum`` produce ``cell_start`` offsets and
  permuted ``xs``/``ys``/``ids`` arrays, so "all objects in cells
  ``(ilo..ihi, j)``" is a single contiguous slice.  A 2-D prefix-sum of
  the cell counts makes "objects inside rectangle R" an O(1) lookup.
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

A :class:`CSRGrid` covers the unit square with ``ncells`` cells per side
and may carry caller-supplied global object IDs.  :func:`batch_knn` is
*region-aware*: it reads the grid's ``region = (x0, y0, x1, y1)`` and
``nx x ny`` layout, so it also answers over the per-stripe
:class:`~repro.core.delta_index.DeltaCSRGrid` of the sharded engine
(:mod:`repro.shard`), which merges the per-stripe results.

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
candidate cells.  Queries may lie outside the grid's region: the home
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

#: Relative and absolute pad on every critical radius: an object at exactly
#: the radius must fall inside the critical rectangle even when ``q ± r``
#: rounds across a cell boundary.
RADIUS_PAD_REL = 1e-9
RADIUS_PAD_ABS = 1e-12


def cell_index(v: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Clamped cell index along one axis of ``n`` cells over ``[lo, hi)``.

    The one cell expression of the fast path: snapshot cells, query home
    cells and critical-rectangle bounds all come from it, so a point on a
    cell boundary lands in the same cell whichever of them asks.  The
    clamp runs on floats, before the cast, so coordinates far outside the
    region (or infinite) clamp to the edge cells instead of overflowing.
    """
    return np.clip((v - lo) * (n / (hi - lo)), 0, n - 1).astype(np.intp)


class CSRGrid:
    """A grid snapshot of the unit square in CSR layout.

    Built in one vectorized pass over a ``(n, 2)`` position array:

    ``order``
        stable argsort of the flat cell IDs ``j * nx + i``; combined with
        ``object_ids`` it yields the permuted global-ID array (``ids``).
    ``xs``, ``ys``
        positions permuted by ``order`` — objects of one cell, and of one
        row-run of cells, are contiguous.
    ``cell_start``
        ``(nx*ny + 1,)`` offsets; cell ``(i, j)`` owns the slice
        ``[cell_start[j*nx+i], cell_start[j*nx+i+1])``.
    ``prefix``
        ``(ny+1, nx+1)`` summed-area table of cell counts for O(1)
        rectangle population counts.

    ``ncells`` cells per side (``nx = ny = ncells``, cell side ``delta``;
    ``region``, ``dx`` and ``dy`` are the geometry :func:`batch_knn`
    reads).  ``object_ids`` maps local row indices to global IDs so
    downstream tie-breaking stays global.
    """

    __slots__ = (
        "nx", "ny", "ncells", "region", "dx", "dy", "delta",
        "n_objects", "xs", "ys", "ids", "cell_start", "prefix", "_inv",
    )

    def __init__(
        self,
        positions: np.ndarray,
        ncells: int,
        *,
        object_ids: Optional[np.ndarray] = None,
    ) -> None:
        n = int(ncells)
        if n < 1:
            raise ConfigurationError(f"grid must have >= 1 cell per side, got {n}")
        positions = np.asarray(positions, dtype=np.float64)
        self.nx = self.ny = self.ncells = n
        self.region = (0.0, 0.0, 1.0, 1.0)
        self.dx = self.dy = self.delta = 1.0 / n
        self.n_objects = len(positions)
        x = np.ascontiguousarray(positions[:, 0])
        y = np.ascontiguousarray(positions[:, 1])
        flat = cell_index(y, 0.0, 1.0, n) * n + cell_index(x, 0.0, 1.0, n)
        # Introsort beats the stable radix sort ~5x on these keys; the
        # within-cell object order is irrelevant (ties are broken by ID at
        # selection time), so stability is not needed.
        order = np.argsort(flat)
        self.ids = order if object_ids is None else np.asarray(object_ids)[order]
        self.xs = x[order]
        self.ys = y[order]
        counts = np.bincount(flat, minlength=n * n)
        cell_start = np.zeros(n * n + 1, dtype=np.intp)
        np.cumsum(counts, out=cell_start[1:])
        self.cell_start = cell_start
        prefix = np.zeros((n + 1, n + 1), dtype=np.int64)
        np.cumsum(np.cumsum(counts.reshape(n, n), axis=0), axis=1, out=prefix[1:, 1:])
        self.prefix = prefix
        self._inv: Optional[np.ndarray] = None  # lazy id -> row permutation

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
        """``(ids, d2)`` of candidate CSR slots against per-pair query coords.

        The one snapshot-layout-specific step of :func:`batch_knn`: a
        :class:`CSRGrid` reads its permuted coordinate copies, while the
        sharded engine's stripe grid (:mod:`repro.core.delta_index`)
        resolves coordinates lazily through its slot->object indirection
        and masks slack gaps.
        """
        pdx = self.xs[cand] - px
        pdy = self.ys[cand] - py
        return self.ids[cand], pdx * pdx + pdy * pdy

    # ------------------------------------------------------------------
    # SnapshotIndex protocol (repro.engines.snapshot) — scalar accessors
    # used by the index-agnostic workload operators.  The batched fast
    # path above never calls these.
    # ------------------------------------------------------------------
    def locate(self, x: float, y: float) -> Tuple[int, int]:
        """Cell ``(i, j)`` of a point (clamped to the grid)."""
        n = self.ncells
        return min(max(int(x * n), 0), n - 1), min(max(int(y * n), 0), n - 1)

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
            out_ids.extend(self.ids[lo:hi].tolist())
            out_xs.extend(self.xs[lo:hi].tolist())
            out_ys.extend(self.ys[lo:hi].tolist())
        return out_ids, out_xs, out_ys

    def position_of(self, object_id: int) -> Tuple[float, float]:
        """Snapshot position of one object (by global ID)."""
        if self._inv is None:
            inv = np.empty(self.n_objects, dtype=np.intp)
            inv[self.ids] = np.arange(self.n_objects, dtype=np.intp)
            self._inv = inv
        row = int(self._inv[object_id])
        return float(self.xs[row]), float(self.ys[row])


@dataclass
class BatchKNNResult:
    """Raw output of one :func:`batch_knn` pass over one region.

    ``top_d2``/``top_ids`` are ``(nq, k)`` arrays in the *caller's* query
    order; when the region holds fewer than ``k`` objects the tail
    columns are padded with ``inf`` / ``-1``.  ``stats`` carries the
    algorithmic counters of the pass.
    """

    top_d2: np.ndarray
    top_ids: np.ndarray
    stats: Dict[str, int]


def _empty_result(nq: int, k: int) -> BatchKNNResult:
    return BatchKNNResult(
        np.full((nq, k), np.inf),
        np.full((nq, k), -1, dtype=np.intp),
        {"ring_passes": 0, "groups": 0, "candidates": 0, "pairs": 0, "bounded": 0},
    )


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
    """Exact batched k-NN of every query against one CSR region snapshot.

    The reusable per-region answering kernel: radii -> gather -> select,
    all queries at once, ties broken by (distance, global object ID).
    ``k`` may exceed the region population — the kernel then returns the
    ``min(k, n_objects)`` nearest and pads the remaining columns with
    ``inf`` distances and ``-1`` IDs (the sharded merge relies on this).
    Queries may lie outside the region; their home cell clamps to the
    nearest edge cell, which preserves exactness (see module docstring).

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
    k_eff = min(k, csr.n_objects)
    if nq == 0 or k_eff == 0:
        return _empty_result(nq, k)

    nx, ny = csr.nx, csr.ny
    x0, y0, x1, y1 = csr.region
    dx, dy = csr.dx, csr.dy

    # ---- stage: radii -------------------------------------------------
    with tracer.span("radii"):
        qi = cell_index(qx, x0, x1, nx)
        qj = cell_index(qy, y0, y1, ny)

        # Vectorized ring growth: every query still short of k objects
        # grows its rectangle R(cq, l) by one ring per pass; the
        # prefix-sum makes each pass O(NQ) with no per-object work.
        level = np.zeros(nq, dtype=np.intp)
        active = csr.count_in_rects(qi, qj, qi, qj) < k_eff
        l = 0
        while active.any():
            l += 1
            if l > max(nx, ny):  # pragma: no cover - k_eff <= n_objects makes this unreachable
                raise NotEnoughObjectsError(k, csr.n_objects)
            level[active] += 1
            ai, aj, al = qi[active], qj[active], level[active]
            acounts = csr.count_in_rects(
                np.maximum(ai - al, 0),
                np.maximum(aj - al, 0),
                np.minimum(ai + al, nx - 1),
                np.minimum(aj + al, ny - 1),
            )
            done = acounts >= k_eff
            idx = np.nonzero(active)[0]
            active[idx[done]] = False

        # lcrit: distance from q to the farthest corner of the clamped R0.
        # R0 holds >= k objects, so the disc (q, lcrit) covers the true k-NN.
        r0_xlo = x0 + np.maximum(qi - level, 0) * dx
        r0_ylo = y0 + np.maximum(qj - level, 0) * dy
        r0_xhi = x0 + (np.minimum(qi + level, nx - 1) + 1) * dx
        r0_yhi = y0 + (np.minimum(qj + level, ny - 1) + 1) * dy
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
        ilo = cell_index(qx - radius, x0, x1, nx)
        jlo = cell_index(qy - radius, y0, y1, ny)
        ihi = cell_index(qx + radius, x0, x1, nx)
        jhi = cell_index(qy + radius, y0, y1, ny)

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
        kth = kth_smallest(pair_d2, pairs_per_query, pair_cum[:-1], k_eff)
        if not np.isfinite(kth).all():
            # Ring growth and the bound each guarantee >= k live objects
            # inside the critical rectangle; this is an internal error.
            raise IndexStateError(
                "batch_knn: a query's critical rectangle holds fewer than "
                f"k={k_eff} objects"
            )
        keep = np.flatnonzero(pair_d2 <= np.repeat(kth, pairs_per_query))
        keep_q = pair_qpos[keep]
        ranked = keep[np.lexsort((pair_ids[keep], pair_d2[keep], keep_q))]
        kept_per_query = np.bincount(keep_q, minlength=nq)
        run_start = np.concatenate(([0], np.cumsum(kept_per_query)[:-1]))
        top = ranked[run_start[:, None] + np.arange(k_eff)]
        sel_d2 = pair_d2[top]
        sel_ids = pair_ids[top]

        # Scatter back to the caller's query order, padding the k_eff..k
        # tail (region population below k) with inf / -1 sentinels.
        top_d2 = np.full((nq, k), np.inf)
        top_ids = np.full((nq, k), -1, dtype=sel_ids.dtype)
        top_d2[qorder, :k_eff] = sel_d2
        top_ids[qorder, :k_eff] = sel_ids

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

    The engine rebuilds its CSR snapshot every cycle.  Its one piece of
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
    the snapshot is built over ``positions[member_idx]`` with the member
    rows as global object IDs, so reported neighbor IDs stay row-stable
    across joins and leaves.
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
        self.maintain(positions)

    def maintain(self, positions: np.ndarray) -> None:
        with self.tracer.span("csr_snapshot"):
            positions = np.asarray(positions, dtype=np.float64)
            member = self._member_idx
            if member is None:
                self.csr = CSRGrid(
                    positions, self._resolve_ncells(len(positions))
                )
            else:
                self.csr = CSRGrid(
                    positions[member],
                    self._resolve_ncells(len(member)),
                    object_ids=member,
                )
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
        csr = self.csr
        k = self.k
        if k > csr.n_objects:
            raise NotEnoughObjectsError(k, csr.n_objects)
        nq = self.n_queries
        if nq == 0:
            self._prev_rows = None
            return []

        result = batch_knn(
            csr,
            self.queries[:, 0],
            self.queries[:, 1],
            k,
            self.tracer,
            bound_d2=self._bound_d2(),
        )
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
