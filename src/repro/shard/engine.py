"""Sharded parallel monitoring engine.

:class:`ShardedGridEngine` partitions the unit square into ``S`` vertical
stripes (:mod:`repro.shard.partition`), keeps one CSR snapshot per stripe
(built by the workers from the shared-memory position buffer), and
answers each cycle in three steps:

**Route.**  Each query is sent to the stripes its critical rectangle
overlaps.  The rectangle is seeded from the previous cycle's exact
k-th-NN distance inflated by ``seed_slack`` (the paper's incremental
insight: between cycles the answer moves little, so last cycle's radius
plus slack almost always covers this cycle's).  On the first cycle, after
a population change, or whenever the seed is stale, the engine falls back
to the overhaul route: each query starts from its home stripe and the
escalation loop widens outward until the answer is provably exact.

**Answer.**  One task per (stripe, routed-query-batch) goes to the worker
pool (``workers=0`` runs the identical task function in-process); each
returns its stripe-local top ``min(k, n_s)`` with global object IDs.

**Merge + escalate.**  Per-shard blocks merge into a global top-k by one
``lexsort`` over (query, distance, id) — the same (distance, object ID)
tie-break every other engine uses.  The seed is a *heuristic*, so the
merge checks it: if a query got fewer than ``k`` candidates, or the disc
of its merged k-th distance pokes past the consulted stripes, the query
escalates to the missing stripes and re-merges.  Escalation strictly
widens the consulted interval, so the loop terminates — and once the
interval is everything, Σ min(k, n_s) ≥ k candidates guarantees an exact
answer.  Boundary ties are safe: routing intervals are closed (see
:meth:`~repro.shard.partition.StripePartition.range_overlapping`) and the
escalation radius carries a 1-ulp inflation, so an object at *exactly*
the k-th distance in a neighboring stripe is always consulted and the ID
tie-break stays global.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.answers import AnswerList
from ..engines.base import BaseEngine
from ..errors import ConfigurationError, IndexStateError, NotEnoughObjectsError
from ..state import as_world_snapshot
from ..obs.registry import MetricsRegistry
from ..obs.remote import WorkerTelemetry, merge_worker_metrics
from .partition import StripePartition
from .pool import ShardWorkerPool
from .tasks import CSRCache, run_shard_task

#: Relative inflation applied to escalation radii so float rounding in
#: ``sqrt`` can never exclude a stripe holding an exact-distance tie.
_EDGE_EPS = 1e-12


class ShardedGridEngine(BaseEngine):
    """Stripe-sharded CSR engine with a persistent worker pool.

    Churn support (member mode): the position array is treated as a
    row-stable universe whose live subset arrives via
    ``ObjectDelta.member_idx`` — vacant rows carry the ``(-1, -1)``
    sentinel and workers filter them before the stripe ownership test, so
    joins and leaves reach each stripe grid as the member rows of its next
    rebuild.
    Query deltas remap the per-query routing seeds (``_prev_kth``)
    through ``QueryDelta.kept``: surviving queries keep their seeded
    interval, registered ones route to their home stripe and escalate —
    a one-shot overhaul confined to the new rows.  When
    ``rebalance_threshold`` is set and the consulted stripes' population
    imbalance exceeds it, the stripe boundaries are re-cut from live-x
    quantiles; answers are partition-independent (the escalation loop
    proves exactness under any cut), so seeds survive a rebalance.
    """

    supports_member_idx = True

    def __init__(
        self,
        k: int,
        queries: np.ndarray,
        *,
        workers: int = 2,
        shards: Optional[int] = None,
        seed_slack: float = 0.5,
        task_timeout: float = 60.0,
        heartbeat_every: int = 0,
        oversubscribe: bool = False,
        rebalance_threshold: float = 0.0,
    ) -> None:
        super().__init__(k, queries)
        workers = int(workers)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        # More worker processes than cores buys nothing for CPU-bound
        # shard tasks and multiplies snapshot-attach and scheduling
        # overhead, so the effective pool is capped at the machine size
        # unless the caller explicitly opts into oversubscription
        # (useful for fault-injection tests and CI boxes).
        self.requested_workers = workers
        self.oversubscribe = bool(oversubscribe)
        cpu_cap = os.cpu_count() or 1
        self.worker_cap_applied = not self.oversubscribe and workers > cpu_cap
        if self.worker_cap_applied:
            workers = cpu_cap
        self._cap_reported = False
        if shards is None:
            # One stripe per worker; with workers=0 the serial fallback
            # still shards (smaller per-stripe sorts are a win on their
            # own), defaulting to a single stripe == plain fast grid.
            shards = max(1, workers)
        shards = int(shards)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if seed_slack < 0.0:
            raise ConfigurationError(f"seed_slack must be >= 0, got {seed_slack}")
        if rebalance_threshold < 0.0:
            raise ConfigurationError(
                f"rebalance_threshold must be >= 0, got {rebalance_threshold}"
            )
        self.name = f"sharded/{workers}w{shards}s"
        self.workers = workers
        self.n_shards = shards
        self.seed_slack = float(seed_slack)
        self.task_timeout = float(task_timeout)
        self.heartbeat_every = int(heartbeat_every)
        self.rebalance_threshold = float(rebalance_threshold)
        self.partition = StripePartition(shards)
        self._pool: Optional[ShardWorkerPool] = None
        self._serial_cache: CSRCache = {}
        self._serial_telemetry = WorkerTelemetry()
        self._deferred_index_seconds = 0.0
        self._cycle = -1
        self._n = 0
        self._n_live = 0
        self._shm_name: Optional[str] = None
        self._prev_kth: Optional[np.ndarray] = None
        self._prev_cycle = -2
        self._member_idx: Optional[np.ndarray] = None
        self._last_imbalance = 1.0
        self.rebalances = 0

    def set_queries(self, queries: np.ndarray) -> None:
        """Move the query points, dropping the per-query routing seeds.

        ``_prev_kth`` holds each query's k-th-NN distance from the last
        cycle and seeds the stripe routing positionally; after the
        queries move those radii describe the *old* positions.  Answers
        would stay exact regardless (the escalation loop re-routes any
        query whose seeded radius proves too small), but stale seeds
        cause avoidable escalation rounds — so invalidate them and let
        the next cycle take the overhaul route.  The per-stripe query
        gauges are refreshed at swap time from the new home stripes, so
        dashboards never show the pre-swap routing for a whole cycle.
        """
        super().set_queries(queries)
        self._prev_kth = None
        self._prev_cycle = -2
        self._refresh_query_gauges()

    def apply_query_delta(self, delta) -> None:
        """Admit query churn, carrying surviving routing seeds over.

        Surviving queries keep their previous k-th-NN distance (their
        positions are unchanged by contract, so the seeded interval is
        still tight); registered queries get an ``inf`` seed, which the
        router sends to the home stripe for a one-shot overhaul.  No
        rebuild: stripe snapshots are query-independent.
        """
        old_kth = self._prev_kth
        kept = np.asarray(delta.kept, dtype=np.intp)
        self.queries = np.asarray(delta.queries, dtype=np.float64)
        if old_kth is not None:
            has_prev = kept >= 0
            safe = np.where(has_prev, kept, 0)
            new_kth = old_kth[safe].copy()
            new_kth[~has_prev] = np.inf
            self._prev_kth = new_kth
        self._refresh_query_gauges()

    def apply_object_delta(self, delta) -> None:
        """Admit object churn (joins/leaves as a new live subset).

        Membership reaches the workers through their own recomputed
        stripe masks, so nothing structural happens here.  A compaction
        remaps rows, but the routing seeds stay valid (distances are
        row-independent) and every stripe grid is rebuilt next cycle.
        """
        self._member_idx = delta.member_idx

    def _refresh_query_gauges(self) -> None:
        """Per-stripe query-count gauges from the current home stripes."""
        if not self.metrics.enabled:
            return
        if self.n_queries:
            home = self.partition.shard_of(self.queries[:, 0])
            counts = np.bincount(home, minlength=self.n_shards)
        else:
            counts = np.zeros(self.n_shards, dtype=np.int64)
        for shard in range(self.n_shards):
            self.metrics.set_gauge(
                "shard.stripe.queries", int(counts[shard]), labels={"shard": shard}
            )

    # ------------------------------------------------------------------
    # Lifecycle / plumbing
    # ------------------------------------------------------------------
    def bind_observability(self, registry: MetricsRegistry, tracer) -> None:
        super().bind_observability(registry, tracer)
        if self._pool is not None:
            self._pool.metrics = registry

    def _ensure_pool(self) -> ShardWorkerPool:
        if self._pool is None:
            self._pool = ShardWorkerPool(
                self.workers,
                task_timeout=self.task_timeout,
                metrics=self.metrics,
            )
            self._pool.start()
        return self._pool

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (empty in serial mode); for fault injection."""
        return [] if self._pool is None else self._pool.worker_pids()

    @property
    def respawns(self) -> int:
        """Workers respawned after crashes over this engine's lifetime."""
        return 0 if self._pool is None else self._pool.respawns

    def heartbeat(self, timeout: float = 5.0) -> Dict[int, bool]:
        """Ping every worker; dead ones are respawned and reported False."""
        if self.workers == 0:
            return {}
        return self._ensure_pool().ping(timeout)

    def close(self) -> None:
        """Shut the worker pool down and release shared memory (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Cycle contract
    # ------------------------------------------------------------------
    def load(self, positions: np.ndarray) -> None:
        # The cycle counter stays monotonic across reloads on purpose:
        # worker-side stripe caches are tagged by cycle, and rewinding it
        # could collide a fresh snapshot with a cached one from a
        # previous run.  Dropping the seeds is what makes this a reload.
        self._prev_kth = None
        self._prev_cycle = -2
        self.maintain(positions)

    def maintain(self, positions: np.ndarray) -> None:
        world = as_world_snapshot(positions)
        positions = np.asarray(world, dtype=np.float64)
        self._cycle += 1
        self._positions = positions
        self._n = len(positions)
        member = self._member_idx
        self._n_live = self._n if member is None else len(member)
        if (
            self.rebalance_threshold > 0.0
            and self.n_shards > 1
            and self._last_imbalance > self.rebalance_threshold
        ):
            self._rebalance(positions, member)
        if self.worker_cap_applied and not self._cap_reported:
            self.metrics.inc("shard.worker_cap_applied")
            self._cap_reported = True
        if self.workers > 0:
            pool = self._ensure_pool()
            if (
                self.heartbeat_every > 0
                and self._cycle % self.heartbeat_every == 0
            ):
                pool.ping(timeout=self.task_timeout)
            # Epoch-versioned snapshots let the pool skip re-serializing
            # an unchanged (or carried-forward identical) world: equal
            # (token, epoch) keys are bytes-identical by store contract.
            key = (world.token, world.epoch) if world.versioned else None
            with self.tracer.span("shm_write"):
                self._shm_name, _ = pool.write_snapshot(positions, key=key)
        # Serial mode: the stripe cache survives the cycle — each stripe
        # grid is rebuilt in place (reusing its buffers) by the new
        # cycle's first task in run_shard_task.

    def answer(self) -> List[AnswerList]:
        if self._positions is None:
            raise IndexStateError("load() must run before answer()")
        k = self.k
        n = self._n_live
        if k > n:
            raise NotEnoughObjectsError(k, n)
        nq = self.n_queries
        if nq == 0:
            return []
        qx = np.ascontiguousarray(self.queries[:, 0])
        qy = np.ascontiguousarray(self.queries[:, 1])
        S = self.n_shards
        metrics = self.metrics

        # --- Route: seeded interval per query, overhaul fallback -------
        # The overhaul route is each query's *home* stripe only, not all
        # stripes: a query deep inside a foreign stripe clamps its home
        # cell to the stripe edge, which inflates the critical rectangle
        # by the distance gap and can pull in the entire stripe as
        # candidates.  Starting at home and letting the escalation loop
        # widen keeps every consulted stripe's candidate set bounded by
        # the query's true k-th-distance disc.
        seeded = (
            S > 1
            and self._prev_kth is not None
            and len(self._prev_kth) == nq
            and self._prev_cycle == self._cycle - 1
        )
        if seeded:
            # Per-query: surviving queries route by their seeded radius;
            # freshly registered ones (seed == inf after a query delta)
            # start from the home stripe like an overhaul and escalate.
            finite = np.isfinite(self._prev_kth)
            r = np.where(finite, self._prev_kth, 0.0)
            r = r * (1.0 + self.seed_slack) + _EDGE_EPS
            cons_lo, cons_hi = self.partition.range_overlapping(qx - r, qx + r)
            if not finite.all():
                home = self.partition.shard_of(qx)
                cons_lo = np.where(finite, cons_lo, home)
                cons_hi = np.where(finite, cons_hi, home)
            metrics.inc("shard.seeded_cycles")
        else:
            cons_lo = cons_hi = self.partition.shard_of(qx)
            metrics.inc("shard.overhaul_cycles")

        assignments = self._interval_assignments(cons_lo, cons_hi)

        # --- Answer + merge + escalate ---------------------------------
        chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        dispatch_seconds = 0.0
        merge_seconds = 0.0
        top_d2 = top_ids = None
        rounds = 0
        obs = bool(metrics.enabled)
        stripe_objects: Dict[int, int] = {}
        stripe_queries: Dict[int, int] = {}
        while True:
            rounds += 1
            if rounds > S + 1:
                raise IndexStateError(
                    f"shard escalation failed to converge after {rounds - 1} rounds"
                )
            t0 = perf_counter()
            with self.tracer.span("shard_dispatch"):
                results = self._run_tasks(assignments, qx, qy)
            dispatch_seconds += perf_counter() - t0
            # Stripe populations feed the rebalancer even when metrics
            # are off; query tallies are observability-only.
            for out in results:
                shard = int(out["shard"])
                stripe_objects[shard] = int(out["n_shard"])
                if obs:
                    stripe_queries[shard] = stripe_queries.get(shard, 0) + len(
                        out["qidx"]
                    )
            for out in results:
                # Stripe index maintenance runs lazily inside the first
                # task of the cycle, i.e. during answer(); record it so
                # the pipeline can attribute it to the index phase.
                self._deferred_index_seconds += float(out["build_seconds"])
                qidx = out["qidx"]
                d2 = out["top_d2"]
                ids = out["top_ids"]
                valid = ids >= 0
                rows = np.broadcast_to(qidx[:, None], ids.shape)
                chunks.append((rows[valid], d2[valid], ids[valid]))

            t0 = perf_counter()
            with self.tracer.span("shard_merge"):
                top_d2, top_ids, counts = _merge_chunks(chunks, nq, k)
                assignments, cons_lo, cons_hi, escalated = self._escalations(
                    qx, top_d2, counts, cons_lo, cons_hi
                )
            merge_seconds += perf_counter() - t0
            if not assignments:
                break
            metrics.inc("shard.escalated_queries", escalated)

        # --- Package + record ------------------------------------------
        answers: List[AnswerList] = []
        d_rows = top_d2.tolist()
        i_rows = top_ids.tolist()
        for query_id in range(nq):
            answer = AnswerList(k)
            answer._entries = list(zip(d_rows[query_id], i_rows[query_id]))
            answers.append(answer)

        self._prev_kth = np.sqrt(top_d2[:, k - 1])
        self._prev_cycle = self._cycle

        metrics.inc("shard.dispatch_seconds", dispatch_seconds)
        metrics.inc("shard.merge_seconds", merge_seconds)
        metrics.inc("shard.build_seconds", self._deferred_index_seconds)
        metrics.inc("shard.rounds", rounds)
        # Imbalance over the consulted stripes (max/mean object count;
        # 1.0 = perfectly balanced) drives the optional rebalancer on the
        # next maintain(), so it is tracked even without a registry.
        if stripe_objects:
            sizes = list(stripe_objects.values())
            mean = sum(sizes) / len(sizes)
            self._last_imbalance = max(sizes) / mean if mean > 0 else 1.0
        if obs:
            metrics.set_gauge("shard.last_rounds", rounds)
            # Health gauges: per-stripe populations this cycle.  Only
            # stripes consulted this cycle are refreshed — untouched
            # stripes keep their last known population.
            for shard, count in stripe_objects.items():
                metrics.set_gauge(
                    "shard.stripe.objects", count, labels={"shard": shard}
                )
            for shard, count in stripe_queries.items():
                metrics.set_gauge(
                    "shard.stripe.queries", count, labels={"shard": shard}
                )
            if stripe_objects:
                metrics.set_gauge("shard.imbalance_ratio", self._last_imbalance)
        return answers

    def pop_deferred_index_seconds(self) -> float:
        """Index-build seconds spent inside :meth:`answer`, then reset.

        Stripe snapshots are (re)indexed lazily by the first task of the
        cycle that reaches each shard, which executes during the answer
        phase.  :class:`~repro.engines.base.CyclePipeline` pulls this
        after every cycle and moves it from answer time to index time,
        so sharded cycle records attribute maintenance like every other
        engine.  In pool mode the builds overlap wall-clock, so the sum
        is clamped to the measured answer time by the caller.
        """
        seconds = self._deferred_index_seconds
        self._deferred_index_seconds = 0.0
        return seconds

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebalance(
        self, positions: np.ndarray, member: Optional[np.ndarray]
    ) -> None:
        """Re-cut stripe boundaries from live-x quantiles.

        Runs at the top of :meth:`maintain` when the last cycle's
        consulted-stripe imbalance exceeded ``rebalance_threshold``.
        Every stripe whose region changes fails the workers' cache
        region check and is rebuilt fresh; the routing seeds survive
        (a query's k-th-NN distance does not depend on the cut) and the
        escalation loop keeps answers exact under any partition.
        """
        x = positions[:, 0] if member is None else positions[member, 0]
        if len(x) == 0:
            return
        edges = np.quantile(x, np.linspace(0.0, 1.0, self.n_shards + 1))
        edges[0] = 0.0
        edges[-1] = 1.0
        if np.any(np.diff(edges) <= 0.0):
            # Degenerate population (duplicate quantiles): keep the
            # current cut rather than create empty zero-width stripes.
            self._last_imbalance = 1.0
            return
        self.partition = StripePartition(self.n_shards, edges)
        self.rebalances += 1
        self._last_imbalance = 1.0
        self.metrics.inc("shard.rebalances")

    def _interval_assignments(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """``{shard: query indices}`` for per-query closed intervals."""
        assignments: Dict[int, np.ndarray] = {}
        for shard in range(self.n_shards):
            qidx = np.flatnonzero((lo <= shard) & (shard <= hi))
            if len(qidx):
                assignments[shard] = qidx
        return assignments

    def _run_tasks(
        self, assignments: Dict[int, np.ndarray], qx: np.ndarray, qy: np.ndarray
    ) -> List[dict]:
        """Execute one round of shard tasks; annotate results with qidx."""
        metrics = self.metrics
        inflight: Dict[int, np.ndarray] = {}
        results: List[dict] = []
        serial = self.workers == 0
        pool = None if serial else self._ensure_pool()
        obs = bool(metrics.enabled)
        bounds = self.partition.bounds
        if bounds is not None:
            bounds = tuple(bounds.tolist())
        for shard, qidx in assignments.items():
            payload = {
                "cmd": "cycle",
                "cycle": self._cycle,
                "shard": shard,
                "n_shards": self.n_shards,
                "k": self.k,
                "n": self._n,
                "shm": self._shm_name,
                "qx": qx[qidx],
                "qy": qy[qidx],
                "obs": obs,
                "churn": self._member_idx is not None,
                "bounds": bounds,
            }
            metrics.inc("shard.queries_routed", len(qidx))
            metrics.inc("shard.tasks")
            if serial:
                payload["task"] = 0
                out = run_shard_task(
                    self._positions,
                    payload,
                    self._serial_cache,
                    telemetry=self._serial_telemetry,
                )
                out["qidx"] = qidx
                results.append(out)
            else:
                task_id = pool.submit(shard % self.workers, payload)
                inflight[task_id] = qidx
        if not serial:
            for out in pool.collect():
                out["qidx"] = inflight.pop(out["task"])
                results.append(out)
        if obs:
            # The pool de-duplicates results by task id, so each task's
            # shipped deltas merge exactly once even across a crash and
            # re-dispatch — counters cannot double-count.
            for out in results:
                shipped = out.get("metrics")
                if shipped:
                    merge_worker_metrics(
                        metrics,
                        out.get("worker", "serial"),
                        shipped,
                        task_wall=out.get("task_seconds"),
                    )
        return results

    def _escalations(
        self,
        qx: np.ndarray,
        top_d2: np.ndarray,
        counts: np.ndarray,
        cons_lo: np.ndarray,
        cons_hi: np.ndarray,
    ) -> Tuple[Dict[int, np.ndarray], np.ndarray, np.ndarray, int]:
        """Shards still needed per query after a merge, if any.

        A query escalates when the consulted interval provably may miss a
        true neighbor: fewer than ``k`` candidates so far, or the disc of
        the current k-th distance extends past the consulted stripes.
        Returns the new assignments (only *unconsulted* shards), the
        widened consulted intervals, and how many queries escalated.
        """
        S = self.n_shards
        k = self.k
        full = (cons_lo == 0) & (cons_hi == S - 1)
        short = (counts < k) & ~full
        kth_d2 = top_d2[:, k - 1]
        have_k = counts >= k
        radius = np.sqrt(kth_d2, where=have_k, out=np.zeros_like(kth_d2))
        radius *= 1.0 + _EDGE_EPS
        t_lo, t_hi = self.partition.range_overlapping(qx - radius, qx + radius)
        poking = have_k & ((t_lo < cons_lo) | (t_hi > cons_hi)) & ~full
        # Short queries (no k-th distance yet) widen one stripe per side
        # per round — not straight to every stripe, which would hit the
        # clamped-home-cell blowup the router avoids; poking queries
        # widen to their disc's interval (candidates bounded by the disc).
        t_lo = np.where(short, np.maximum(cons_lo - 1, 0), t_lo)
        t_hi = np.where(short, np.minimum(cons_hi + 1, S - 1), t_hi)
        need = short | poking
        if not need.any():
            return {}, cons_lo, cons_hi, 0
        new_lo = np.where(need, np.minimum(cons_lo, t_lo), cons_lo)
        new_hi = np.where(need, np.maximum(cons_hi, t_hi), cons_hi)
        assignments: Dict[int, np.ndarray] = {}
        for shard in range(S):
            # Only shards outside the already-consulted interval: each
            # (query, shard) pair is dispatched at most once per cycle.
            fresh = need & (
                ((new_lo <= shard) & (shard < cons_lo))
                | ((cons_hi < shard) & (shard <= new_hi))
            )
            qidx = np.flatnonzero(fresh)
            if len(qidx):
                assignments[shard] = qidx
        return assignments, new_lo, new_hi, int(need.sum())


def _merge_chunks(
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    nq: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global per-query top-k from per-shard candidate blocks.

    One ``lexsort`` over (query, distance, object ID) — identical
    tie-break to :func:`~repro.core.fast_index.batch_knn` — then a ragged
    head-``k`` per query group.  Queries with fewer than ``k`` candidates
    keep ``inf``/``-1`` padding (the escalation check needs the count).
    """
    top_d2 = np.full((nq, k), np.inf)
    top_ids = np.full((nq, k), -1, dtype=np.int64)
    if not chunks:
        return top_d2, top_ids, np.zeros(nq, dtype=np.int64)
    cq = np.concatenate([c[0] for c in chunks])
    cd2 = np.concatenate([c[1] for c in chunks])
    cid = np.concatenate([c[2] for c in chunks])
    order = np.lexsort((cid, cd2, cq))
    cq = cq[order]
    cd2 = cd2[order]
    cid = cid[order]
    counts = np.bincount(cq, minlength=nq)
    starts = np.zeros(nq, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    take = np.minimum(counts, k)
    total = int(take.sum())
    if total:
        within = np.arange(total) - np.repeat(np.cumsum(take) - take, take)
        src = np.repeat(starts, take) + within
        rows = np.repeat(np.arange(nq), take)
        top_d2[rows, within] = cd2[src]
        top_ids[rows, within] = cid[src]
    return top_d2, top_ids, counts
