"""Shard tasks: rebuild one stripe's CSR snapshot, answer queries.

One *cycle task* asks a worker to (a) select the objects of one stripe
out of the shared-memory snapshot, (b) rebuild a region-aware
:class:`~repro.core.fast_index.CSRGrid` over the stripe, and (c) run
:func:`~repro.core.fast_index.batch_knn` for the queries routed to it.
The worker's cache keeps one grid per stripe, tagged with the cycle it
was built for: the first task of a new cycle rebuilds it in place
(``grid.update(positions, sel)``, reusing its buffers), and escalation
rounds of the same cycle reuse it as-is, so the snapshot is indexed at
most once per shard per cycle no matter how many query batches arrive.
A grid rebuilt every cycle holds no row-keyed state across cycles, so
object-row remaps (session compactions) need no invalidation.

The snapshot arrives as a view over a shared-memory buffer that the
parent rewrites in place between cycles; the grid reads coordinates
through that view, which holds the current cycle's positions whenever
a task runs.

Tasks carry everything they need (shard id, shard count, k, query
coordinates) so a re-dispatched task after a worker crash is exactly the
original payload sent to a fresh process — a fresh process just builds
its stripe grids anew before returning the same answers.

**Telemetry.**  The build and answer stages run under
:class:`~repro.obs.tracing.Tracer` spans supplied by a
:class:`~repro.obs.remote.WorkerTelemetry`; their measured durations are
what the reply reports as ``build_seconds``/``answer_seconds`` (the
engine's timing attribution), so the stage times and the shipped
``span.shard_build.*``/``span.shard_answer.*`` counters can never
disagree.  When the task carries ``obs=True`` the telemetry also records
how each stripe grid was brought up to date (``shard.task.updates`` in
place, ``shard.task.fresh_builds`` new), the answering kernel's work
counters (``fast.answer.*``) and per-task population tallies
(``shard.task.*``), and the reply piggybacks the per-task counter deltas
plus the task wall time — no extra syscalls or messages, and nothing at
all when instrumentation is off.

The same :func:`run_shard_task` powers the ``workers=0`` serial
fallback: the engine calls it in-process with its own cache dict and
telemetry, which guarantees the serial and multiprocess paths cannot
diverge — in answers *or* in counters.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.fast_index import CSRGrid, batch_knn
from ..obs.remote import ANSWER_SPAN, BUILD_SPAN, WorkerTelemetry
from .partition import StripePartition, shard_grid_shape

#: Worker-side stripe-grid cache type: ``shard -> (cycle, grid)``.  The
#: cycle tag tells an escalation round of the same cycle that the grid is
#: current; a new cycle rebuilds the cached grid in place.
CSRCache = Dict[int, Tuple[int, CSRGrid]]


def _stripe_members(
    positions: np.ndarray, partition: StripePartition, shard: int, churn: bool
) -> np.ndarray:
    """Row ids of the stripe's live objects.

    Under churn the snapshot is a row-stable *universe*: vacant rows
    carry the sentinel ``(-1, -1)`` and are filtered out before the
    ownership test (the sentinel x would otherwise clip into stripe 0).
    """
    x = positions[:, 0]
    owned = partition.shard_of(x) == shard
    if churn:
        owned &= x >= 0.0
    return np.flatnonzero(owned)


def run_shard_task(
    positions: np.ndarray,
    task: Dict[str, object],
    cache: Optional[CSRCache] = None,
    telemetry: Optional[WorkerTelemetry] = None,
) -> Dict[str, object]:
    """Execute one cycle task against the given snapshot.

    ``task`` fields: ``shard``, ``n_shards``, ``cycle``, ``k``, ``qx``,
    ``qy`` (routed query coordinates); optional ``obs`` (ship telemetry),
    ``bounds`` (custom stripe edges after a rebalance) and ``churn``
    (snapshot is a row universe with ``(-1, -1)`` sentinel rows to
    skip).  Returns the per-query top-k blocks (``inf``/``-1`` padded
    when the stripe holds fewer than ``k`` objects) plus build/answer
    stage timings and — when ``obs`` is set — the task's counter deltas
    and wall time for the parent-side labeled merge.
    """
    shard = int(task["shard"])
    n_shards = int(task["n_shards"])
    cycle = int(task["cycle"])
    k = int(task["k"])
    churn = bool(task.get("churn"))
    qx = task["qx"]

    if telemetry is None:
        telemetry = WorkerTelemetry()
    obs = bool(task.get("obs"))
    tracer = telemetry.begin(obs)
    t_task = perf_counter() if obs else 0.0

    with tracer.span(BUILD_SPAN) as build_span:
        entry = cache.get(shard) if cache is not None else None
        maintained = False
        if entry is not None and entry[0] == cycle:
            csr = entry[1]  # escalation round: snapshot already current
        else:
            maintained = True
            partition = StripePartition(n_shards, task.get("bounds"))
            region = partition.region(shard)
            sel = _stripe_members(positions, partition, shard, churn)
            nx, ny = shard_grid_shape(len(sel), n_shards)
            grid = None if entry is None else entry[1]
            if (
                grid is not None
                and grid.nx == nx
                and grid.ny == ny
                and grid.region == region
            ):
                csr = grid
                csr.update(positions, sel)
                telemetry.inc("shard.task.updates")
            else:
                # First cycle, respawned worker, a rebalanced stripe
                # boundary, or the stripe population shifted enough to
                # change the grid resolution.
                csr = CSRGrid(positions, nx, ny, region=region, member_idx=sel)
                telemetry.inc("shard.task.fresh_builds")
            if cache is not None:
                cache[shard] = (cycle, csr)

    with tracer.span(ANSWER_SPAN) as answer_span:
        result = batch_knn(csr, qx, task["qy"], k)

    out: Dict[str, object] = {
        "shard": shard,
        "cycle": cycle,
        "n_shard": csr.n_objects,
        "top_d2": result.top_d2,
        "top_ids": np.asarray(result.top_ids, dtype=np.int64),
        "build_seconds": build_span.duration,
        "answer_seconds": answer_span.duration,
        "stats": result.stats,
    }
    if obs:
        stats = result.stats
        telemetry.inc("shard.task.calls")
        telemetry.inc("shard.task.queries", len(qx))
        if maintained:
            # Once per (stripe, cycle): lets the parent check that the
            # maintained stripe populations sum to the full snapshot.
            telemetry.inc("shard.task.maintained")
            telemetry.inc("shard.task.objects", csr.n_objects)
        telemetry.inc("fast.answer.queries", len(qx))
        telemetry.inc("fast.answer.ring_passes", stats["ring_passes"])
        telemetry.inc("fast.answer.groups", stats["groups"])
        telemetry.inc("fast.answer.candidates", stats["candidates"])
        telemetry.inc("fast.answer.pairs", stats["pairs"])
        out["metrics"] = telemetry.deltas()
        out["task_seconds"] = perf_counter() - t_task
    return out
