"""Sharded parallel execution layer for the monitoring cycle.

Partition–index–merge over vertical stripes of the unit square: one
incrementally maintained delta-CSR snapshot per stripe
(:class:`~repro.core.delta_index.DeltaCSRGrid`, kept up to date from a
shared-memory copy of the cycle's positions by a persistent worker
pool), seeded query routing
with exact escalation, and a global merge that preserves the (distance,
object ID) tie-break.  ``workers=0`` runs the identical shard tasks
in-process.  See DESIGN.md §9.
"""

from .engine import ShardedGridEngine
from .partition import StripePartition, shard_grid_shape
from .pool import ShardWorkerPool
from .tasks import run_shard_task
from .worker import worker_main

__all__ = [
    "ShardedGridEngine",
    "ShardWorkerPool",
    "StripePartition",
    "run_shard_task",
    "shard_grid_shape",
    "worker_main",
]
