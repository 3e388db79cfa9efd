"""Location-based commerce (the paper's e-flyer motivation).

A handful of retail stores continuously want the k customers closest to
them, so bandwidth-limited e-flyers go only to the best targets.  With
few queries (stores) and many objects (customers) the paper's analysis
(§3.3, Fig. 15) says Query-Indexing is the method of choice — this example
uses it and also measures how the delivery set churns as customers move.

Run with::

    python examples/location_based_advertising.py
"""

from __future__ import annotations

import numpy as np

from repro import RandomWalkModel, build_system, make_dataset

N_CUSTOMERS = 30_000
N_STORES = 8
K_FLYERS = 20  # flyers a store may send per cycle
CYCLES = 12


def main() -> None:
    customers = make_dataset("skewed", N_CUSTOMERS, seed=5)  # malls are crowded
    rng = np.random.default_rng(6)
    stores = 0.15 + 0.7 * rng.random((N_STORES, 2))  # stores in the core area
    motion = RandomWalkModel(vmax=0.004, seed=8)

    # Few queries + many objects: Query-Indexing with incremental
    # maintenance of the critical regions.
    system = build_system(
        "query_indexing", k=K_FLYERS, queries=stores, maintenance="incremental"
    )
    system.load(customers)

    audiences = {store: frozenset() for store in range(N_STORES)}
    deliveries = 0
    for cycle in range(1, CYCLES + 1):
        customers = motion.step(customers)
        answers = system.tick(customers)
        fresh = 0
        for qa in answers:
            audience = frozenset(qa.object_ids())
            fresh += len(audience - audiences[qa.query_id])
            audiences[qa.query_id] = audience
        deliveries += fresh
        stats = system.last_stats
        print(
            f"cycle {cycle:2d}: {fresh:3d} new flyers sent, "
            f"cycle time {stats.total_time * 1e3:6.2f} ms"
        )

    print(f"\ntotal new-recipient deliveries: {deliveries}")
    for store in range(N_STORES):
        qa_ids = sorted(audiences[store])
        print(
            f"store {store} @ ({stores[store, 0]:.2f}, {stores[store, 1]:.2f}) "
            f"currently targets {len(qa_ids)} customers, e.g. "
            + ", ".join(f"#{i}" for i in qa_ids[:5])
        )
    mean_ms = system.mean_cycle_time() * 1e3
    print(
        f"\nmean cycle time {mean_ms:.2f} ms -> the e-flyer targets can be "
        f"refreshed about {1000 / mean_ms:.0f} times per second for "
        f"{N_CUSTOMERS} moving customers"
    )


if __name__ == "__main__":
    main()
