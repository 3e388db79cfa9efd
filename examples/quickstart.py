"""Quickstart: monitor the 5 nearest moving objects for a handful of queries.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import RandomWalkModel, build_system, make_dataset, make_queries


def main() -> None:
    # 10,000 objects moving freely in the unit square; 5 static queries.
    objects = make_dataset("uniform", 10_000, seed=7)
    queries = make_queries(5, seed=11)
    motion = RandomWalkModel(vmax=0.005, seed=13)

    # The default method: one-level grid Object-Indexing at the optimal
    # cell size (delta* = 1/sqrt(NP)), rebuilt from scratch each cycle.
    system = build_system("object_indexing", k=5, queries=queries)

    answers = system.load(objects)
    print(f"initial answers at t={answers[0].timestamp}:")
    for qa in answers:
        nearest_id, nearest_dist = qa.neighbors[0]
        print(
            f"  query {qa.query_id}: nearest object #{nearest_id} "
            f"at distance {nearest_dist:.4f}, k-th at {qa.kth_dist():.4f}"
        )

    # Monitor for ten cycles; each tick takes a snapshot of the new
    # positions and recomputes the exact k-NNs.
    for _ in range(10):
        objects = motion.step(objects)
        answers = system.tick(objects)

    print(f"\nafter {system.cycle} cycles (t={system.timestamp}):")
    for qa in answers:
        ids = ", ".join(f"#{object_id}" for object_id in qa.object_ids())
        print(f"  query {qa.query_id}: k-NN = [{ids}]")

    stats = system.last_stats
    print(
        f"\nlast cycle: index maintenance {stats.index_time * 1e3:.2f} ms, "
        f"query answering {stats.answer_time * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
