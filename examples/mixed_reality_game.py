"""Location-based mixed-reality game (the paper's BotFighters motivation).

Each player wants to continuously know the k players nearest to them so
they can plan combat.  Every player is therefore both a moving *object*
and a moving *query* — this example exercises the moving-query support of
the monitoring system and reports per-cycle "target lock" changes.

Run with::

    python examples/mixed_reality_game.py
"""

from __future__ import annotations

import numpy as np

from repro import RandomWalkModel, build_system, make_dataset

N_PLAYERS = 2_000
N_TRACKED = 25  # players whose HUD we render
K = 3  # nearby players shown on the HUD
CYCLES = 15


def main() -> None:
    rng = np.random.default_rng(42)
    players = make_dataset("skewed", N_PLAYERS, seed=42)  # players cluster downtown
    motion = RandomWalkModel(vmax=0.008, seed=43)

    # The tracked players' own positions are the queries.
    tracked = rng.choice(N_PLAYERS, size=N_TRACKED, replace=False)
    system = build_system(
        "object_indexing", k=K + 1,  # the nearest "neighbor" of a player is the player itself
        queries=players[tracked],
        maintenance="incremental",
        answering="incremental",
    )
    system.load(players)

    previous_locks = {}
    total_lock_changes = 0
    for cycle in range(1, CYCLES + 1):
        players = motion.step(players)
        system.set_queries(players[tracked])  # the trackers moved too
        answers = system.tick(players)

        lock_changes = 0
        for slot, qa in enumerate(answers):
            me = int(tracked[slot])
            # Drop self from the answer (distance 0 unless occluded by a tie).
            targets = tuple(
                object_id for object_id, _ in qa.neighbors if object_id != me
            )[:K]
            if previous_locks.get(me, targets) != targets:
                lock_changes += 1
            previous_locks[me] = targets
        total_lock_changes += lock_changes
        stats = system.last_stats
        print(
            f"cycle {cycle:2d}: {lock_changes:2d}/{N_TRACKED} HUDs changed, "
            f"cycle time {stats.total_time * 1e3:6.2f} ms "
            f"(index {stats.index_time * 1e3:5.2f} + "
            f"answer {stats.answer_time * 1e3:5.2f})"
        )

    hero = int(tracked[0])
    hero_targets = previous_locks[hero]
    print(
        f"\nplayer #{hero} final HUD: nearest {K} rivals = "
        + ", ".join(f"#{t}" for t in hero_targets)
    )
    print(
        f"{total_lock_changes} HUD updates across {CYCLES} cycles "
        f"({total_lock_changes / (CYCLES * N_TRACKED):.0%} of renders)"
    )


if __name__ == "__main__":
    main()
