"""A proximity platform combining every continuous query type.

One population of moving users serves four concurrent products:

* **radar** (k-NN): a tracked user's k nearest users (the paper's core);
* **audience** (reverse k-NN): users who have a promoted venue on *their*
  radar — the right recipients for a push notification;
* **meetup** (group NN): the best users (e.g. couriers) for a group of
  friends to summon, minimising total travel;
* **geofences** (range): users inside each monitored zone.

Asynchronous position reports are staged in a :class:`repro.WorldStore`
(the paper's report buffer), each cycle reads the snapshot it publishes,
and a :class:`repro.DeltaTracker` turns raw answers into notification
events.

Run with::

    python examples/proximity_platform.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CircleRegion,
    DeltaTracker,
    GNNMonitor,
    RKNNMonitor,
    RangeMonitor,
    RectRegion,
    WorldStore,
    build_system,
    make_dataset,
    make_queries,
)

N_USERS = 5_000
CYCLES = 8


def main() -> None:
    rng = np.random.default_rng(2024)
    users = make_dataset("skewed", N_USERS, seed=2024)

    # --- product surfaces -------------------------------------------------
    venues = make_queries(4, seed=1)  # promoted venues (RkNN audiences)
    tracked = make_queries(6, seed=2)  # radar widgets (k-NN)
    friend_groups = [make_queries(3, seed=10 + g) for g in range(2)]
    zones = [
        RectRegion(0.45, 0.45, 0.55, 0.55),  # downtown core
        CircleRegion(0.25, 0.75, 0.08),  # stadium
    ]

    # The world store is the report buffer: reports stage with write_rows,
    # and system.tick(reports.publish()) is one full cycle over a read-only
    # snapshot, zero-copy from the store into the engine.
    reports = WorldStore(users)
    radar = build_system(
        "object_indexing", 5, tracked, maintenance="incremental", answering="incremental"
    )
    audience = RKNNMonitor(10, venues)
    meetup = GNNMonitor(3, friend_groups, aggregate="sum")
    geofence = RangeMonitor(zones)
    events = DeltaTracker()
    events.update(radar.load(reports.publish()))

    current = users.copy()
    for cycle in range(1, CYCLES + 1):
        # Asynchronous reports: a random subset of users ping new positions.
        movers = rng.choice(N_USERS, size=N_USERS // 3, replace=False)
        jitter = rng.uniform(-0.01, 0.01, size=(len(movers), 2))
        new_positions = np.clip(current[movers] + jitter, 0.0, 1.0 - 1e-9)
        reports.write_rows(movers, new_positions)
        current[movers] = new_positions

        # One synchronized cycle across all products.
        radar_answers = radar.tick(reports.publish())
        deltas = events.update(radar_answers)
        audiences = audience.tick(current)
        meetups = meetup.tick(current)
        zone_members = geofence.tick(current)

        changed = sum(1 for d in deltas if d.changed)
        print(
            f"cycle {cycle}: {changed}/{len(tracked)} radars changed, "
            f"audiences {[len(a) for a in audiences]}, "
            f"zone occupancy {[len(z) for z in zone_members]}"
        )

    print("\nfinal state")
    for venue_id, members in enumerate(audiences):
        vx, vy = venues[venue_id]
        print(
            f"  venue {venue_id} @ ({vx:.2f}, {vy:.2f}): push audience of "
            f"{len(members)} users"
        )
    for group_id, answer in enumerate(meetups):
        courier, cost = answer[0]
        print(
            f"  friend group {group_id}: best courier #{courier}, total "
            f"travel {cost:.3f}"
        )
    print(
        f"  radar churn: {events.mean_churn_per_cycle():.1f} membership "
        f"changes per cycle across {len(tracked)} radars"
    )


if __name__ == "__main__":
    main()
