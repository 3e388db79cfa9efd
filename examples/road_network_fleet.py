"""Fleet dispatch over a road network (the paper's Illinois-style workload).

Vehicles move along the roads of a synthetic city; dispatch centers at
major intersections continuously monitor their k nearest vehicles.  Road-
constrained motion is strongly non-uniform, so this example uses the
hierarchical Object-Index (§4), the paper's recommended structure for
skewed data, and reports its adaptive memory footprint.

Run with::

    python examples/road_network_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro import RoadNetworkModel, build_system, synthetic_road_network
from repro.motion import skewness_statistic

N_VEHICLES = 5_000
N_DISPATCH = 12
K = 8
CYCLES = 10


def main() -> None:
    network = synthetic_road_network(grid_size=25, seed=3)
    fleet = RoadNetworkModel(N_VEHICLES, vmax=0.006, network=network, seed=4)
    print(
        f"city: {network.n_nodes} intersections, {network.n_edges} road "
        f"segments; fleet: {N_VEHICLES} vehicles"
    )

    # Dispatch centers sit at the busiest intersections.
    hubs = network.major_intersections(N_DISPATCH)
    dispatch_points = network.node_positions[hubs]

    system = build_system(
        "hierarchical", k=K, queries=dispatch_points, delta0=0.1, max_cell_load=10, split_factor=3
    )
    positions = fleet.positions()
    system.load(positions)
    engine_index = system.engine.index

    for cycle in range(1, CYCLES + 1):
        positions = fleet.step()
        answers = system.tick(positions)
        if cycle in (1, CYCLES):
            index_cells, leaf_cells = engine_index.cell_counts()
            skew = skewness_statistic(positions)
            print(
                f"cycle {cycle:2d}: skew {skew:5.2f}, hierarchy depth "
                f"{engine_index.depth()}, cells {index_cells}+{leaf_cells}, "
                f"cycle time {system.last_stats.total_time * 1e3:.2f} ms"
            )

    print("\nfinal assignments:")
    for qa in answers:
        hub = int(hubs[qa.query_id])
        x, y = network.node_positions[hub]
        nearest, dist = qa.neighbors[0]
        print(
            f"  hub {hub:4d} @ ({x:.2f}, {y:.2f}): closest vehicle "
            f"#{nearest} at {dist:.4f}; {K}-th at {qa.kth_dist():.4f}"
        )

    # Mean fleet response radius across hubs: how far the k-th nearest
    # vehicle is, i.e. the service guarantee the dispatcher can quote.
    radii = [qa.kth_dist() for qa in answers]
    print(f"\nmean {K}-vehicle response radius: {np.mean(radii):.4f}")


if __name__ == "__main__":
    main()
