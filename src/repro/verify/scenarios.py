"""Seeded workload scenarios for the differential fuzzer.

Every scenario is a pure function of its integer seed: one
``np.random.default_rng(seed)`` drives every draw, and the generator
performs no I/O and reads no clocks, so the same seed always yields the
same :class:`~repro.verify.trace.Workload` — which is what lets a CI
failure be reproduced locally from nothing but the seed number.

The generator is built to hit the places where exact engines disagree
when they are wrong:

* **knife-edge ties** — most scenarios put coordinates on a coarse
  ``i / L`` lattice (L ∈ {8, 16, 32}), so duplicate query–object
  distances are routine and the ``(d², id)`` tie-break is load-bearing
  on almost every cycle; some scenarios additionally join objects at the
  *exact* position of an existing object or query;
* **churn bursts** — occasional cycles join or retire a large batch at
  once, stressing delta admission, compaction, and rebuild paths;
* **teleports** — objects jump across the unit square, invalidating any
  stale cross-cycle state (a previous answer's §3.2 bound, a stripe's
  stored cell assignment);
* **motion profiles** — ``uniform`` lattice random walks, ``skew``
  drift toward a moving hotspot (grid-load imbalance), and ``roadnet``
  axis-aligned movement along lattice lines;
* **k / ncells sweeps** — ``k`` varies per scenario and grid methods
  get an ``ncells`` override, so cell-boundary geometry varies too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .trace import Workload

PROFILES = ("uniform", "skew", "roadnet")


@dataclass(frozen=True)
class Scenario:
    """One generated fuzz case: the workload plus its shape parameters."""

    seed: int
    profile: str
    lattice: Optional[int]  #: coordinate denominator (None = continuous)
    k: int
    n_objects: int
    n_queries: int
    cycles: int
    ncells: Optional[int]  #: grid-resolution override for grid methods
    workload: Workload

    @property
    def engine_overrides(self) -> Dict[str, object]:
        return {} if self.ncells is None else {"ncells": self.ncells}

    def describe(self) -> str:
        lat = f"1/{self.lattice}" if self.lattice else "continuous"
        nc = self.ncells if self.ncells is not None else "default"
        return (
            f"seed={self.seed} profile={self.profile} lattice={lat} "
            f"k={self.k} objects={self.n_objects} queries={self.n_queries} "
            f"cycles={self.cycles} ncells={nc}"
        )


def _coords(rng: np.random.Generator, n: int, lattice: Optional[int]):
    if lattice is None:
        return rng.random((n, 2))
    return rng.integers(0, lattice + 1, size=(n, 2)) / lattice


def _snap(xy: np.ndarray, lattice: Optional[int]) -> np.ndarray:
    xy = np.clip(xy, 0.0, 1.0)
    if lattice is None:
        return xy
    return np.round(xy * lattice) / lattice


def make_scenario(seed: int, *, cycles: Optional[int] = None) -> Scenario:
    """Generate the scenario for ``seed`` (deterministic, no side effects)."""
    rng = np.random.default_rng(seed)
    profile = PROFILES[int(rng.integers(len(PROFILES)))]
    lattice = [8, 16, 32, None][int(rng.integers(4))]
    k = int(rng.integers(1, 7))
    n_objects = int(rng.integers(max(k + 4, 12), 40))
    n_queries = int(rng.integers(2, 8))
    n_cycles = int(cycles) if cycles is not None else int(rng.integers(8, 21))
    ncells = [None, 4, 8, 16][int(rng.integers(4))]

    workload = Workload(
        k=k,
        meta={
            "seed": seed,
            "profile": profile,
            "lattice": lattice,
            "ncells": ncells,
        },
    )

    live: Dict[int, np.ndarray] = {}
    queries: Dict[int, np.ndarray] = {}
    next_oid = 0
    next_hid = 0
    hotspot = rng.random(2)
    # Roadnet: per-object axis (0 = moves along x, 1 = along y).
    axis: Dict[int, int] = {}
    step = 1.0 / (lattice or 64)

    def join_events(n: int, events: List[dict]) -> None:
        nonlocal next_oid
        for _ in range(n):
            if live and lattice is not None and rng.random() < 0.25:
                # Knife-edge: join exactly on top of an existing object
                # or query — guaranteed duplicate distances.
                pool = list(live.values()) + list(queries.values())
                xy = np.array(pool[int(rng.integers(len(pool)))])
            else:
                xy = _coords(rng, 1, lattice)[0]
            events.append(
                {"t": "join", "oid": next_oid, "xy": [float(xy[0]), float(xy[1])]}
            )
            live[next_oid] = np.asarray(xy, dtype=np.float64)
            axis[next_oid] = int(rng.integers(2))
            next_oid += 1

    def register_events(n: int, events: List[dict]) -> None:
        nonlocal next_hid
        for _ in range(n):
            xy = _coords(rng, 1, lattice)[0]
            events.append(
                {"t": "reg", "hid": next_hid, "xy": [float(xy[0]), float(xy[1])]}
            )
            queries[next_hid] = np.asarray(xy, dtype=np.float64)
            next_hid += 1

    def motion_event(events: List[dict]) -> None:
        if not live:
            return
        oids = sorted(live)
        pos = np.array([live[o] for o in oids])
        if profile == "uniform":
            pos = pos + rng.integers(-1, 2, size=pos.shape) * step
        elif profile == "skew":
            nonlocal hotspot
            hotspot = np.clip(
                hotspot + rng.uniform(-0.05, 0.05, size=2), 0.0, 1.0
            )
            drift = np.sign(hotspot - pos) * step
            noise = rng.integers(-1, 2, size=pos.shape) * step
            pos = pos + np.where(rng.random(pos.shape) < 0.7, drift, noise)
        else:  # roadnet: move along the object's axis only
            delta = np.zeros_like(pos)
            steps = rng.integers(-2, 3, size=len(oids)) * step
            for row, oid in enumerate(oids):
                delta[row, axis[oid]] = steps[row]
                if rng.random() < 0.1:  # turn at an intersection
                    axis[oid] ^= 1
            pos = pos + delta
        pos = _snap(pos, lattice)
        for row, oid in enumerate(oids):
            live[oid] = pos[row]
        events.append({"t": "move", "oids": oids, "xy": pos.tolist()})

    for cycle in range(n_cycles):
        events: List[dict] = []
        if cycle == 0:
            join_events(n_objects, events)
            register_events(n_queries, events)
            workload.cycles.append(events)
            continue

        burst = rng.random() < 0.1
        join_events(
            int(rng.integers(5, 11)) if burst else int(rng.integers(0, 3)),
            events,
        )
        n_leave = (
            int(rng.integers(4, 9)) if burst else int(rng.integers(0, 3))
        )
        n_leave = min(n_leave, max(0, len(live) - (k + 2)))
        if n_leave:
            for oid in rng.choice(sorted(live), size=n_leave, replace=False):
                events.append({"t": "leave", "oid": int(oid)})
                del live[int(oid)]
        if len(queries) > 1 and rng.random() < 0.3:
            hid = sorted(queries)[int(rng.integers(len(queries)))]
            events.append({"t": "drop", "hid": hid})
            del queries[hid]
        if len(queries) < 10 and rng.random() < 0.35:
            register_events(1, events)
        if live and rng.random() < 0.08:  # teleport burst
            n_tp = min(len(live), int(rng.integers(1, 5)))
            oids = [
                int(o)
                for o in rng.choice(sorted(live), size=n_tp, replace=False)
            ]
            xy = _coords(rng, n_tp, lattice)
            for row, oid in enumerate(oids):
                live[oid] = xy[row]
            events.append({"t": "move", "oids": oids, "xy": xy.tolist()})
        motion_event(events)
        workload.cycles.append(events)

    return Scenario(
        seed=seed,
        profile=profile,
        lattice=lattice,
        k=k,
        n_objects=n_objects,
        n_queries=n_queries,
        cycles=n_cycles,
        ncells=ncells,
        workload=workload,
    )


def churn_scenario(
    seed: int,
    *,
    k: int = 3,
    cycles: int = 200,
    n_objects: int = 30,
    n_queries: int = 5,
    lattice: int = 16,
) -> Workload:
    """A long mixed-churn workload mirroring the churn equivalence suite.

    Fixed shape (lattice positions, steady join/leave/register/drop mix,
    full-population random-walk motion each cycle) so the 200-cycle churn
    tests can drive every engine through the differential runner with
    the same stress profile as :mod:`tests.test_churn`.
    """
    rng = np.random.default_rng(seed)
    workload = Workload(
        k=k, meta={"seed": seed, "profile": "churn", "lattice": lattice}
    )
    live: Dict[int, np.ndarray] = {}
    queries: Dict[int, np.ndarray] = {}
    next_oid = 0
    next_hid = 0

    for cycle in range(cycles):
        events: List[dict] = []
        if cycle == 0:
            for xy in _coords(rng, n_objects, lattice):
                events.append(
                    {"t": "join", "oid": next_oid, "xy": xy.tolist()}
                )
                live[next_oid] = xy
                next_oid += 1
            for xy in _coords(rng, n_queries, lattice):
                events.append({"t": "reg", "hid": next_hid, "xy": xy.tolist()})
                queries[next_hid] = xy
                next_hid += 1
            workload.cycles.append(events)
            continue
        for _ in range(int(rng.integers(0, 4))):
            xy = _coords(rng, 1, lattice)[0]
            events.append({"t": "join", "oid": next_oid, "xy": xy.tolist()})
            live[next_oid] = xy
            next_oid += 1
        n_leave = int(rng.integers(0, 4))
        n_leave = min(n_leave, max(0, len(live) - (k + 2)))
        if n_leave:
            for oid in rng.choice(sorted(live), size=n_leave, replace=False):
                events.append({"t": "leave", "oid": int(oid)})
                del live[int(oid)]
        if len(queries) > 1 and rng.random() < 0.4:
            hid = sorted(queries)[int(rng.integers(len(queries)))]
            events.append({"t": "drop", "hid": hid})
            del queries[hid]
        if len(queries) < 12 and rng.random() < 0.5:
            xy = _coords(rng, 1, lattice)[0]
            events.append({"t": "reg", "hid": next_hid, "xy": xy.tolist()})
            queries[next_hid] = xy
            next_hid += 1
        oids = sorted(live)
        pos = np.array([live[o] for o in oids])
        pos = _snap(pos + rng.integers(-1, 2, size=pos.shape) / lattice, lattice)
        for row, oid in enumerate(oids):
            live[oid] = pos[row]
        events.append({"t": "move", "oids": oids, "xy": pos.tolist()})
        workload.cycles.append(events)
    return workload
