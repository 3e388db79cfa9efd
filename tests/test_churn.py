"""Churn equivalence: a long-lived session must match fresh rebuilds bit-for-bit.

The contract under test is the strongest one the service layer makes: a
:class:`~repro.service.MonitoringSession` driven through hundreds of
cycles of interleaved query registration/drops, object joins/leaves, and
motion must report answers *bit-identical* — same neighbor IDs in the
same order, same float64 distances — to a throwaway engine built fresh
every cycle from the surviving population.  Any drift in the incremental
delta paths (a stale §3.2 bound, mis-remapped rows after compaction)
shows up here as a first-class
failure with the cycle number attached.

Positions live on a coarse lattice so duplicate query-object distances
are common: the equality of answers therefore also pins down the
(distance, id) tie-break through every churn path, not just the metric.
"""

import numpy as np
import pytest

from repro.engines.registry import build_system
from repro.service import MonitoringSession

K = 3
LATTICE = 16  # positions on the i/LATTICE grid -> frequent exact ties


def _lattice(rng, n):
    return rng.integers(0, LATTICE + 1, size=(n, 2)) / LATTICE


def _lattice_walk(rng, pos):
    """One random-walk step that stays on the lattice inside [0, 1]."""
    step = rng.integers(-1, 2, size=pos.shape) / LATTICE
    return np.clip(pos + step, 0.0, 1.0).round(6)


def drive_churn(
    method,
    session_opts=None,
    baseline_opts=None,
    cycles=200,
    seed=2005,
):
    """Run the dual-driver: churned session vs per-cycle fresh engine.

    Every cycle applies a random mix of register/drop/join/leave plus a
    lattice random-walk of the whole live population, ticks the session,
    then builds a *fresh* system from the session's own surviving
    population and compares answers exactly.
    """
    rng = np.random.default_rng(seed)
    session_opts = dict(session_opts or {})
    baseline_opts = dict(baseline_opts or {})
    next_oid = 0

    with MonitoringSession(method, k=K, **session_opts) as session:
        # Seed population and queries.
        for xy in _lattice(rng, 30):
            session.join_object(next_oid, xy)
            next_oid += 1
        for xy in _lattice(rng, 5):
            session.register_query(xy)

        for cycle in range(cycles):
            if cycle > 0:
                # --- lifecycle churn -----------------------------------
                live_ids, live_pos = session.population()
                handles = session.handles()
                n_live, nq = len(live_ids), len(handles)
                for _ in range(int(rng.integers(0, 4))):  # joins
                    session.join_object(next_oid, _lattice(rng, 1)[0])
                    next_oid += 1
                n_leave = int(rng.integers(0, 4))
                # Keep the post-admission population comfortably >= K.
                n_leave = min(n_leave, max(0, n_live - (K + 2)))
                for oid in rng.choice(live_ids, size=n_leave, replace=False):
                    session.leave_object(int(oid))
                if nq > 1 and rng.random() < 0.4:
                    session.drop_query(handles[int(rng.integers(nq))])
                if nq < 12 and rng.random() < 0.5:
                    session.register_query(_lattice(rng, 1)[0])
                # --- motion (streaming, not part of the admission set) --
                _, live_pos = session.population()
                session.update_positions(_lattice_walk(rng, live_pos))

            answers = session.tick()

            # --- the oracle: fresh engine over the survivors -----------
            ids, pos = session.population()
            fresh = build_system(
                method, K, session.query_points(), **baseline_opts
            )
            try:
                fresh_answers = fresh.load(pos)
            finally:
                fresh.close()
            for row, handle in enumerate(session.handles()):
                want = tuple(
                    (int(ids[oid]), dist)
                    for oid, dist in fresh_answers[row].neighbors
                )
                got = answers[handle].neighbors
                assert got == want, (
                    f"{method}: cycle {cycle} query row {row} diverged:\n"
                    f"  session: {got}\n  fresh:   {want}"
                )
        assert session.n_live_objects >= K
    return next_oid


@pytest.mark.parametrize(
    "method",
    ["object_indexing", "fast_grid"],
)
def test_churn_matches_fresh_rebuild_200_cycles(method):
    drive_churn(method)


def test_churn_differential_query_indexing_and_hierarchical():
    """200-cycle churn equivalence for the remaining exact engines.

    ``query_indexing`` and ``hierarchical`` run the same churn profile as
    :func:`drive_churn` but through the differential runner: one recorded
    workload, ``brute_force`` as the oracle, answers compared
    ``(distance, id)``-exact every cycle.  A failure reports the first
    divergent cycle and query instead of a bare assert."""
    from repro.verify import churn_scenario, make_specs, run_differential

    workload = churn_scenario(2005, k=K, cycles=200, lattice=LATTICE)
    specs = make_specs(["brute_force", "query_indexing", "hierarchical"])
    report = run_differential(workload, specs)
    assert report.ok, "\n".join(
        [d.describe() for d in report.divergences] + report.errors
    )


@pytest.mark.slow
def test_churn_differential_all_methods_long():
    """Nightly tier: 400 churn cycles across every exact engine at once."""
    from repro.verify import churn_scenario, make_specs, run_differential

    workload = churn_scenario(11, k=K, cycles=400, lattice=LATTICE)
    specs = make_specs(["all"])
    report = run_differential(workload, specs)
    assert report.ok, "\n".join(
        [d.describe() for d in report.divergences] + report.errors
    )


def test_compaction_preserves_answer_ids():
    """Grow past several capacity doublings, then leave 95% of the
    population: the universe compacts (rows remap) and reported IDs must
    still be the external ones."""
    rng = np.random.default_rng(5)
    with MonitoringSession("fast_grid", k=K) as session:
        for oid in range(600):
            session.join_object(oid, _lattice(rng, 1)[0])
        handle = session.register_query((0.5, 0.5))
        session.tick()
        for oid in range(570):
            session.leave_object(oid)
        answers = session.tick()
        assert session.registry.counter("service.compactions") == 0.0  # null registry
        ids, pos = session.population()
        fresh = build_system("fast_grid", K, session.query_points())
        fresh_answers = fresh.load(pos)
        want = tuple(
            (int(ids[oid]), dist) for oid, dist in fresh_answers[0].neighbors
        )
        assert answers[handle].neighbors == want
        assert all(oid >= 570 for oid, _ in answers[handle].neighbors)
