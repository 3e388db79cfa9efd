#!/usr/bin/env python3
"""Session-tick benchmark: the paper's answer delay, end to end and per layer.

One single-threaded caller drives the public
:class:`~repro.service.MonitoringSession` API in a closed loop: hand the
session one cycle's writes (``update_positions`` plus any lifecycle
calls), call ``tick()``, repeat.  Each workload runs in a fresh child
process, one after another.  The workloads live in ``workloads.json``
beside this file and are generated from ``--seed`` alone, so the program
only ever sees generated arrays.

Run from the repository root::

    python benchmarks/tick/bench.py run --seed 7
    python benchmarks/tick/bench.py run --trace --workload paper_1m
    python benchmarks/tick/bench.py run --seed 7 --out parent-1.json
    python benchmarks/tick/bench.py compare --parent parent-*.json --change change-*.json

``run`` prints a metric-by-workload table and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--trace`` the metrics are the end-to-end ones; with ``--trace`` a
traced phase wraps the calls into each layer (see ``layers.py``) and the
metrics are per layer.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from layers import SpanRecorder, layer_metrics, layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = HERE / "workloads.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: End-to-end metrics, in report order: name -> unit.
END_TO_END_UNITS = {
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "ingest_ms_p50": "ms",
    "cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported beside the end-to-end metrics; a run is correct only at 0, and
#: a metric that is 0 on every good run cannot carry a relative bound.
FAILED_FRAC = "failed_tick_frac"

#: Largest coordinate below 1.0: every generated point lies in [0, 1)^2.
TOP = math.nextafter(1.0, 0.0)


def load_spec() -> dict:
    with open(SPEC_FILE) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def _walk(rng, points, vmax: float):
    """One random-walk step of at most ``vmax`` per axis, reflected at the walls."""
    moved = np.abs(points + rng.uniform(-vmax, vmax, size=points.shape))
    moved = np.where(moved >= 1.0, 2.0 - moved, moved)
    return np.minimum(moved, TOP)


@dataclass
class Cycle:
    """One cycle's writes, generated before the timed region starts."""

    points: object
    object_ids: object = None
    leaves: List[int] = field(default_factory=list)
    joins: List[Tuple[int, Tuple[float, float]]] = field(default_factory=list)
    drops: list = field(default_factory=list)
    registers: List[Tuple[float, float]] = field(default_factory=list)


class Workload:
    """Seeded world and per-cycle writes of one workload.

    The static part of the world — query sites and, for ``hi_skewed``
    objects, the ten cluster centres — comes from the workload's
    ``layout_seed``; ``--seed`` draws the objects and everything that
    happens per cycle.  Full-motion workloads move every object every
    cycle.  With ``report_fraction`` only that share of objects reports a
    new position, and ``object_churn``/``query_churn`` of the initial
    populations leave and join (under fresh ids) or drop and register
    each cycle.
    """

    def __init__(self, name: str, spec: dict, *, seed: int, scale: float, k: int) -> None:
        self.k = k
        n = max(k, round(spec["np"] * scale))
        nq = max(1, round(spec["nq"] * scale))
        streams = np.random.SeedSequence([seed, zlib.crc32(name.encode())]).spawn(3)
        world, self._motion, self._check = (np.random.default_rng(s) for s in streams)
        layout = np.random.default_rng(spec["layout_seed"])
        if spec["objects"] == "hi_skewed":
            # Paper Fig. 9c: ten Gaussian clusters of std 0.02, centres in
            # the middle 80% of the square.
            centres = 0.1 + 0.8 * layout.random((10, 2))
            clustered = centres[world.integers(0, 10, size=n)] + world.normal(0.0, 0.02, (n, 2))
            self.objects = np.clip(clustered, 0.0, TOP)
        else:
            self.objects = world.random((n, 2))
        self.queries = layout.random((nq, 2))
        self.vmax = float(spec["vmax"])
        self.churn = "report_fraction" in spec
        if self.churn:
            self._reports = max(1, round(spec["report_fraction"] * n))
            self._object_churn = max(1, round(spec["object_churn"] * n))
            self._query_churn = max(1, round(spec["query_churn"] * nq))
            self.ids = np.arange(n, dtype=np.int64)
            self._next_id = n
        # Churn cycles write reported positions in place.
        self.positions = self.objects.copy() if self.churn else self.objects
        self.handles: list = []

    def next_cycle(self) -> Cycle:
        if not self.churn:
            self.positions = _walk(self._motion, self.positions, self.vmax)
            return Cycle(self.positions)
        rng, n = self._motion, len(self.ids)
        report = rng.choice(n, self._reports, replace=False)
        self.positions[report] = _walk(rng, self.positions[report], self.vmax)
        cycle = Cycle(self.positions[report], self.ids[report])
        leave = rng.choice(n, self._object_churn, replace=False)
        cycle.leaves = self.ids[leave].tolist()
        keep = np.ones(n, dtype=bool)
        keep[leave] = False
        join_ids = np.arange(self._next_id, self._next_id + self._object_churn)
        join_points = rng.random((len(join_ids), 2))
        self._next_id += len(join_ids)
        cycle.joins = list(zip(join_ids.tolist(), map(tuple, join_points.tolist())))
        self.ids = np.concatenate((self.ids[keep], join_ids))
        self.positions = np.concatenate((self.positions[keep], join_points))
        drop = rng.choice(len(self.handles), self._query_churn, replace=False)
        cycle.drops = [self.handles[i] for i in drop]
        cycle.registers = list(map(tuple, rng.random((self._query_churn, 2)).tolist()))
        return cycle

    def commit(self, cycle: Cycle, registered: list) -> None:
        """Track the query handles after ``cycle``'s drops and registrations."""
        if cycle.drops:
            dropped = {h.id for h in cycle.drops}
            self.handles = [h for h in self.handles if h.id not in dropped]
        self.handles.extend(registered)

    def check_rows(self, nq: int, count: int):
        """Seeded sample of query rows for one exactness check."""
        return self._check.choice(nq, min(count, nq), replace=False)


def ingest(session, cycle: Cycle) -> list:
    """Hand one cycle's writes to the session; returns the new query handles."""
    session.update_positions(cycle.points, cycle.object_ids)
    for oid in cycle.leaves:
        session.leave_object(oid)
    for oid, point in cycle.joins:
        session.join_object(oid, point)
    for handle in cycle.drops:
        session.drop_query(handle)
    return [session.register_query(point) for point in cycle.registers]


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
def check_exact(session, answers: dict, rows: Sequence[int]) -> int:
    """Number of sampled queries whose answer differs from brute force.

    The oracle scans the session's own population; its row indices are
    mapped through the population's external ids, and the comparison is
    exact on ``(id, distance)`` tuples — ties included, no epsilon.
    """
    # repro is importable only in the child process, once cmd_child has
    # put src/ on sys.path; the parent must run (and fail cleanly) without it.
    from repro.core.brute import brute_force_knn

    ids, points = session.population()
    queries = session.query_points()
    handles = session.handles()
    wrong = 0
    for row in rows:
        qx, qy = queries[row]
        want = tuple(
            (int(ids[i]), dist) for i, dist in brute_force_knn(points, qx, qy, session.k)
        )
        got = answers.get(handles[row])
        if got is None or tuple(got.neighbors) != want:
            wrong += 1
    return wrong


# ----------------------------------------------------------------------
# One workload (child process)
# ----------------------------------------------------------------------
def set_up(method: str, workload: Workload) -> Tuple[object, Dict[str, float]]:
    """Construct a session, join NP objects, register NQ queries, first tick."""
    from repro.service import MonitoringSession

    t0 = perf_counter()
    session = MonitoringSession(method, k=workload.k)
    for oid, point in enumerate(workload.objects.tolist()):
        session.join_object(oid, point)
    t1 = perf_counter()
    handles = [session.register_query(q) for q in workload.queries.tolist()]
    t2 = perf_counter()
    session.tick()
    t3 = perf_counter()
    workload.handles = handles
    return session, {"join_s": t1 - t0, "register_s": t2 - t1, "first_tick_s": t3 - t2}


@dataclass
class Samples:
    tick_s: List[float] = field(default_factory=list)
    ingest_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_cycles(
    session,
    workload: Workload,
    *,
    ticks: int,
    check: Optional[dict] = None,
    before: Optional[Callable[[int], None]] = None,
) -> Samples:
    """Run exactly ``ticks`` cycles.

    Only ``ingest`` and ``tick`` are timed; ``before(index)`` runs ahead of
    each cycle, outside the timed region.  With ``check``, every
    ``check["every"]``-th cycle is checked for exactness; a wrong answer
    fails that tick, and a raise fails it and every tick still planned.
    """
    out = Samples(attempted=ticks)
    for index in range(ticks):
        cycle = workload.next_cycle()
        if before is not None:
            before(index)
        try:
            t0 = perf_counter()
            registered = ingest(session, cycle)
            t1 = perf_counter()
            answers = session.tick()
            t2 = perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.failed += ticks - index
            break
        out.ingest_s.append(t1 - t0)
        out.tick_s.append(t2 - t1)
        workload.commit(cycle, registered)
        if check is not None and (index + 1) % check["every"] == 0:
            rows = workload.check_rows(session.n_active_queries, check["queries"])
            if check_exact(session, answers, rows):
                out.failed += 1
    return out


def _p50_ms(values: Sequence[float]) -> float:
    return 1000.0 * statistics.median(values) if values else math.nan


def _p90_ms(values: Sequence[float]) -> float:
    """Nearest-rank p90: with 100 samples, ten lie beyond it."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return 1000.0 * ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_workload(settings: dict) -> dict:
    """Measure one workload in this process and return its result record."""
    from repro.verify import EXACT_METHODS

    spec = load_spec()
    name = settings["workload"]
    method = settings["method"]
    if method not in EXACT_METHODS:
        raise ValueError(f"method must be an exact engine: {', '.join(EXACT_METHODS)}")
    k = spec["k"]
    workload = Workload(
        name, spec["workloads"][name], seed=settings["seed"], scale=settings["scale"], k=k
    )
    ticks = settings["ticks"] or spec["workloads"][name]["ticks"]
    check = {"every": spec["check_every"], "queries": spec["check_queries"]}

    session = None
    setups: List[Dict[str, float]] = []
    try:
        for _ in range(spec["setup_repeats"]):
            if session is not None:
                session.close()
                session = None
                gc.collect()
            session, stages = set_up(method, workload)
            setups.append(stages)
        setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
        setup_s = statistics.median(sum(s.values()) for s in setups)
        run_cycles(session, workload, ticks=spec["warmup_cycles"])

        record = {
            "workload": name,
            "method": method,
            "seed": settings["seed"],
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if not settings["trace"]:
            timed = run_cycles(session, workload, ticks=ticks, check=check)
            cycle_s = sum(timed.tick_s) + sum(timed.ingest_s)
            metrics = {
                "tick_ms_p50": _p50_ms(timed.tick_s),
                "tick_ms_p90": _p90_ms(timed.tick_s),
                "ingest_ms_p50": _p50_ms(timed.ingest_s),
                "cycles_per_s": len(timed.tick_s) / cycle_s if cycle_s else math.nan,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                FAILED_FRAC: timed.failed / timed.attempted,
            }
            record["samples"] = {
                "tick_ms": [1000.0 * t for t in timed.tick_s],
                "ingest_ms": [1000.0 * t for t in timed.ingest_s],
                "setup_s": [sum(s.values()) for s in setups],
            }
        else:
            timed, metrics, record["samples"] = _traced(
                session, workload, spec, settings, check, setup
            )
        record.update(
            attempted=timed.attempted,
            failed=timed.failed,
            ticks=len(timed.tick_s),
            metrics=metrics,
        )
        return record
    finally:
        if session is not None:
            session.close()


def _traced(session, workload, spec, settings, check, setup):
    """Per-layer metrics from ``trace_cycles`` traced cycles.

    Cycles run in the pattern untraced, untraced, traced, traced, ... so
    drift in the machine's speed falls on both kinds alike, and so does any
    period-two rhythm of the program (the world store swaps its two
    position buffers every tick).  The untraced cycles give the tracing
    overhead.  Tracing a cycle means the span wrappers record and the
    session's metrics registry is bound; untraced cycles run with both off.
    """
    from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

    cycles = settings["ticks"] or spec["trace_cycles"]
    registry = MetricsRegistry()
    recorder = SpanRecorder()
    recorder.install(session)

    def is_traced(index: int) -> bool:
        return index % 4 >= 2

    def before(index: int) -> None:
        traced = is_traced(index)
        sink = registry if traced else NULL_REGISTRY
        session.system.pipeline.bind(sink)
        session.store.registry = sink
        recorder.enabled = traced
        recorder.cycle = index

    origin = perf_counter()
    both = run_cycles(session, workload, ticks=2 * cycles, check=check, before=before)
    snapshot = registry.snapshot()
    traced_at = [is_traced(i) for i in range(len(both.tick_s))]

    def split(values: List[float], traced: bool) -> List[float]:
        return [1000.0 * v for v, t in zip(values, traced_at) if t == traced]

    plain_s, traced_s = split(both.tick_s, False), split(both.tick_s, True)
    metrics = layer_metrics(
        recorder,
        snapshot["counters"],
        snapshot["histograms"],
        cycles=len(traced_s) or 1,
        k=workload.k,
        method=settings["method"],
        setup=setup,
        traced_p50=statistics.median(traced_s),
        untraced_p50=statistics.median(plain_s),
    )
    spans = Path(settings["spans"]) / (
        f"{settings['workload']}-{settings['method']}-seed{settings['seed']}.spans.jsonl"
    )
    recorder.write_jsonl(spans, origin)
    print(f"spans written to {spans}", file=sys.stderr)
    samples = {
        "tick_ms_untraced": plain_s,
        "tick_ms_traced": traced_s,
        "ingest_ms_untraced": split(both.ingest_s, False),
        "ingest_ms_traced": split(both.ingest_s, True),
    }
    return both, metrics, samples


def cmd_child(argv: Sequence[str]) -> int:
    settings = json.loads(argv[0])
    if not (SRC / "repro").is_dir():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(settings)))
    return 0


# ----------------------------------------------------------------------
# run: every selected workload in its own child process
# ----------------------------------------------------------------------
def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"cpu": cpu, "machine": platform.machine(), "nproc": _nproc(), "git_sha": sha}


def _print_table(records: List[dict], units: Dict[str, str], trace: bool) -> None:
    """One row per metric (with its unit), one column per workload."""
    rows = [(f"{n} [{u}]", lambda r, n=n: r["metrics"][n]) for n, u in units.items()]
    if not trace:
        rows.append((f"{FAILED_FRAC} [fraction]", lambda r: r["metrics"][FAILED_FRAC]))
    rows.append(("timed ticks [count]", lambda r: r["ticks"]))
    width = max(len(label) for label, _ in rows) + 2
    colw = max(12, *(len(r["workload"]) for r in records)) + 2
    print("".ljust(width) + "".join(r["workload"].rjust(colw) for r in records))
    for label, value in rows:
        print(label.ljust(width) + "".join(f"{value(r):.6g}".rjust(colw) for r in records))


def cmd_run(args) -> int:
    if args.seconds is not None:
        with open(BENCHMARK_FILE) as f:
            run_seconds = json.load(f)["run_seconds"]
        if args.seconds != run_seconds:
            print(f"bench: --seconds must be BENCHMARK.json's run_seconds ({run_seconds}); "
                  "use --ticks to change the run length", file=sys.stderr)
            return 2
    spec = load_spec()
    names = args.workload or list(spec["workloads"])
    settings = {
        "method": args.method,
        "seed": args.seed,
        "trace": bool(args.trace),
        "scale": args.scale,
        "ticks": args.ticks,
        "spans": str(args.spans),
    }
    records = []
    for name in names:
        print(f"bench: {name} ({args.method}, seed {args.seed})", file=sys.stderr, flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "child",
             json.dumps({**settings, "workload": name})],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        records.append(json.loads(lines[-1]))

    units = layer_units(args.method) if settings["trace"] else END_TO_END_UNITS
    _print_table(records, units, settings["trace"])
    if args.out:
        run = {key: value for key, value in settings.items() if key != "spans"}
        document = {"schema": "tick-bench/1", **_machine(), **run, "workloads": {
            r["workload"]: r for r in records
        }}
        with open(args.out, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
        print(f"bench: wrote {args.out}", file=sys.stderr)

    failed = sum(r["failed"] for r in records)
    prefix = len(records) > 1
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n): {"value": r["metrics"][n], "unit": u}
            for r in records
            for n, u in units.items()
            if n in r["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# compare: the parent/change rule over recorded runs
# ----------------------------------------------------------------------
#: Fewest parent/change pairs on which a gain may be claimed.
MIN_PAIRS = 10


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent: Sequence[float], change: Sequence[float], better: str, limit: float) -> dict:
    """Verdict on one (workload, metric) pair of parent and change runs.

    ``limit`` is how far the change's median may be worse than the
    parent's before it regresses, in the metric's own unit.  Runs pair up
    in the order given; ties count for neither side.  A gain needs at
    least :data:`MIN_PAIRS` pairs, nine tenths of them won, and a median
    shift wider than the parent's interquartile range.
    """
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    spread = max(p3 - p1, c3 - c1)
    worse = sign * (cm - pm)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -worse > p3 - p1:
        verdict = "improved"
    elif worse > limit:
        verdict = "regressed"
    elif spread > limit and not all(sign * (c - p) < 0 for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(pairs),
        "delta": cm - pm,
        "spread": spread,
        "verdict": verdict,
    }


#: Settings every compared result document must share.
SHARED_SETTINGS = ("method", "trace", "scale", "ticks")


def incomparable(parent: List[dict], change: List[dict]) -> Optional[str]:
    """Why these result documents cannot be compared, or ``None`` if they can.

    Every document must come from an untraced run with the same settings
    and cover the same workloads; both sides need the same number of runs,
    and run ``i`` of the parent must use the same seed as run ``i`` of the
    change, so each pair measures identical inputs.
    """
    documents = parent + change
    for key in SHARED_SETTINGS:
        values = sorted({json.dumps(d.get(key)) for d in documents})
        if len(values) > 1:
            return f"the runs differ in {key}: {', '.join(values)}"
    if documents[0]["trace"]:
        return "these are traced runs; compare untraced runs"
    if len({tuple(sorted(d["workloads"])) for d in documents}) > 1:
        return "the runs cover different workloads"
    if len(parent) != len(change):
        return f"{len(parent)} parent runs but {len(change)} change runs"
    seeds = [(p["seed"], c["seed"]) for p, c in zip(parent, change)]
    if any(p != c for p, c in seeds):
        return f"paired runs use different seeds (parent, change): {seeds}"
    return None


def _failures(documents: List[dict], workload: str) -> Tuple[int, int]:
    """Failed and attempted ticks of ``workload`` summed over ``documents``."""
    records = [d["workloads"][workload] for d in documents]
    return sum(r["failed"] for r in records), sum(r["attempted"] for r in records)


def cmd_compare(args) -> int:
    with open(BENCHMARK_FILE) as f:
        metrics = json.load(f)["end_to_end"]
    runs = {}
    for side in ("parent", "change"):
        runs[side] = []
        for path in getattr(args, side):
            with open(path) as f:
                runs[side].append(json.load(f))
    problem = incomparable(runs["parent"], runs["change"])
    if problem:
        print(f"bench: cannot compare: {problem}", file=sys.stderr)
        return 2
    header = (
        f"{'workload':<20}{'metric':<18}{'parent q1/med/q3':>28}{'change q1/med/q3':>28}"
        f"{'change-parent':>26}{'won':>8}{'spread':>10}{'bound':>8}  verdict"
    )
    print(f"{len(runs['parent'])} runs per side, seeds {[d['seed'] for d in runs['parent']]}")
    if len(runs["parent"]) < MIN_PAIRS:
        print(f"fewer than {MIN_PAIRS} pairs: no gain can be claimed")
    print(header)
    regressed = False
    for workload in runs["parent"][0]["workloads"]:
        # A gain does not count while the change fails more ticks.
        p_failed, p_attempted = _failures(runs["parent"], workload)
        c_failed, c_attempted = _failures(runs["change"], workload)
        more_failures = c_failed * p_attempted > p_failed * c_attempted
        for m in metrics:
            name = m["name"]
            parent = [d["workloads"][workload]["metrics"][name] for d in runs["parent"]]
            change = [d["workloads"][workload]["metrics"][name] for d in runs["change"]]
            base = statistics.median(parent)
            v = judge(parent, change, m["better"], m["bound"] * abs(base))
            if more_failures and v["verdict"] == "improved":
                v["verdict"] = "unresolved: more failed ticks"
            regressed |= v["verdict"] == "regressed"
            share = f"{100 * v['delta'] / base:+.1f}% of {base:.4g}"
            print(
                f"{workload:<20}{name:<18}"
                f"{'/'.join(f'{x:.4g}' for x in v['parent']):>28}"
                f"{'/'.join(f'{x:.4g}' for x in v['change']):>28}"
                f"{share:>26}{v['wins']:>5}/{v['pairs']:<2}"
                f"{100 * v['spread'] / base:>9.1f}%{100 * m['bound']:>7g}%  {v['verdict']}"
            )
        regressed |= more_failures
        print(
            f"{workload:<20}{FAILED_FRAC:<18}"
            f"{f'{p_failed}/{p_attempted} ticks':>28}{f'{c_failed}/{c_attempted} ticks':>28}"
            f"{'':>44}{'+0':>8}  {'regressed' if more_failures else 'within bound'}"
        )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["child"]:
        return cmd_child(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads, each in its own child process")
    run.add_argument("--workload", action="append", choices=list(spec["workloads"]),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    run.add_argument("--method", default="fast_grid", help="exact engine (default fast_grid)")
    run.add_argument("--seconds", type=float,
                     help="accepted only as BENCHMARK.json's run_seconds, which benchmark "
                          "runners pass; the run length is each workload's tick count")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="per-layer traced run instead of end-to-end metrics")
    run.add_argument("--scale", type=float, default=1.0, help="multiply NP and NQ")
    run.add_argument("--ticks", type=int, default=0, help="override the timed tick count")
    run.add_argument("--spans", type=Path, default=HERE / "out",
                     help="directory for traced runs' span JSONL")
    run.add_argument("--out", type=Path, help="write the full result document here")
    run.set_defaults(fn=cmd_run)
    cmp_ = sub.add_parser("compare", help="parent vs change verdict per workload and metric")
    cmp_.add_argument("--parent", nargs="+", required=True, help="result documents of the parent")
    cmp_.add_argument("--change", nargs="+", required=True, help="result documents of the change")
    cmp_.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
