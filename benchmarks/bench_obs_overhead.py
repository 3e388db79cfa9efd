"""Disabled-instrumentation overhead gate for the observability layer.

The contract: instrumentation is optional, and running *without* a
registry (the default — the shared no-op ``NULL_REGISTRY``/``NULL_TRACER``
pair) must cost under 3% of the cycle time.  The only cost the disabled
path adds over instrumentation-free code is the no-op emission sites
themselves: a ``tracer.span(...)`` call plus the with-protocol on the
shared null span, a ``metrics.inc(...)`` that is a ``pass``, and an
``enabled`` attribute check per gated block.  That cost is measured
directly::

    disabled_overhead = (spans/cycle * span_noop_cost
                         + incs/cycle * inc_noop_cost) / cycle_time

where the per-emission no-op costs come from a micro-benchmark run in
the same process, the emission counts per cycle come from a probe run of
the identical workload under *counting* null objects (``enabled=False``
like the real null pair, so every ``enabled`` guard behaves exactly as
in production, but each no-op invocation is tallied), and the cycle time
comes from the uninstrumented run.

The enabled arm's cost (live registry: span clocks, counter dicts,
per-cycle delta capture) is reported for information but not gated; it
is expected to be visible on sub-millisecond cycles and to vanish as
real per-cycle work grows.

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --budget 0.03
"""

from __future__ import annotations

import argparse
import json
import platform
from time import perf_counter
from typing import Dict, List

from repro.bench.runner import measure_cycles
from repro.engines.registry import build_system
from repro.motion import RandomWalkModel, make_dataset, make_queries
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    NullRegistry,
    write_history_jsonl,
)
from repro.obs.tracing import _NULL_SPAN


class _CountingNullRegistry(NullRegistry):
    """Disabled registry that tallies how often its no-ops are invoked."""

    def __init__(self) -> None:
        super().__init__()
        self.emissions = 0

    def inc(self, name, amount=1.0, labels=None):
        self.emissions += 1

    def set_gauge(self, name, value, labels=None):
        self.emissions += 1

    def observe(self, name, value, bounds=None, labels=None):
        self.emissions += 1


class _CountingNullTracer:
    """Disabled tracer that tallies ``span()`` requests."""

    enabled = False
    registry = NULL_REGISTRY

    def __init__(self) -> None:
        self.emissions = 0

    def span(self, name):
        self.emissions += 1
        return _NULL_SPAN

    @property
    def depth(self):
        return 0


def measure_noop_costs(n: int = 200_000) -> Dict[str, float]:
    """Per-emission cost of the disabled path, in seconds."""
    start = perf_counter()
    for _ in range(n):
        with NULL_TRACER.span("x"):
            pass
    span_cost = (perf_counter() - start) / n

    start = perf_counter()
    for _ in range(n):
        NULL_REGISTRY.inc("x", 1.0)
    inc_cost = (perf_counter() - start) / n

    start = perf_counter()
    for _ in range(n):
        pass
    loop_cost = (perf_counter() - start) / n
    return {
        "span_noop_s": max(span_cost - loop_cost, 0.0),
        "inc_noop_s": max(inc_cost - loop_cost, 0.0),
    }


def _one_run(
    method: str,
    n_objects: int,
    n_queries: int,
    k: int,
    cycles: int,
    seed: int,
    instrumented: bool,
):
    positions = make_dataset("uniform", n_objects, seed=seed)
    queries = make_queries(n_queries, seed=seed + 1)
    motion = RandomWalkModel(vmax=0.005, seed=seed + 2)
    kwargs = {"registry": MetricsRegistry()} if instrumented else {}
    system = build_system(method, k, queries, **kwargs)
    timing = measure_cycles(system, positions, motion, cycles=cycles)
    return timing, system


def count_disabled_emissions(
    method: str,
    n_objects: int,
    n_queries: int,
    k: int,
    cycles: int,
    seed: int,
) -> Dict[str, float]:
    """Exact no-op emission counts per steady-state cycle.

    Runs the workload once with counting null objects swapped in: their
    ``enabled`` is False, so every guard and branch takes exactly the
    production disabled path, and each surviving no-op call is tallied.
    """
    positions = make_dataset("uniform", n_objects, seed=seed)
    queries = make_queries(n_queries, seed=seed + 1)
    motion = RandomWalkModel(vmax=0.005, seed=seed + 2)
    system = build_system(method, k, queries)
    registry = _CountingNullRegistry()
    tracer = _CountingNullTracer()
    system.pipeline.bind(registry, tracer)
    system.load(positions)
    spans_before = tracer.emissions
    incs_before = registry.emissions
    for _ in range(cycles):
        positions = motion.step(positions)
        system.tick(positions)
    return {
        "spans_per_cycle": (tracer.emissions - spans_before) / cycles,
        "incs_per_cycle": (registry.emissions - incs_before) / cycles,
    }


def bench_overhead(
    method: str,
    n_objects: int,
    n_queries: int,
    k: int,
    cycles: int,
    repeats: int,
    seed: int,
) -> Dict:
    """Interleaved enabled/disabled repeats; min-of-repeats comparison."""
    # Warm-up pair (allocator pools, numpy internals, import side effects).
    _one_run(method, n_objects, n_queries, k, cycles, seed, False)
    _one_run(method, n_objects, n_queries, k, cycles, seed, True)

    disabled: List[float] = []
    enabled: List[float] = []
    last_instrumented = None
    for repeat in range(repeats):
        timing_off, _ = _one_run(
            method, n_objects, n_queries, k, cycles, seed + repeat, False
        )
        timing_on, system_on = _one_run(
            method, n_objects, n_queries, k, cycles, seed + repeat, True
        )
        disabled.append(timing_off.total_time)
        enabled.append(timing_on.total_time)
        last_instrumented = system_on

    best_off = min(disabled)
    best_on = min(enabled)

    emissions = count_disabled_emissions(
        method, n_objects, n_queries, k, cycles, seed
    )
    spans_per_cycle = emissions["spans_per_cycle"]
    incs_per_cycle = emissions["incs_per_cycle"]
    noop = measure_noop_costs()
    disabled_emission_cost = (
        spans_per_cycle * noop["span_noop_s"]
        + incs_per_cycle * noop["inc_noop_s"]
    )
    cycle_time = best_off / cycles
    return {
        "method": method,
        "np": n_objects,
        "nq": n_queries,
        "k": k,
        "cycles": cycles,
        "repeats": repeats,
        "disabled_best_s": best_off,
        "enabled_best_s": best_on,
        "spans_per_cycle": spans_per_cycle,
        "incs_per_cycle": incs_per_cycle,
        "span_noop_s": noop["span_noop_s"],
        "inc_noop_s": noop["inc_noop_s"],
        "disabled_overhead": disabled_emission_cost / max(cycle_time, 1e-12),
        "enabled_overhead": best_on / max(best_off, 1e-12) - 1.0,
        "disabled_samples_s": disabled,
        "enabled_samples_s": enabled,
        "instrumented_system": last_instrumented,
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--method", default="object_overhaul")
    parser.add_argument("--np", type=int, default=5000, dest="n_objects")
    parser.add_argument("--nq", type=int, default=64, dest="n_queries")
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--cycles", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--budget",
        type=float,
        default=0.03,
        help="max allowed disabled-instrumentation overhead "
        "(fraction of cycle time, default 0.03 = 3%%)",
    )
    parser.add_argument(
        "--enabled-budget",
        type=float,
        default=None,
        help="optionally also gate the enabled arm's measured wall-time "
        "overhead (fraction, e.g. 0.25); off by default because "
        "sub-millisecond cycles make it noisy",
    )
    parser.add_argument(
        "--jsonl",
        default=None,
        help="write the instrumented arm's per-cycle event log here",
    )
    parser.add_argument(
        "--json",
        default="BENCH_obs_overhead.json",
        help="summary output path",
    )
    args = parser.parse_args(argv)

    result = bench_overhead(
        args.method,
        args.n_objects,
        args.n_queries,
        args.k,
        args.cycles,
        args.repeats,
        args.seed,
    )
    system = result.pop("instrumented_system")
    if args.jsonl and system is not None:
        lines = write_history_jsonl(system, args.jsonl)
        print(f"wrote {lines} cycle records to {args.jsonl}")

    result["python"] = platform.python_version()
    result["budget"] = args.budget
    print(
        f"{result['method']}: disabled cycle {result['disabled_best_s']:.6f}s, "
        f"enabled cycle {result['enabled_best_s']:.6f}s"
    )
    print(
        f"no-op emission sites: {result['spans_per_cycle']:.1f} spans + "
        f"{result['incs_per_cycle']:.1f} incs per cycle at "
        f"{result['span_noop_s'] * 1e9:.0f}ns / {result['inc_noop_s'] * 1e9:.0f}ns each"
    )
    print(
        f"disabled overhead {result['disabled_overhead'] * 100:.3f}% "
        f"(budget {args.budget * 100:.1f}%), "
        f"enabled overhead {result['enabled_overhead'] * 100:+.2f}% (informational)"
    )

    ok = result["disabled_overhead"] <= args.budget
    enabled_ok = (
        args.enabled_budget is None
        or result["enabled_overhead"] <= args.enabled_budget
    )
    result["ok"] = ok and enabled_ok
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    print(f"summary written to {args.json}")
    if not ok:
        print("FAIL: disabled-instrumentation overhead exceeds budget")
        return 1
    if not enabled_ok:
        print("FAIL: enabled-instrumentation overhead exceeds --enabled-budget")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
