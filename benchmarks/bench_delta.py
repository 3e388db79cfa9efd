"""Standalone benchmark: incremental delta-CSR vs full CSR rebuild.

Sweeps object population x maximum speed and measures, for ``fast_grid``
(full CSR rebuild every cycle) and ``delta_grid`` (two-regime
incremental maintenance + dirty-region answer reuse), the mean per-cycle
index-maintenance time, answer time and total cycle time of the
pipeline's ``CycleTiming`` records, plus each stage's mean seconds from
the engine's spans (``snapshot_csr`` is the ``maintain.csr_snapshot`` or
``maintain.delta_update`` span).  Writes ``BENCH_delta.json`` so the
maintenance speedup can be tracked across commits.

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_delta.py
    PYTHONPATH=src python benchmarks/bench_delta.py --np 1000000 --vmax 0.001 0.005 0.02
    PYTHONPATH=src python benchmarks/bench_delta.py --np 20000 --assert-speedup 1.5

``--assert-speedup X`` exits non-zero unless delta maintenance beats the
full rebuild by at least ``X``x in every swept configuration — the CI
smoke job uses it as a perf-regression gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict, List

from repro.engines.base import CycleTiming
from repro.engines.registry import build_system
from repro.motion import RandomWalkModel, make_dataset, make_queries
from repro.obs.registry import MetricsRegistry


def bench_one(
    method: str,
    n_objects: int,
    n_queries: int,
    k: int,
    cycles: int,
    seed: int,
    vmax: float,
    update_fraction: float,
) -> Dict:
    positions = make_dataset("uniform", n_objects, seed=seed)
    queries = make_queries(n_queries, seed=seed + 1)
    motion = RandomWalkModel(
        vmax=vmax, seed=seed + 2, update_fraction=update_fraction
    )
    registry = MetricsRegistry()
    system = build_system(method, k, queries, registry=registry)
    current = positions
    system.load(current)
    for _ in range(cycles):
        current = motion.step(current)
        system.tick(current)
    timing = CycleTiming.from_history(system.history)
    spans = timing.span_means()
    build = "csr_snapshot" if method == "fast_grid" else "delta_update"
    stage_spans = {
        "snapshot_csr": f"maintain.{build}",
        "radii": "answer.radii",
        "gather": "answer.gather",
        "select": "answer.select",
    }
    entry: Dict = {
        "maintain_s": timing.index_time,
        "answer_s": timing.answer_time,
        "total_s": timing.total_time,
        # A cycle that reuses every answer runs no answer stage.
        "stages": {
            stage: spans.get(path, 0.0) for stage, path in stage_spans.items()
        },
    }
    if method == "delta_grid":
        entry["counters"] = {
            name: registry.counter(name)
            for name in (
                "delta.patch_cycles",
                "delta.rebuild_cycles",
                "delta.compactions",
                "delta.queries_reused",
                "delta.queries_reanswered",
            )
        }
    return entry


def bench_config(
    n_objects: int,
    vmax: float,
    n_queries: int,
    k: int,
    cycles: int,
    seed: int,
    update_fraction: float,
) -> Dict:
    engines = {
        method: bench_one(
            method, n_objects, n_queries, k, cycles, seed, vmax,
            update_fraction,
        )
        for method in ("fast_grid", "delta_grid")
    }
    full = engines["fast_grid"]["maintain_s"]
    delta = engines["delta_grid"]["maintain_s"]
    return {
        "np": n_objects,
        "vmax": vmax,
        "engines": engines,
        "maintain_speedup_delta_vs_full": full / max(delta, 1e-12),
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--np",
        dest="populations",
        type=int,
        nargs="+",
        default=[100_000, 1_000_000],
        help="object populations to sweep (default: 100000 1000000)",
    )
    parser.add_argument(
        "--vmax",
        type=float,
        nargs="+",
        default=[0.005],
        help="maximum per-cycle displacements to sweep (default: 0.005)",
    )
    parser.add_argument("--nq", type=int, default=1_000, help="query count")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--cycles", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--update-fraction",
        type=float,
        default=1.0,
        help="fraction of objects moving per cycle (default: 1.0, "
        "the paper's workload; lower values exercise the patch regime)",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless delta maintenance is >= X times faster than "
        "the full rebuild in every configuration",
    )
    parser.add_argument(
        "--out", default="BENCH_delta.json", help="output JSON path"
    )
    args = parser.parse_args(argv)

    runs = []
    for n_objects in args.populations:
        for vmax in args.vmax:
            started = time.perf_counter()
            run = bench_config(
                n_objects, vmax, args.nq, args.k, args.cycles, args.seed,
                args.update_fraction,
            )
            runs.append(run)
            print(
                f"NP={n_objects} vmax={vmax}: "
                f"delta maintain {run['engines']['delta_grid']['maintain_s'] * 1e3:.1f}ms, "
                f"full rebuild {run['engines']['fast_grid']['maintain_s'] * 1e3:.1f}ms "
                f"({run['maintain_speedup_delta_vs_full']:.2f}x), "
                f"delta total {run['engines']['delta_grid']['total_s'] * 1e3:.1f}ms/cycle "
                f"[{time.perf_counter() - started:.1f}s]"
            )

    payload = {
        "benchmark": "delta_csr_vs_full_rebuild",
        "workload": {
            "nq": args.nq,
            "k": args.k,
            "cycles": args.cycles,
            "seed": args.seed,
            "update_fraction": args.update_fraction,
            "dataset": "uniform",
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"written: {args.out}")

    if args.assert_speedup is not None:
        failing = [
            run
            for run in runs
            if run["maintain_speedup_delta_vs_full"] < args.assert_speedup
        ]
        if failing:
            for run in failing:
                print(
                    f"FAIL NP={run['np']} vmax={run['vmax']}: maintenance "
                    f"speedup {run['maintain_speedup_delta_vs_full']:.2f}x "
                    f"< required {args.assert_speedup:g}x"
                )
            return 1
        print(f"speedup gate passed (>= {args.assert_speedup:g}x everywhere)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
