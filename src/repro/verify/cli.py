"""``python -m repro.verify`` — record, replay, diff, and fuzz workloads.

Subcommands:

``record``
    Generate the seeded scenario for ``--seed`` and record it through a
    live session (the :class:`~repro.verify.recorder.TraceRecorder`
    hooks), writing a trace with per-cycle answer digests.
``replay``
    Re-execute a trace.  ``--check`` verifies the stored digests;
    ``--repeat N`` runs it N times and asserts the runs are
    bit-identical to each other (answers *and* ``verify.*`` counters).
``diff``
    Run one trace across several engines and report the first
    divergence per engine (cycle, query, both answers, candidate
    counters).
``fuzz``
    Differential fuzzing over seeded scenarios; on divergence the
    failing workload is shrunk to a minimal trace and written to the
    artifacts directory.  Exit status 1 on any divergence.

Every command prints its ``verify.*`` counters on completion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..obs.registry import MetricsRegistry
from .differential import (
    EXACT_METHODS,
    MethodSpec,
    make_specs,
    replay,
    run_differential,
)
from .metamorphic import CHECKS, run_metamorphic
from .recorder import TraceRecorder
from .scenarios import make_scenario
from .shrink import shrink_workload
from .trace import Workload, load_trace, save_trace


def _print_counters(registry: MetricsRegistry) -> None:
    counters = {
        k: v
        for k, v in sorted(registry.counter_values().items())
        if k.startswith("verify.")
    }
    if counters:
        print("verify counters:")
        for name, value in counters.items():
            print(f"  {name} = {value:g}")


def _parse_methods(raw: str) -> List[str]:
    return [m.strip() for m in raw.split(",") if m.strip()]


def cmd_record(args: argparse.Namespace) -> int:
    from .differential import run_workload

    registry = MetricsRegistry()
    scenario = make_scenario(args.seed, cycles=args.cycles)
    method = args.method or "fast_grid"
    recorder = TraceRecorder(
        scenario.workload.k,
        method=method,
        options=scenario.engine_overrides,
        meta=dict(scenario.workload.meta),
        registry=registry,
    )
    spec = MethodSpec(method, scenario.engine_overrides)
    result = run_workload(
        spec, scenario.workload, registry=registry, recorder=recorder
    )
    if not result.ok:
        print(f"record failed: {result.error}", file=sys.stderr)
        return 1
    recorder.save(args.out)
    print(f"recorded {scenario.describe()}")
    print(
        f"wrote {args.out}: {len(scenario.workload.cycles)} cycles, "
        f"{scenario.workload.n_events} events, method={method}"
    )
    _print_counters(registry)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    workload = load_trace(args.trace)
    options = json.loads(args.options) if args.options else None
    digest_sets = []
    for _ in range(max(1, args.repeat)):
        result = replay(
            workload,
            method=args.method,
            options=options,
            check=args.check,
            registry=registry,
        )
        if not result.run.ok:
            print(f"replay failed: {result.run.error}", file=sys.stderr)
            return 1
        if result.mismatches:
            print(
                f"digest mismatch at cycle(s) {result.mismatches}: the "
                "replayed engine does not reproduce the recorded answers",
                file=sys.stderr,
            )
            return 1
        digest_sets.append(result.run.digests)
    if any(d != digest_sets[0] for d in digest_sets[1:]):
        print("replay is not deterministic across repeats", file=sys.stderr)
        return 1
    print(
        f"replayed {workload.n_cycles} cycles x {max(1, args.repeat)} "
        f"run(s): bit-identical"
        + (", digests verified" if args.check else "")
    )
    _print_counters(registry)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    workload = load_trace(args.trace)
    specs = make_specs(_parse_methods(args.methods), overrides=workload.options)
    report = run_differential(workload, specs, registry=registry)
    for error in report.errors:
        print(f"run error: {error}", file=sys.stderr)
    for div in report.divergences:
        print(div.describe(), file=sys.stderr)
    if report.ok:
        print(
            f"{len(specs)} engines agree bit-for-bit over "
            f"{workload.n_cycles} cycles"
        )
    _print_counters(registry)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    methods = _parse_methods(args.methods)
    n_specs = len(make_specs(methods))  # "all" counts as every engine it runs
    failures = 0
    for index in range(args.scenarios):
        seed = args.seed + index
        scenario = make_scenario(seed)
        registry.inc("verify.fuzz.scenarios")
        specs = make_specs(methods, overrides=scenario.engine_overrides)
        report = run_differential(scenario.workload, specs, registry=registry)
        if report.errors:
            failures += 1
            registry.inc("verify.fuzz.errors")
            for error in report.errors:
                print(f"[seed {seed}] run error: {error}", file=sys.stderr)
            continue
        if not report.ok:
            failures += 1
            registry.inc("verify.fuzz.failures")
            div = report.first_divergence
            assert div is not None
            print(f"[seed {seed}] {scenario.describe()}", file=sys.stderr)
            print(div.describe(), file=sys.stderr)
            _shrink_and_dump(
                scenario.workload, specs, div.cycle, seed, args, registry
            )
        elif args.metamorphic and index % args.metamorphic_every == 0:
            for failure in run_metamorphic(
                specs[-1] if len(specs) > 1 else specs[0],
                scenario.workload,
                checks=args.checks,
                registry=registry,
            ):
                failures += 1
                registry.inc("verify.fuzz.failures")
                print(f"[seed {seed}] {failure.describe()}", file=sys.stderr)
        if args.progress and (index + 1) % 10 == 0:
            print(f"... {index + 1}/{args.scenarios} scenarios", flush=True)
    print(
        f"fuzzed {args.scenarios} scenarios across {n_specs} method "
        f"spec(s): {failures} failure(s)"
    )
    _print_counters(registry)
    return 0 if failures == 0 else 1


def _shrink_and_dump(
    workload: Workload,
    specs,
    divergence_cycle: int,
    seed: int,
    args: argparse.Namespace,
    registry: MetricsRegistry,
) -> None:
    def still_fails(candidate: Workload) -> bool:
        report = run_differential(
            candidate, specs, registry=registry, stop_at_first=True
        )
        return bool(report.divergences)

    shrunk = shrink_workload(
        workload,
        still_fails,
        first_divergence_cycle=divergence_cycle,
        max_runs=args.shrink_budget,
        registry=registry,
    )
    os.makedirs(args.artifacts, exist_ok=True)
    path = os.path.join(args.artifacts, f"shrunk_seed{seed}.jsonl")
    save_trace(shrunk.workload, path)
    final = run_differential(shrunk.workload, specs, registry=registry)
    report_path = os.path.join(args.artifacts, f"shrunk_seed{seed}.report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": seed,
                "methods": [s.label for s in specs],
                "shrink": shrunk.describe(),
                "divergences": [d.describe() for d in final.divergences],
                "cycles": shrunk.workload.n_cycles,
                "events": shrunk.workload.n_events,
            },
            fh,
            indent=2,
        )
    print(f"[seed {seed}] {shrunk.describe()}", file=sys.stderr)
    print(f"[seed {seed}] minimal trace: {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential conformance harness: record, replay, "
        "diff, and fuzz monitoring workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="generate + record a seeded scenario")
    p.add_argument("--out", required=True, help="trace path (.jsonl/.jsonl.gz/.npz)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--method", default=None, help="engine to record (default fast_grid)")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("replay", help="re-execute a recorded trace")
    p.add_argument("trace")
    p.add_argument("--method", default=None, help="override the trace's engine")
    p.add_argument("--options", default=None, help="JSON engine options override")
    p.add_argument("--check", action="store_true", help="verify recorded digests")
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay N times and require bit-identical runs",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("diff", help="diff one trace across engines")
    p.add_argument("trace")
    p.add_argument(
        "--methods",
        default="all",
        help=f"comma list or 'all' (= {','.join(EXACT_METHODS)})",
    )
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("fuzz", help="differential fuzzing over seeded scenarios")
    p.add_argument("--scenarios", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="first scenario seed")
    p.add_argument("--methods", default="all")
    p.add_argument("--artifacts", default="artifacts")
    p.add_argument("--shrink-budget", type=int, default=250)
    p.add_argument(
        "--metamorphic",
        action="store_true",
        help="also run metamorphic invariants on passing scenarios",
    )
    p.add_argument("--metamorphic-every", type=int, default=5)
    p.add_argument(
        "--checks",
        nargs="+",
        default=list(CHECKS),
        choices=list(CHECKS),
    )
    p.add_argument("--progress", action="store_true")
    p.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
