"""CLI: instrumented runs and a live metrics endpoint.

Two entry points share the module::

    # instrumented monitoring run: cycle report + optional exports
    PYTHONPATH=src python -m repro.obs --method object_overhaul --cycles 5
    PYTHONPATH=src python -m repro.obs --validate

    # live Prometheus endpoint (+ optional terminal dashboard)
    PYTHONPATH=src python -m repro.obs serve --port 9109 --watch

Changes in speed across commits are the session-tick benchmark's job
(``benchmarks/tick/bench.py compare``).
"""

from __future__ import annotations

import argparse
import sys


def _build(args, registry):
    """A monitoring system for the CLI flags (sharded flags only apply there)."""
    import numpy as np

    from ..engines.registry import build_system

    rng = np.random.default_rng(args.seed)
    queries = rng.random((args.n_queries, 2))
    config = {}
    if args.method == "sharded":
        config = {
            "workers": args.workers,
            "oversubscribe": True,
        }
        if args.shards is not None:
            config["shards"] = args.shards
    system = build_system(args.method, args.k, queries, registry=registry, **config)
    return system, rng


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="object_overhaul",
                        help="bench method name (see repro.bench.runner)")
    parser.add_argument("--np", dest="n_objects", type=int, default=2000)
    parser.add_argument("--nq", dest="n_queries", type=int, default=32)
    parser.add_argument("-k", type=int, default=8)
    parser.add_argument("--cycles", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (sharded method only)")
    parser.add_argument("--shards", type=int, default=None,
                        help="stripe count (sharded method only)")


def _serve(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs serve",
        description="Run a monitoring loop and expose live Prometheus text "
                    "over HTTP.",
    )
    _add_run_flags(parser)
    parser.set_defaults(method="sharded")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9109,
                        help="HTTP port (0 picks an ephemeral one)")
    parser.add_argument("--interval", type=float, default=0.0,
                        help="seconds to sleep between cycles")
    parser.add_argument("--watch", action="store_true",
                        help="print a one-line cycle dashboard to the terminal")
    args = parser.parse_args(argv)

    import time

    from .registry import MetricsRegistry
    from .remote import start_metrics_server

    registry = MetricsRegistry()
    system, rng = _build(args, registry)
    server, _ = start_metrics_server(registry, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving metrics at http://{host}:{port}/metrics "
          f"({args.method}, NP={args.n_objects}, NQ={args.n_queries}, "
          f"k={args.k}; {args.cycles or 'unlimited'} cycles)")
    positions = rng.random((args.n_objects, 2))
    try:
        system.load(positions)
        server.publish()
        cycle = 0
        while args.cycles == 0 or cycle < args.cycles:
            cycle += 1
            positions = positions + rng.normal(0.0, 0.01, positions.shape)
            positions = positions.clip(0.0, 1.0)
            system.tick(positions)
            server.publish()
            if args.watch:
                stats = system.last_stats
                gauges = registry.gauge_values()
                extras = "".join(
                    f"  {key}={gauges[key]:g}"
                    for key in ("shard.last_rounds", "shard.imbalance_ratio",
                                "shard.pool.respawns")
                    if key in gauges
                )
                print(f"cycle {cycle:4d}  index {stats.index_time:.4f}s  "
                      f"answer {stats.answer_time:.4f}s{extras}")
            if args.interval > 0:
                time.sleep(args.interval)
    except KeyboardInterrupt:
        print("\ninterrupted")
    finally:
        server.shutdown()
        system.close()
    return 0


def _run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Instrumented monitoring run: cycle report + optional exports.",
    )
    _add_run_flags(parser)
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write the per-cycle event log here")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="write a Prometheus text dump here")
    parser.add_argument("--validate", action="store_true",
                        help="also run the soundness checks: overhaul "
                             "cost-model counters and sharded merged-worker "
                             "telemetry")
    args = parser.parse_args(argv)

    import numpy as np

    from .export import cycle_report, prometheus_text, write_history_jsonl
    from .registry import MetricsRegistry
    from .validate import run_sharded_validation, run_validation

    rng = np.random.default_rng(args.seed)
    registry = MetricsRegistry()
    system, _ = _build(args, registry)
    system.load(rng.random((args.n_objects, 2)))
    for _ in range(args.cycles):
        system.tick(rng.random((args.n_objects, 2)))

    print(cycle_report(system))
    if args.jsonl:
        lines = write_history_jsonl(system, args.jsonl)
        print(f"\nwrote {lines} cycle records to {args.jsonl}")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(registry))
        print(f"wrote Prometheus dump to {args.prometheus}")
    system.close()
    if args.validate:
        failed = False
        for report in (
            run_validation(
                n_objects=args.n_objects,
                n_queries=args.n_queries,
                k=args.k,
                seed=args.seed,
            ),
            run_sharded_validation(
                n_objects=min(args.n_objects, 800),
                n_queries=args.n_queries,
                k=args.k,
                seed=args.seed,
                workers=max(1, args.workers),
            ),
        ):
            print()
            print(report.render())
            failed = failed or not report.ok
        if failed:
            return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
