"""Command-line entry point: ``python -m repro.bench``.

Examples::

    python -m repro.bench fig11a              # reproduce one figure
    python -m repro.bench all --scale 0.5     # everything, half-size
    python -m repro.bench all --markdown out.md
    python -m repro.bench fastgrid --scale 5  # fast CSR engine vs paper
                                              # engines, with the mean
                                              # seconds of its stage spans
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .experiments import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the evaluation figures of Yu, Pu & Koudas "
        "(ICDE 2005) on the Python reimplementation.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help="figure ids to run (e.g. fig11a fig17), 'fastgrid' for the "
        "vectorized CSR engine comparison (prints its per-stage timing "
        "breakdown), or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor relative to the repository defaults "
        "(1.0 = NP 20K / NQ 1K reference; the paper used NP 100K / NQ 5K)",
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also append markdown renderings of the results to PATH",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        default=None,
        help="also append the raw result rows as CSV to PATH",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for figure, experiment in sorted(EXPERIMENTS.items()):
            doc = (experiment.__doc__ or "").strip().splitlines()[0]
            print(f"{figure:8s} {doc}")
        return 0
    figures = (
        sorted(EXPERIMENTS) if "all" in args.figures else list(args.figures)
    )
    markdown_chunks: List[str] = []
    csv_chunks: List[str] = []
    for figure in figures:
        started = time.perf_counter()
        result = run_experiment(figure, scale=args.scale)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"[{figure} completed in {elapsed:.1f}s]")
        print()
        markdown_chunks.append(result.render_markdown())
        csv_chunks.append(result.render_csv())
    if args.markdown:
        with open(args.markdown, "a", encoding="utf-8") as handle:
            handle.write("\n".join(markdown_chunks))
        print(f"markdown appended to {args.markdown}")
    if args.csv:
        with open(args.csv, "a", encoding="utf-8") as handle:
            handle.write("".join(csv_chunks))
        print(f"csv appended to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
