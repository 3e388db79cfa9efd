"""Result containers and rendering (text / markdown / CSV) for experiments."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """One figure's reproduction: a table of measured series.

    ``columns`` names the table columns; ``rows`` holds one entry per
    sweep point.  ``expectation`` states the paper's qualitative claim and
    ``findings`` records what the measurement showed (filled by the
    experiment function so the CLI and EXPERIMENTS.md agree).
    """

    figure: str
    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    expectation: str = ""
    findings: List[str] = field(default_factory=list)
    # Per-stage timing breakdowns keyed by engine label, each mapping a
    # span path to mean seconds per cycle (e.g. the fast CSR engine's
    # maintain.csr_snapshot and answer.radii/gather/select spans).
    stage_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Mean per-cycle observability counters keyed by engine label (filled
    # by experiments run with instrument=True; empty otherwise).
    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Render as an aligned plain-text table with the narrative."""
        lines = [f"== {self.figure}: {self.title} =="]
        if self.expectation:
            lines.append(f"paper: {self.expectation}")
        lines.append("")
        lines.append(format_table(self.columns, self.rows))
        if self.stage_breakdown:
            lines.append("")
            lines.append(self.render_stage_breakdown())
        if self.counters:
            lines.append("")
            lines.append(self.render_counters())
        if self.findings:
            lines.append("")
            for finding in self.findings:
                lines.append(f"measured: {finding}")
        return "\n".join(lines)

    def render_counters(self) -> str:
        """Mean per-cycle counters per engine as ``engine counter mean`` rows."""
        rows = [
            [label, name, value]
            for label, counters in self.counters.items()
            for name, value in sorted(counters.items())
        ]
        return format_table(["engine", "counter", "mean/cycle"], rows)

    def render_stage_breakdown(self) -> str:
        """Align the per-stage timing breakdowns as a small table."""
        stages: List[str] = []
        for breakdown in self.stage_breakdown.values():
            for stage in breakdown:
                if stage not in stages:
                    stages.append(stage)
        columns = ["engine"] + [f"{s}_s" for s in stages] + ["total_s"]
        rows = [
            [label]
            + [breakdown.get(s, 0.0) for s in stages]
            + [sum(breakdown.values())]
            for label, breakdown in self.stage_breakdown.items()
        ]
        return format_table(columns, rows)

    def render_markdown(self) -> str:
        """Render as GitHub-flavored markdown (for EXPERIMENTS.md)."""
        lines = [f"### {self.figure} — {self.title}", ""]
        if self.expectation:
            lines.append(f"*Paper:* {self.expectation}")
            lines.append("")
        header = "| " + " | ".join(self.columns) + " |"
        separator = "|" + "|".join(["---"] * len(self.columns)) + "|"
        lines.append(header)
        lines.append(separator)
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        if self.stage_breakdown:
            lines.append("")
            lines.append("```")
            lines.append(self.render_stage_breakdown())
            lines.append("```")
        if self.findings:
            lines.append("")
            for finding in self.findings:
                lines.append(f"*Measured:* {finding}")
        lines.append("")
        return "\n".join(lines)


    def render_csv(self) -> str:
        """Render the rows as CSV with a leading ``figure`` column.

        Concatenating several experiments' CSV output yields one tidy
        long-format file suitable for plotting tools.
        """
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["figure"] + self.columns)
        for row in self.rows:
            writer.writerow([self.figure] + list(row))
        return out.getvalue()

    def to_records(self) -> List[Dict[str, Any]]:
        """The rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 100_000:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Align a small table for terminal output."""
    rendered = [[_fmt(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rendered
    ]
    return "\n".join([header, rule, *body])
