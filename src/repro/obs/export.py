"""Exporters: JSONL event log, Prometheus text dump, human cycle report.

Three views of the same instrumentation data:

* :func:`write_history_jsonl` — one JSON object per monitoring cycle
  (timestamp, timing split, per-cycle counter deltas), the machine-
  readable event log CI uploads as an artifact.
* :func:`prometheus_text` — a point-in-time dump of a
  :class:`~repro.obs.registry.MetricsRegistry` in the Prometheus text
  exposition format (counters as ``*_total``, gauges, cumulative-bucket
  histograms), for scraping or diffing.
* :func:`cycle_report` — an aligned plain-text report of where cycle
  time went (the paper's Fig. 11(b) split, extended with the engine's
  sub-stages) plus the per-cycle counter means.
"""

from __future__ import annotations

import json
import os
import re
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence, Union

from .registry import MetricsRegistry, split_labels
from .tracing import span_seconds

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def history_records(history: Sequence[Any]) -> List[Dict[str, Any]]:
    """Per-cycle JSON-ready records from a list of ``CycleTiming``."""
    records = []
    for cycle, stats in enumerate(history):
        record: Dict[str, Any] = {
            "cycle": cycle,
            "timestamp": stats.timestamp,
            "index_time": stats.index_time,
            "answer_time": stats.answer_time,
            "total_time": stats.total_time,
        }
        counters = getattr(stats, "counters", None)
        if counters is not None:
            record["counters"] = dict(counters)
        records.append(record)
    return records


def write_history_jsonl(
    system_or_history: Any, path_or_file: Union[str, IO[str]]
) -> int:
    """Write one JSON line per monitoring cycle; returns the line count.

    Accepts a :class:`~repro.core.monitor.MonitoringSystem` (its
    ``history`` is used) or a plain list of ``CycleTiming``.
    """
    history = getattr(system_or_history, "history", system_or_history)
    records = history_records(history)
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    else:
        for record in records:
            path_or_file.write(json.dumps(record) + "\n")
    return len(records)


def read_history_jsonl(path_or_file: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Read a JSONL event log back into a list of per-cycle records."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = path_or_file.readlines()
    return [json.loads(line) for line in lines if line.strip()]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    return _NAME_RE.sub("_", f"{prefix}_{name}".replace(".", "_"))


def _prom_labels(labels: Mapping[str, str]) -> str:
    """A rendered Prometheus label set (empty string when unlabeled)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_RE.sub("_", k)}="{str(v).translate(_LABEL_ESCAPES)}"'
        for k, v in sorted(labels.items())
    )
    return f"{{{inner}}}"


def _prom_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Dump a registry in the Prometheus text exposition format.

    Labeled series (keys produced by
    :func:`~repro.obs.registry.label_key`) are rendered as native
    Prometheus label sets —
    ``repro_service_admission_deferred_total{kind="object"}`` — with one
    HELP/TYPE header per metric name, labeled series grouped beneath it.
    """
    lines: List[str] = []

    def emit(kind: str, keys, suffix: str, value_of) -> None:
        seen_header = None
        for key in sorted(keys):
            name, labels = split_labels(key)
            metric = _prom_name(name, prefix) + suffix
            if metric != seen_header:
                lines.append(f"# HELP {metric} registry {kind} {name}")
                lines.append(f"# TYPE {metric} {kind}")
                seen_header = metric
            lines.append(f"{metric}{_prom_labels(labels)} {value_of(key)}")

    emit(
        "counter",
        registry.counter_values(),
        "_total",
        lambda key: _prom_value(registry.counter(key)),
    )
    emit(
        "gauge",
        registry.gauge_values(),
        "",
        lambda key: _prom_value(registry.gauge(key)),
    )
    seen_header = None
    for key in sorted(registry.snapshot()["histograms"]):  # type: ignore[arg-type]
        histogram = registry.histogram(key)
        assert histogram is not None
        name, labels = split_labels(key)
        metric = _prom_name(name, prefix)
        if metric != seen_header:
            lines.append(f"# HELP {metric} registry histogram {name}")
            lines.append(f"# TYPE {metric} histogram")
            seen_header = metric
        for bound, cumulative in histogram.cumulative():
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            bucket_labels = _prom_labels({**labels, "le": le})
            lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
        lines.append(f"{metric}_sum{_prom_labels(labels)} {_prom_value(histogram.sum)}")
        lines.append(f"{metric}_count{_prom_labels(labels)} {histogram.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a Prometheus text dump into ``{sample_name: value}``.

    Labeled samples (including bucket ``{le="..."}`` suffixes) keep the
    rendered label set as part of the key —
    :func:`~repro.obs.registry.split_labels` takes such keys apart.
    Provided for round-trip tests and quick diffing, not as a full parser.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


# ----------------------------------------------------------------------
# Human-readable cycle report
# ----------------------------------------------------------------------
def _align(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return lines


def mean_cycle_counters(
    history: Sequence[Any], skip_first: bool = True
) -> Dict[str, float]:
    """Mean per-cycle counter deltas over an instrumented history."""
    stats = history[1:] if skip_first and len(history) > 1 else list(history)
    totals: Dict[str, float] = {}
    cycles = 0
    for entry in stats:
        counters = getattr(entry, "counters", None)
        if counters is None:
            continue
        cycles += 1
        for name, value in counters.items():
            totals[name] = totals.get(name, 0.0) + value
    if not cycles:
        return {}
    return {name: value / cycles for name, value in totals.items()}


def cycle_report(system: Any, skip_first: bool = True) -> str:
    """Aligned text report: stage timing means + counter means per cycle.

    ``system`` is any object with ``engine`` (``.name``), ``history``
    (``CycleTiming`` entries), and optionally ``registry``.  The initial
    build cycle is excluded by default, like the paper's steady-state
    measurements.
    """
    history = system.history
    stats = history[1:] if skip_first and len(history) > 1 else history
    cycles = len(stats)
    mean_index = sum(s.index_time for s in stats) / cycles
    mean_answer = sum(s.answer_time for s in stats) / cycles
    lines = [
        f"== cycle report: {system.engine.name} ==",
        f"cycles measured: {cycles} (initial build "
        f"{'excluded' if skip_first and len(history) > 1 else 'included'})",
        f"mean cycle time: {mean_index + mean_answer:.6f}s "
        f"(index {mean_index:.6f}s + answer {mean_answer:.6f}s)",
    ]
    counters = mean_cycle_counters(history, skip_first=skip_first)
    stages = span_seconds(counters)
    if stages:
        lines.append("")
        lines.append("-- mean seconds per cycle by span --")
        rows = [
            [path, f"{seconds:.6f}"]
            for path, seconds in sorted(stages.items())
        ]
        lines.extend(_align(["span", "seconds"], rows))
    plain = {
        name: value
        for name, value in counters.items()
        if not name.startswith("span.")
    }
    if plain:
        lines.append("")
        lines.append("-- mean counters per cycle --")
        rows = [
            [name, f"{value:.2f}" if value != int(value) else str(int(value))]
            for name, value in sorted(plain.items())
        ]
        lines.extend(_align(["counter", "per cycle"], rows))
    registry: Optional[MetricsRegistry] = getattr(system, "registry", None)
    if registry is not None and registry.gauge_values():
        lines.append("")
        lines.append("-- gauges (latest) --")
        rows = [
            [name, f"{value:g}"]
            for name, value in sorted(registry.gauge_values().items())
        ]
        lines.extend(_align(["gauge", "value"], rows))
    return "\n".join(lines)
