"""Unified instrumentation layer: metrics, spans, exporters, validation.

Everything an engine or benchmark measures flows into one
:class:`MetricsRegistry`: algorithmic counters (cells visited, objects
scanned, fallbacks), per-cycle stage timings recorded by :class:`Tracer`
spans, and gauges.  Exporters turn the registry (or an instrumented cycle
history) into a JSONL event log, a Prometheus text dump, or a human cycle
report; :mod:`repro.obs.validate` compares counted work against the
paper's analytical cost model.

Instrumentation is opt-in: systems built without a registry run on the
shared no-op :data:`NULL_REGISTRY` / :data:`NULL_TRACER` pair, whose cost
is one no-op method call per emission site.

Only standard-library modules are imported here (``repro.core`` imports
``repro.obs``, never the reverse at module level).
"""

from .counters import CounterBlock
from .export import (
    cycle_report,
    history_records,
    mean_cycle_counters,
    parse_prometheus_text,
    prometheus_text,
    read_history_jsonl,
    write_history_jsonl,
)
from .remote import MetricsServer, start_metrics_server
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    label_key,
    split_labels,
)
from .tracing import NullTracer, NULL_TRACER, Span, Tracer, span_seconds
from .validate import (
    QuantityCheck,
    ValidationReport,
    predict_overhaul_counters,
    run_validation,
    validate_object_indexing,
)

__all__ = [
    "CounterBlock",
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NullRegistry",
    "NULL_REGISTRY",
    "NullTracer",
    "NULL_TRACER",
    "QuantityCheck",
    "Span",
    "Tracer",
    "ValidationReport",
    "cycle_report",
    "history_records",
    "label_key",
    "mean_cycle_counters",
    "parse_prometheus_text",
    "predict_overhaul_counters",
    "prometheus_text",
    "start_metrics_server",
    "read_history_jsonl",
    "run_validation",
    "span_seconds",
    "split_labels",
    "validate_object_indexing",
    "write_history_jsonl",
]
