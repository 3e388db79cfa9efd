"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single sink for everything the instrumentation layer
measures — span timings (see :mod:`repro.obs.tracing`), algorithmic
counters (cells visited, objects scanned, ...), and per-cycle gauges.  It
is deliberately minimal: plain dictionaries of floats, no locking (one
registry per monitoring system, single-threaded like the monitoring
cycle itself).

Metrics may carry a *label set* — ``inc("service.admission_deferred",
labels={"kind": "object"})`` — which is flattened into the storage key
in the Prometheus sample syntax
(``service.admission_deferred{kind="object"}``, label keys sorted).  :func:`label_key` builds such keys and
:func:`split_labels` takes them apart; the exporter renders the label
set natively instead of mangling it into the metric name.  Unlabeled
metrics pay nothing for this — the ``labels=None`` fast path is one
``if`` per emission.

Instrumentation is *optional*.  :data:`NULL_REGISTRY` is a shared no-op
instance used whenever a monitoring system is built without a registry;
every recording method is a ``pass``, so the disabled path costs one
method call per emission site and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Mapping, Optional, Sequence, Tuple


def label_key(name: str, labels: Optional[Mapping[str, object]]) -> str:
    """Canonical storage key for ``name`` under a label set.

    ``label_key("a.b", {"kind": 2}) == 'a.b{kind="2"}'``; label keys
    are sorted so equal label sets always produce the same key.  With no
    labels the name itself is the key.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_labels(key: str) -> "tuple[str, Dict[str, str]]":
    """Inverse of :func:`label_key`: ``(name, labels)`` from a storage key.

    Keys without a label suffix return an empty label dict.  Only the
    syntax :func:`label_key` emits is understood (quoted values without
    embedded quotes) — enough for round-trips, not a general parser.
    """
    if not key.endswith("}"):
        return key, {}
    brace = key.index("{")
    name = key[:brace]
    labels: Dict[str, str] = {}
    body = key[brace + 1 : -1]
    for part in body.split(","):
        if not part:
            continue
        lk, _, lv = part.partition("=")
        labels[lk] = lv.strip('"')
    return name, labels

#: Default histogram bucket upper bounds, tuned for per-cycle wall-clock
#: seconds (100 µs .. 10 s, roughly log-spaced).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0
)


class Histogram:
    """A fixed-bucket histogram (Prometheus-style cumulative buckets).

    ``bounds`` are the inclusive upper bounds of the finite buckets; one
    implicit ``+Inf`` bucket catches everything above the last bound.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        # counts[i] = observations in (bounds[i-1], bounds[i]];
        # counts[-1] = observations above bounds[-1] (the +Inf bucket).
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(upper_bound, cumulative_count)`` pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": {f"{b:g}": c for b, c in zip(self.bounds, self.counts)},
            "overflow": self.counts[-1],
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms behind one flat namespace.

    Metric names are dotted paths (``oi.answer.cells_visited``,
    ``span.maintain.seconds``); exporters map them to their own naming
    rules (see :mod:`repro.obs.export`).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0).

        ``labels`` records into the labeled series instead (see
        :func:`label_key`).
        """
        if labels:
            name = label_key(name, labels)
        counters = self._counters
        counters[name] = counters.get(name, 0.0) + amount

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Set the gauge ``name`` (or its labeled series) to its latest value."""
        if labels:
            name = label_key(name, labels)
        self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one observation into the histogram ``name``.

        ``bounds`` applies only on first use; subsequent observations go
        into the existing histogram regardless.
        """
        if labels:
            name = label_key(name, labels)
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(bounds if bounds is not None else DEFAULT_TIME_BUCKETS)
            self._histograms[name] = histogram
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> float:
        return self._counters.get(label_key(name, labels), 0.0)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> float:
        return self._gauges.get(label_key(name, labels), 0.0)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Optional[Histogram]:
        return self._histograms.get(label_key(name, labels))

    def counter_values(self) -> Dict[str, float]:
        """A point-in-time copy of all counters."""
        return dict(self._counters)

    def gauge_values(self) -> Dict[str, float]:
        return dict(self._gauges)

    def counters_since(
        self, before: Optional[Mapping[str, float]]
    ) -> Dict[str, float]:
        """Per-counter deltas against an earlier :meth:`counter_values` copy.

        ``before=None`` means "since the beginning" (all current values).
        Only counters that changed appear in the result — this is what a
        per-cycle breakdown wants (untouched subsystems stay silent).
        """
        deltas: Dict[str, float] = {}
        get = before.get if before is not None else (lambda name, default: default)
        for name, value in self._counters.items():
            delta = value - get(name, 0.0)
            if delta != 0.0:
                deltas[name] = delta
        return deltas

    def snapshot(self) -> Dict[str, object]:
        """Full nested dump: counters, gauges, histograms (for exporters)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self._histograms.items()
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class NullRegistry(MetricsRegistry):
    """No-op registry: the disabled-instrumentation path.

    Every recording method does nothing; reads report emptiness.  One
    shared instance (:data:`NULL_REGISTRY`) serves every uninstrumented
    monitoring system, so construction costs nothing either.
    """

    enabled = False

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        pass

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        bounds: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        pass


#: Shared no-op registry for uninstrumented systems.
NULL_REGISTRY = NullRegistry()
