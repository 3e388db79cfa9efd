"""Span/Tracer API: nested wall-clock stage timing.

A :class:`Span` measures one stage of a monitoring cycle; spans nest, and
the nesting is encoded in a dotted path (``maintain.csr_snapshot``,
``answer.r0_growth``).  On exit — normal or exceptional — a span records
two counters into the tracer's registry::

    span.<path>.calls    += 1
    span.<path>.seconds  += duration

so exporters and per-cycle breakdowns read stage timings from the same
:class:`~repro.obs.registry.MetricsRegistry` as every other metric.

Two flavors exist:

* :class:`Tracer` — always measures time (two ``perf_counter`` calls per
  span).  Give it :data:`~repro.obs.registry.NULL_REGISTRY` for a tracer
  that times but records nowhere.
* :data:`NULL_TRACER` — the disabled path: ``span()`` hands back one
  shared do-nothing context manager, no clock is read at all.  An
  uninstrumented engine holds it, so its stage spans cost nothing.

Spans are the one timing channel below the cycle: the pipeline's
``load``/``maintain``/``answer`` spans and every engine stage beneath
them.

Tracers are single-threaded, like the monitoring cycle they measure.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from .registry import MetricsRegistry, NULL_REGISTRY


class Span:
    """One timed stage; use as a context manager.

    After ``__exit__`` the measured ``duration`` (seconds) and the full
    dotted ``path`` are available on the object, whether or not the body
    raised — the recording is exception-safe by construction, because
    ``__exit__`` always runs and always pops the tracer stack.
    """

    __slots__ = ("_tracer", "name", "path", "start", "duration")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.path = name
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "Span":
        self.path = self._tracer._push(self.name)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = perf_counter() - self.start
        self._tracer._finish(self)
        return False


class Tracer:
    """Factory for nested spans, recording into one metrics registry."""

    enabled = True

    def __init__(self, registry: MetricsRegistry = NULL_REGISTRY) -> None:
        self.registry = registry
        self._stack: List[str] = []
        # Span paths repeat every cycle; caching the joined paths and the
        # derived counter names keeps per-span cost to dict lookups.
        self._paths: Dict[tuple, str] = {}
        self._names: Dict[str, tuple] = {}

    def span(self, name: str) -> Span:
        """A new span named ``name``, nested under the currently open one."""
        return Span(self, name)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def _push(self, name: str) -> str:
        stack = self._stack
        parent = stack[-1] if stack else ""
        key = (parent, name)
        path = self._paths.get(key)
        if path is None:
            path = f"{parent}.{name}" if parent else name
            self._paths[key] = path
        stack.append(path)
        return path

    def _finish(self, span: Span) -> None:
        self._stack.pop()
        path = span.path
        names = self._names.get(path)
        if names is None:
            names = (f"span.{path}.calls", f"span.{path}.seconds")
            self._names[path] = names
        registry = self.registry
        registry.inc(names[0])
        registry.inc(names[1], span.duration)


class _NullSpan:
    """Shared do-nothing span returned by the null tracer."""

    __slots__ = ()
    name = ""
    path = ""
    start = 0.0
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: no clock reads, no recording, no per-span objects."""

    enabled = False
    registry = NULL_REGISTRY

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    @property
    def depth(self) -> int:
        return 0


#: Shared no-op tracer for uninstrumented systems.
NULL_TRACER = NullTracer()


def span_seconds(counters: Dict[str, float]) -> Dict[str, float]:
    """Extract ``{span path: seconds}`` from a counter mapping.

    Works on registry counter dumps and on per-cycle counter deltas alike
    (both use the ``span.<path>.seconds`` naming).
    """
    out: Dict[str, float] = {}
    for name, value in counters.items():
        if name.startswith("span.") and name.endswith(".seconds"):
            out[name[len("span."):-len(".seconds")]] = value
    return out
