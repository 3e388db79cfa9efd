"""Outside-in layer trace for the session-tick benchmark.

The program has no spans of its own that cover a whole tick, so the
traced run wraps the public calls *into* each layer on the live objects
of one :class:`~repro.service.MonitoringSession` — session, world store,
monitoring system, cycle pipeline and engine — plus the module-level
``batch_knn`` kernel.  Nothing under ``src/`` changes.

Every wrapped call appends one span ``[name, start, end, parent,
cycle]`` to an in-memory list; the parent is the span open when the call
began, so the list is a forest of per-cycle trees.  A layer's self time
is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List

#: ``(object path, attribute, span name)`` of every wrapped call.  The
#: object path is resolved from the session; ``""`` is the session itself.
SESSION_CALLS = (
    ("", "tick", "service.tick"),
    ("", "update_positions", "service.update_positions"),
    ("", "join_object", "service.lifecycle"),
    ("", "leave_object", "service.lifecycle"),
    ("", "register_query", "service.lifecycle"),
    ("", "drop_query", "service.lifecycle"),
    ("store", "admit", "state.admit"),
    ("store", "publish", "state.publish"),
    ("store", "write_rows", "state.write_rows"),
    ("store", "rows_of", "state.rows_of"),
    ("system", "tick", "monitor.tick"),
    ("system.pipeline", "run_cycle", "engines.run_cycle"),
    ("engine", "apply_query_delta", "engines.apply_query_delta"),
    ("engine", "apply_object_delta", "engines.apply_object_delta"),
    ("engine", "load", "engines.load"),
    ("engine", "maintain", "engines.maintain"),
    ("engine", "answer", "engines.answer"),
)

#: Modules whose global ``batch_knn`` the grid engines call.
KERNEL_MODULES = ("repro.core.fast_index", "repro.core.delta_index")

#: Per-layer metrics of every traced run: name -> unit.
LAYER_UNITS = {
    "core.batch_knn.ms": "ms",
    "core.candidates_per_query": "count",
    "core.useful_ratio": "ratio",
    "core.ring_passes": "count",
    "core.dense_select_share": "ratio",
    "engines.maintain.ms": "ms",
    "engines.answer.self_ms": "ms",
    "engines.run_cycle.self_ms": "ms",
    "engines.apply_query_delta.ms": "ms",
    "engines.apply_object_delta.ms": "ms",
    "engines.load.calls": "count",
    "monitor.tick.self_ms": "ms",
    "service.tick.self_ms": "ms",
    "service.lifecycle.ms": "ms",
    "service.lifecycle.calls": "count",
    "service.update_positions.self_ms": "ms",
    "state.write_rows.ms": "ms",
    "state.rows_of.ms": "ms",
    "state.admit.ms": "ms",
    "state.publish.ms": "ms",
    "state.synced_rows": "count",
    "state.full_copies": "count",
    "setup.join_s": "s",
    "setup.register_s": "s",
    "setup.first_tick_s": "s",
    "trace.overhead_pct": "%",
}

#: Extra per-layer metrics of engines that report them.
METHOD_UNITS = {
    "delta_grid": {"delta.reuse_ratio": "ratio", "delta.movers": "count"},
    "sharded": {"shard.queue_wait_ms": "ms"},
}


class SpanRecorder:
    """In-memory span list fed by the wrappers :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = True
        self.cycle = -1  # set by the benchmark loop before each cycle
        self._open: List[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.cycle]
            spans.append(span)
            open_spans.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, session) -> None:
        """Wrap the layer calls of ``session`` and the ``batch_knn`` kernels.

        A call that is already wrapped is re-wrapped from its original, so
        installing twice in one process never nests two wrappers (the
        module-level kernels outlive any one session).
        """
        for path, attr, name in SESSION_CALLS:
            owner = session
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, getattr(fn, "__wrapped__", fn)))
        for module_name in KERNEL_MODULES:
            module = importlib.import_module(module_name)
            fn = module.batch_knn
            module.batch_knn = self.wrap("core.batch_knn", getattr(fn, "__wrapped__", fn))

    def write_jsonl(self, path: Path, origin: float) -> None:
        """Write one JSON object per span; times are seconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, cycle in self.spans:
                out.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "cycle": cycle,
                }) + "\n")

    def totals(self) -> "tuple[Dict[str, float], Dict[str, float], Dict[str, int]]":
        """``(total seconds, self seconds, calls)`` per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
        return total, own, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    counters: Dict[str, float],
    histograms: Dict[str, dict],
    *,
    cycles: int,
    k: int,
    method: str,
    setup: Dict[str, float],
    traced_p50: float,
    untraced_p50: float,
) -> Dict[str, float]:
    """Per-cycle layer numbers of one traced phase.

    ``counters``/``histograms`` are the registry contents accumulated over
    exactly the traced cycles; ``setup`` holds the set-up stage medians.
    """
    total, own, calls = recorder.totals()

    def ms(name: str) -> float:
        return 1000.0 * total.get(name, 0.0) / cycles

    def self_ms(name: str) -> float:
        return 1000.0 * own.get(name, 0.0) / cycles

    def per_cycle(value: float) -> float:
        return value / cycles

    queries = counters.get("fast.answer.queries", 0.0)
    pairs = counters.get("fast.answer.pairs", 0.0)
    dense = counters.get("fast.answer.dense_selects", 0.0)
    ragged = counters.get("fast.answer.ragged_selects", 0.0)
    out = {
        "core.batch_knn.ms": ms("core.batch_knn"),
        "core.candidates_per_query": _ratio(pairs, queries),
        "core.useful_ratio": _ratio(k * queries, pairs),
        "core.ring_passes": per_cycle(counters.get("fast.answer.ring_passes", 0.0)),
        # Share of batch_knn passes that ranked candidates in the padded
        # matrix rather than with one global sort of all pairs.
        "core.dense_select_share": _ratio(dense, dense + ragged),
        "engines.maintain.ms": ms("engines.maintain"),
        "engines.answer.self_ms": self_ms("engines.answer"),
        "engines.run_cycle.self_ms": self_ms("engines.run_cycle"),
        "engines.apply_query_delta.ms": ms("engines.apply_query_delta"),
        "engines.apply_object_delta.ms": ms("engines.apply_object_delta"),
        "engines.load.calls": per_cycle(calls.get("engines.load", 0)),
        "monitor.tick.self_ms": self_ms("monitor.tick"),
        "service.tick.self_ms": self_ms("service.tick"),
        "service.lifecycle.ms": ms("service.lifecycle"),
        "service.lifecycle.calls": per_cycle(calls.get("service.lifecycle", 0)),
        "service.update_positions.self_ms": self_ms("service.update_positions"),
        "state.write_rows.ms": ms("state.write_rows"),
        "state.rows_of.ms": ms("state.rows_of"),
        "state.admit.ms": ms("state.admit"),
        "state.publish.ms": ms("state.publish"),
        "state.synced_rows": per_cycle(counters.get("state.synced_rows", 0.0)),
        "state.full_copies": per_cycle(counters.get("state.full_copies", 0.0)),
        "setup.join_s": setup["join_s"],
        "setup.register_s": setup["register_s"],
        "setup.first_tick_s": setup["first_tick_s"],
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
    }
    if method == "delta_grid":
        reused = counters.get("delta.queries_reused", 0.0)
        reanswered = counters.get("delta.queries_reanswered", 0.0)
        out["delta.reuse_ratio"] = _ratio(reused, reused + reanswered)
        out["delta.movers"] = per_cycle(counters.get("delta.movers", 0.0))
    if method == "sharded":
        wait = histograms.get("shard.pool.queue_wait_seconds", {})
        out["shard.queue_wait_ms"] = 1000.0 * per_cycle(wait.get("sum", 0.0))
    return out


def layer_units(method: str) -> Dict[str, str]:
    """Units of every per-layer metric a traced run of ``method`` reports."""
    return {**LAYER_UNITS, **METHOD_UNITS.get(method, {})}

