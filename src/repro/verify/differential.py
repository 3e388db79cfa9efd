"""Differential execution: one workload, many engines, exact answer diffs.

The repo's strongest correctness claim is that every registered exact
method returns *the same bits* — same neighbor ids in the same order,
same float64 distances — for any workload.  This module operationalizes
that claim: :func:`run_workload` replays a recorded
:class:`~repro.verify.trace.Workload` against one engine and collects
its canonical per-cycle answers; :func:`run_differential` runs the same
workload across a set of :class:`MethodSpec` entries (including
``sharded`` with live worker processes) and reports the **first
divergence** — cycle, query, both answer lists, and each engine's
per-cycle candidate/scan counters for that cycle.

Comparison is ``(distance, id)``-tuple exact.  Distances are float64
and every engine computes ``(qx-x)**2 + (qy-y)**2`` with the same IEEE
operations, so equality is bitwise — there is no epsilon anywhere in
this module, by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..service import MonitoringSession
from .trace import CanonCycle, Workload, canonical_cycle, digest_cycle

#: Methods whose answers are exact and therefore diffable bit-for-bit.
#: ``tpr`` is deliberately absent: the TPR-tree answers *predicted*
#: positions, which is a different (approximate) contract.
EXACT_METHODS: Tuple[str, ...] = (
    "brute_force",
    "object_indexing",
    "query_indexing",
    "hierarchical",
    "rtree",
    "fast_grid",
    "sharded",
)

#: Counter-name substrings worth surfacing next to a divergence.
_CANDIDATE_KEYS = ("candidate", "scanned", "visited")


@dataclass(frozen=True)
class MethodSpec:
    """One engine under test: registry method name plus options."""

    method: str
    options: Mapping[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        if not self.options:
            return self.method
        opts = ",".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        return f"{self.method}({opts})"


def make_specs(
    methods: Sequence[str],
    *,
    overrides: Optional[Mapping[str, object]] = None,
    sharded_workers: int = 0,
) -> List[MethodSpec]:
    """Build specs for method names, applying per-method-valid overrides.

    ``"all"`` expands to :data:`EXACT_METHODS`.  ``overrides`` (e.g. an
    ``ncells`` sweep value) are applied only to methods whose config
    declares the field; ``sharded_workers`` configures the sharded spec
    (0 = in-process serial fallback — same stripe code path, no pool).
    """
    from ..core.config import METHOD_CONFIGS

    names: List[str] = []
    for name in methods:
        if name == "all":
            names.extend(EXACT_METHODS)
        else:
            names.append(name)
    specs = []
    for name in dict.fromkeys(names):  # preserve order, dedupe
        opts: Dict[str, object] = {}
        cfg = METHOD_CONFIGS.get(name)
        valid = cfg.valid_fields() if cfg is not None else ()
        for key, value in (overrides or {}).items():
            if key in valid:
                opts[key] = value
        if name == "sharded":
            opts.setdefault("workers", sharded_workers)
            opts.setdefault("shards", 2)
            if sharded_workers > 0:
                opts.setdefault("oversubscribe", True)
        specs.append(MethodSpec(name, opts))
    return specs


@dataclass
class RunResult:
    """One engine's full run over a workload."""

    spec: MethodSpec
    answers: List[CanonCycle] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Per-cycle metric deltas (from the engine's own registry).
    cycle_counters: List[Optional[Mapping[str, float]]] = field(
        default_factory=list
    )
    #: Per-cycle ``(object_ids, positions, query_points)`` snapshots,
    #: collected only when requested (metamorphic containment needs them).
    populations: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_workload(
    spec: MethodSpec,
    workload: Workload,
    *,
    registry: Optional[MetricsRegistry] = None,
    collect_populations: bool = False,
    recorder=None,
) -> RunResult:
    """Replay one workload against one engine, collecting exact answers.

    Trace hids are remapped to the fresh session's handles, so traces
    stay replayable after the shrinker removes queries.  A
    :class:`~repro.errors.ReproError` raised mid-run (e.g. the population
    dropping under ``k``) is captured on the result, not propagated —
    the fuzzer and shrinker treat such runs as invalid, not divergent.
    """
    verify = registry if registry is not None else NULL_REGISTRY
    result = RunResult(spec)
    engine_metrics = MetricsRegistry()
    session = MonitoringSession(
        spec.method, k=workload.k, registry=engine_metrics, **dict(spec.options)
    )
    if recorder is not None:
        session.attach_recorder(recorder)
    handle_of: Dict[int, object] = {}  # trace hid -> live QueryHandle
    hid_of: Dict[int, int] = {}  # session handle id -> trace hid
    try:
        with session:
            for events in workload.cycles:
                for ev in events:
                    kind = ev["t"]
                    if kind == "join":
                        session.join_object(ev["oid"], ev["xy"])
                    elif kind == "leave":
                        session.leave_object(ev["oid"])
                    elif kind == "reg":
                        handle = session.register_query(ev["xy"])
                        handle_of[ev["hid"]] = handle
                        hid_of[handle.id] = ev["hid"]
                    elif kind == "drop":
                        session.drop_query(handle_of.pop(ev["hid"]))
                    elif kind == "move":
                        session.update_positions(
                            np.asarray(ev["xy"], dtype=np.float64),
                            object_ids=np.asarray(ev["oids"]),
                        )
                    else:  # pragma: no cover - load_trace already rejects
                        raise ValueError(f"unknown event type {kind!r}")
                answers = session.tick()
                canon = canonical_cycle(answers, hid_of)
                result.answers.append(canon)
                result.digests.append(digest_cycle(canon))
                record = session.system.pipeline.last_record
                result.cycle_counters.append(record.counters)
                if collect_populations:
                    ids, pos = session.population()
                    result.populations.append(
                        (ids, pos, session.query_points())
                    )
                verify.inc("verify.replay.cycles")
    except ReproError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    verify.inc("verify.replay.runs")
    return result


@dataclass(frozen=True)
class Divergence:
    """The first cycle/query where an engine's answers left the baseline."""

    baseline: str
    method: str
    cycle: int
    hid: Optional[int]  #: diverging query (None: cycle-level shape mismatch)
    expected: object
    got: object
    #: candidate/scan counter deltas for the divergent cycle, per engine.
    baseline_counters: Mapping[str, float] = field(default_factory=dict)
    method_counters: Mapping[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"{self.method} diverged from {self.baseline} at cycle "
            f"{self.cycle}"
            + (f", query hid={self.hid}" if self.hid is not None else ""),
            f"  {self.baseline}: {self.expected}",
            f"  {self.method}: {self.got}",
        ]
        for name, counters in (
            (self.baseline, self.baseline_counters),
            (self.method, self.method_counters),
        ):
            if counters:
                stats = ", ".join(
                    f"{k}={v:g}" for k, v in sorted(counters.items())
                )
                lines.append(f"  {name} cycle counters: {stats}")
        return "\n".join(lines)


@dataclass
class DiffReport:
    """Result of one differential run across a set of methods."""

    workload: Workload
    results: List[RunResult]
    divergences: List[Divergence] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.errors

    @property
    def first_divergence(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None


def _candidate_counters(
    counters: Optional[Mapping[str, float]]
) -> Dict[str, float]:
    if not counters:
        return {}
    return {
        k: v
        for k, v in counters.items()
        if any(sub in k for sub in _CANDIDATE_KEYS) and not k.startswith("span.")
    }


def _first_divergence(
    base: RunResult, other: RunResult
) -> Optional[Divergence]:
    for cycle, (want, got) in enumerate(zip(base.answers, other.answers)):
        if want == got:
            continue
        hid: Optional[int] = None
        expected: object = want
        actual: object = got
        want_by_hid = dict(want)
        got_by_hid = dict(got)
        if set(want_by_hid) == set(got_by_hid):
            for h in sorted(want_by_hid):
                if want_by_hid[h] != got_by_hid[h]:
                    hid = h
                    expected = want_by_hid[h]
                    actual = got_by_hid[h]
                    break
        return Divergence(
            base.spec.label,
            other.spec.label,
            cycle,
            hid,
            expected,
            actual,
            _candidate_counters(base.cycle_counters[cycle]),
            _candidate_counters(other.cycle_counters[cycle]),
        )
    if len(base.answers) != len(other.answers):
        return Divergence(
            base.spec.label,
            other.spec.label,
            min(len(base.answers), len(other.answers)),
            None,
            f"{len(base.answers)} cycles",
            f"{len(other.answers)} cycles",
        )
    return None


def run_differential(
    workload: Workload,
    specs: Sequence[MethodSpec],
    *,
    registry: Optional[MetricsRegistry] = None,
    stop_at_first: bool = False,
) -> DiffReport:
    """Run ``workload`` across ``specs`` and diff everyone against the first.

    The first spec is the baseline (conventionally ``brute_force``).
    Answers are compared cycle-by-cycle with ``(distance, id)``-tuple
    exactness; the report carries one :class:`Divergence` per deviating
    method (each pinned to its first bad cycle/query).
    """
    verify = registry if registry is not None else NULL_REGISTRY
    if len(specs) < 2:
        raise ValueError("differential run needs at least two method specs")
    base = run_workload(specs[0], workload, registry=verify)
    report = DiffReport(workload, [base])
    if not base.ok:
        report.errors.append(f"{base.spec.label}: {base.error}")
        return report
    for spec in specs[1:]:
        other = run_workload(spec, workload, registry=verify)
        report.results.append(other)
        if not other.ok:
            report.errors.append(f"{other.spec.label}: {other.error}")
            continue
        verify.inc("verify.diff.cycles_compared", len(base.answers))
        verify.inc(
            "verify.diff.queries_compared",
            sum(len(c) for c in base.answers),
        )
        div = _first_divergence(base, other)
        if div is not None:
            report.divergences.append(div)
            verify.inc("verify.diff.divergences")
            if stop_at_first:
                break
    verify.inc("verify.diff.runs")
    return report


# ----------------------------------------------------------------------
# Replay (single-engine re-execution with digest checking)
# ----------------------------------------------------------------------
@dataclass
class ReplayResult:
    """One replay of a trace, with digest verification when requested."""

    run: RunResult
    checked: bool = False
    mismatches: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.run.ok and not self.mismatches


def replay(
    workload: Workload,
    *,
    method: Optional[str] = None,
    options: Optional[Mapping[str, object]] = None,
    check: bool = False,
    registry: Optional[MetricsRegistry] = None,
) -> ReplayResult:
    """Re-execute a recorded workload; optionally verify stored digests.

    Without overrides the trace header's engine config is used, which is
    the bit-identical reproduction path: same method, same options, same
    event stream → same answers and the same per-cycle digests, across
    any number of invocations.
    """
    verify = registry if registry is not None else NULL_REGISTRY
    spec = MethodSpec(
        method if method is not None else (workload.method or "brute_force"),
        dict(options if options is not None else workload.options),
    )
    run = run_workload(spec, workload, registry=verify)
    result = ReplayResult(run)
    if check:
        if workload.digests is None:
            raise ValueError("trace carries no digests to check against")
        result.checked = True
        for cycle, (want, got) in enumerate(zip(workload.digests, run.digests)):
            if want is not None and want != got:
                result.mismatches.append(cycle)
                verify.inc("verify.replay.digest_mismatches")
    return result
