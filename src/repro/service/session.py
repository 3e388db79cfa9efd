"""The streaming monitoring session: churn between cycles, cycles on demand.

:class:`MonitoringSession` wraps one
:class:`~repro.core.monitor.MonitoringSystem` and adds the lifecycle the
engine layer deliberately lacks: queries are registered and dropped, and
objects join and leave, at any point between cycles.  Lifecycle calls do
*not* touch the engine immediately — they accumulate in per-cycle
admission sets, and :meth:`MonitoringSession.tick` applies the whole
batch through the engine delta hooks
(:meth:`~repro.engines.base.BaseEngine.apply_query_delta` /
:meth:`~repro.engines.base.BaseEngine.apply_object_delta`) before
running the cycle.  Position *updates*, by contrast, stream freely —
they are the normal motion load and are never queued or capped.

**Handles vs rows.**  Engines address queries positionally (row ``i`` of
the query array) and objects by position-array row.  Both shift under
churn, so the session owns the stable names: a
:class:`QueryHandle` per registered query, and the caller's external
object id per joined object.  Internally it keeps a row-stable *object
universe* — a capacity-managed ``(cap, 2)`` array where each live object
holds a fixed row until it leaves and vacant rows carry the ``(-1, -1)``
sentinel.  Engines that support member mode
(:attr:`~repro.engines.base.BaseEngine.supports_member_idx`) index that
universe directly with the live rows as ``member_idx`` — joins and
leaves then reach their incremental structures as ordinary movers, and
the live rows being sorted makes their (distance, row-id) tie-break
order-isomorphic to a densely packed engine's (distance, dense-id) one,
which is what keeps churned answers bit-identical to a fresh rebuild.
Engines without member support get densely packed copies of the
survivors and rebuild on churned cycles.  When the vacant fraction of
the universe grows past 3/4 the session *compacts* — survivors are
repacked in row order, every row id changes, and the remap table is what
keeps reported answer IDs correct across the event (engines are told via
``ObjectDelta.compacted``).

**Backpressure.**  ``max_pending_deltas`` bounds the admission set; a
lifecycle call past the bound returns an explicit
:class:`AdmissionDeferred` (never an exception, never a silent drop) and
the caller retries after the next tick.

Every churn event is counted under the ``service.*`` namespace of the
system's metrics registry; see docs/api.md ("Sessions & churn").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from ..core.config import MethodConfig
from ..core.monitor import MonitoringSystem
from ..engines.registry import build_system
from ..errors import ConfigurationError, NotEnoughObjectsError, OutOfRegionError
from ..obs.registry import MetricsRegistry
from ..state import OBJECT_REGION, QueryDelta, WorldStore, check_object_points


@dataclass(frozen=True)
class QueryHandle:
    """Stable name of one registered query, valid until dropped."""

    id: int


@dataclass(frozen=True)
class AdmissionDeferred:
    """A lifecycle call the session could not admit this cycle.

    Returned (not raised) when the pending admission set is at
    ``max_pending_deltas``.  Nothing was recorded: the caller holds the
    only copy of the request and retries after the next :meth:`tick`
    drains the set.
    """

    action: str  #: which call was deferred (``"register_query"``, ...)
    kind: str  #: ``"query"`` or ``"object"``
    pending: int  #: admission-set size at the time of the call
    limit: int  #: the session's ``max_pending_deltas``

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.action} deferred: {self.pending} pending deltas at the "
            f"admission limit of {self.limit}; retry after the next tick"
        )


@dataclass(frozen=True)
class SessionAnswer:
    """One query's exact k-NN answer in *external* names.

    ``neighbors`` holds ``(object_id, distance)`` pairs, nearest first,
    where ``object_id`` is the id the caller passed to
    :meth:`MonitoringSession.join_object` — engine-internal rows never
    leak out of the session.
    """

    handle: QueryHandle
    timestamp: float
    neighbors: Tuple[Tuple[int, float], ...] = field(default=())


#: Query points need only be finite: the grid engines clamp queries outside
#: the square into edge cells, which only enlarges their candidate sets.
QUERY_REGION = "the plane (coordinates must be finite)"


def _as_point(point, what: str) -> Tuple[float, float]:
    arr = np.asarray(point, dtype=np.float64).reshape(-1)
    if arr.shape != (2,):
        raise ConfigurationError(f"{what} must be an (x, y) pair, got {point!r}")
    return float(arr[0]), float(arr[1])


def _object_point(point) -> Tuple[float, float]:
    x, y = _as_point(point, "object point")
    # Scalar comparisons only (NaN fails them): this runs once per join.
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise OutOfRegionError(x, y, OBJECT_REGION)
    return x, y


def _query_point(point) -> Tuple[float, float]:
    x, y = _as_point(point, "query point")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OutOfRegionError(x, y, QUERY_REGION)
    return x, y


class MonitoringSession:
    """Streaming facade over one monitoring system (see module docstring).

    Parameters
    ----------
    method:
        Registry method or benchmark preset name (anything
        :func:`~repro.engines.registry.build_system` accepts).  May be
        omitted when ``config`` is a dict carrying a ``"method"`` key or
        a typed :class:`~repro.core.config.MethodConfig`.
    k:
        Neighbors per query; fixed for the session (engines are
        single-``k``), so :meth:`register_query` validates against it.
    config:
        Typed config block or plain config dict — the same validated
        path as ``build_system``/bench presets.
    max_pending_deltas:
        Admission-set bound per cycle (``None`` = unbounded).  Lifecycle
        calls past it return :class:`AdmissionDeferred`.
    tau, registry, **options:
        Forwarded to :func:`~repro.engines.registry.build_system`.
    """

    def __init__(
        self,
        method: Optional[str] = None,
        *,
        k: int,
        config: Optional[Union[MethodConfig, Mapping[str, object]]] = None,
        tau: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
        max_pending_deltas: Optional[int] = None,
        **options: object,
    ) -> None:
        if method is None:
            if isinstance(config, MethodConfig):
                method = config.method
            elif isinstance(config, Mapping) and "method" in config:
                method = str(config["method"])
            else:
                raise ConfigurationError(
                    "pass a method name or a config carrying one"
                )
        if max_pending_deltas is not None and max_pending_deltas < 1:
            raise ConfigurationError(
                f"max_pending_deltas must be >= 1, got {max_pending_deltas}"
            )
        self.max_pending_deltas = max_pending_deltas
        self.system: MonitoringSystem = build_system(
            method,
            k,
            np.empty((0, 2), dtype=np.float64),
            config=config,
            tau=tau,
            registry=registry,
            **options,
        )
        self._member_mode = bool(self.system.engine.supports_member_idx)
        self._started = False

        # Query side: handles in engine-row order (points live in the store),
        # plus their ids for constant-time membership checks.
        self._handles: List[QueryHandle] = []
        self._handle_ids: Set[int] = set()
        self._next_handle = 0
        self._pending_register: Dict[int, Tuple[float, float]] = {}
        self._pending_drop: Dict[int, None] = {}

        # Object side: the store owns the row-stable universe, the free
        # list and the external-id remap; the session only batches the
        # admission sets between ticks.
        self._store = WorldStore(registry=self.system.registry)
        self._pending_join: Dict[int, Tuple[float, float]] = {}
        self._pending_leave: Dict[int, None] = {}

        # Optional workload recorder (repro.verify): notified of every
        # admitted lifecycle call, position update, and tick.
        self._recorder: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.system.k

    @property
    def registry(self) -> MetricsRegistry:
        return self.system.registry

    @property
    def engine(self):
        return self.system.engine

    @property
    def store(self) -> WorldStore:
        """The world-state store backing this session (read-mostly)."""
        return self._store

    @property
    def n_live_objects(self) -> int:
        """Objects admitted and not yet left (pending deltas excluded)."""
        return self._store.n_live

    @property
    def n_active_queries(self) -> int:
        """Queries admitted and not yet dropped (pending excluded)."""
        return len(self._handles)

    @property
    def pending_deltas(self) -> int:
        """Lifecycle calls waiting for the next :meth:`tick`."""
        return (
            len(self._pending_register)
            + len(self._pending_drop)
            + len(self._pending_join)
            + len(self._pending_leave)
        )

    def handles(self) -> List[QueryHandle]:
        """Active query handles in engine-row order."""
        return list(self._handles)

    def attach_recorder(self, recorder) -> None:
        """Record this session's workload (see :mod:`repro.verify`).

        ``recorder`` is duck-typed: ``on_event(dict)`` receives every
        *admitted* lifecycle call and position update in call order
        (deferred or raising calls are never recorded), ``on_tick(answers)``
        each completed cycle's answers.  Replaying the recorded stream
        against a fresh session reproduces this run bit-identically.
        Pass ``None`` to detach.
        """
        self._recorder = recorder

    def _record(self, event: dict) -> None:
        if self._recorder is not None:
            self._recorder.on_event(event)

    def query_points(self) -> np.ndarray:
        """Active query positions, row-aligned with :meth:`handles`."""
        return self._store.queries.copy()

    def population(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(object_ids, positions)`` of the live population.

        Ordered by internal row — exactly the dense order a fresh engine
        built from the survivors would see, which is what the churn
        equivalence suite compares against.
        """
        rows = self._store.live_rows()
        return self._store.ext_ids(rows).copy(), self._store.read_rows(rows)

    # ------------------------------------------------------------------
    # Lifecycle calls (batched into the next cycle's admission set)
    # ------------------------------------------------------------------
    def _admission_full(self, action: str, kind: str):
        limit = self.max_pending_deltas
        if limit is not None and self.pending_deltas >= limit:
            self.registry.inc(
                "service.admission_deferred", labels={"kind": kind}
            )
            return AdmissionDeferred(action, kind, self.pending_deltas, limit)
        return None

    def register_query(
        self, point, k: Optional[int] = None
    ) -> Union[QueryHandle, AdmissionDeferred]:
        """Queue a query registration; admitted at the next :meth:`tick`.

        Returns its stable :class:`QueryHandle` — or
        :class:`AdmissionDeferred` when the admission set is full.  The
        session is single-``k``: passing a different ``k`` than the
        session's raises :class:`~repro.errors.ConfigurationError`.  A
        query point may lie anywhere in the plane; a non-finite one
        raises :class:`~repro.errors.OutOfRegionError`.
        """
        if k is not None and int(k) != self.k:
            raise ConfigurationError(
                f"session answers k={self.k} queries; per-query k={k} is not "
                "supported — run a second session for a different k"
            )
        xy = _query_point(point)
        deferred = self._admission_full("register_query", "query")
        if deferred is not None:
            return deferred
        handle = QueryHandle(self._next_handle)
        self._next_handle += 1
        self._pending_register[handle.id] = xy
        self._record({"t": "reg", "hid": handle.id, "xy": [xy[0], xy[1]]})
        return handle

    def drop_query(self, handle: QueryHandle) -> Optional[AdmissionDeferred]:
        """Queue a query drop.  Dropping a not-yet-admitted registration
        cancels it outright (and frees its admission slot)."""
        hid = handle.id if isinstance(handle, QueryHandle) else int(handle)
        if hid in self._pending_register:
            del self._pending_register[hid]
            self._record({"t": "drop", "hid": hid})
            return None
        if hid in self._pending_drop:
            raise ConfigurationError(f"query handle {hid} is already dropping")
        if hid not in self._handle_ids:
            raise ConfigurationError(f"unknown query handle {hid}")
        deferred = self._admission_full("drop_query", "query")
        if deferred is not None:
            return deferred
        self._pending_drop[hid] = None
        self._record({"t": "drop", "hid": hid})
        return None

    def join_object(self, object_id: int, point) -> Optional[AdmissionDeferred]:
        """Queue an object join under the caller's stable ``object_id``.

        Re-joining an id whose leave is still pending cancels the leave
        and moves the object — the net effect of leave+join in one
        admission window.  Joining an id that is live (or already
        joining) is a :class:`~repro.errors.ConfigurationError`.  Object
        points must lie in the closed unit square ``[0, 1]^2``; any other
        point (NaN included) raises
        :class:`~repro.errors.OutOfRegionError` before anything is
        queued or recorded.
        """
        oid = int(object_id)
        xy = _object_point(point)
        if oid in self._pending_leave:
            del self._pending_leave[oid]
            row = self._store.row_of(oid)
            assert row is not None
            self._store.write_row(row, *xy)
            self._record({"t": "join", "oid": oid, "xy": [xy[0], xy[1]]})
            return None
        if oid in self._pending_join or self._store.contains(oid):
            raise ConfigurationError(f"object {oid} is already present")
        deferred = self._admission_full("join_object", "object")
        if deferred is not None:
            return deferred
        self._pending_join[oid] = xy
        self._record({"t": "join", "oid": oid, "xy": [xy[0], xy[1]]})
        return None

    def leave_object(self, object_id: int) -> Optional[AdmissionDeferred]:
        """Queue an object leave.  Leaving a not-yet-admitted join cancels
        it outright."""
        oid = int(object_id)
        if oid in self._pending_join:
            del self._pending_join[oid]
            self._record({"t": "leave", "oid": oid})
            return None
        if oid in self._pending_leave:
            raise ConfigurationError(f"object {oid} is already leaving")
        if not self._store.contains(oid):
            raise ConfigurationError(f"unknown object {oid}")
        deferred = self._admission_full("leave_object", "object")
        if deferred is not None:
            return deferred
        self._pending_leave[oid] = None
        self._record({"t": "leave", "oid": oid})
        return None

    # ------------------------------------------------------------------
    # Position updates (streaming, never queued or capped)
    # ------------------------------------------------------------------
    def move_object(self, object_id: int, point) -> None:
        """Update one object's position (effective at the next snapshot).

        The point is checked as in :meth:`join_object`.
        """
        oid = int(object_id)
        xy = _object_point(point)
        if oid in self._pending_join:
            self._pending_join[oid] = xy
            self._record({"t": "move", "oids": [oid], "xy": [[xy[0], xy[1]]]})
            return
        row = self._store.row_of(oid)
        if row is None:
            raise ConfigurationError(f"unknown object {oid}")
        self._store.write_row(row, *xy)
        self._record({"t": "move", "oids": [oid], "xy": [[xy[0], xy[1]]]})

    def update_positions(
        self, points: np.ndarray, object_ids: Optional[np.ndarray] = None
    ) -> None:
        """Bulk position update — the vectorized streaming motion path.

        Without ``object_ids``, ``points`` must cover the whole live
        population in :meth:`population` order.  With ``object_ids`` it
        updates exactly those objects — live or pending admission, same
        as :meth:`move_object` (a pending join's admission point is
        updated in place).  Every point must lie in the closed unit
        square ``[0, 1]^2``; otherwise :class:`~repro.errors.OutOfRegionError`
        is raised and no position changes.  An id that is unknown or
        repeated within the call raises
        :class:`~repro.errors.ConfigurationError`, also before any write.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ConfigurationError("points must be an (N, 2) array")
        check_object_points(points)
        if object_ids is None:
            n_live = self._store.n_live
            if len(points) != n_live:
                raise ConfigurationError(
                    f"expected positions for all {n_live} live objects, "
                    f"got {len(points)}"
                )
            rows = self._store.live_index()
            live_points = points
        else:
            object_ids = np.asarray(object_ids)
            if len(object_ids) != len(points):
                raise ConfigurationError("object_ids and points length mismatch")
            # Sort and compare neighbours: an order of magnitude cheaper
            # than np.unique on a few thousand ids.
            ordered = np.sort(object_ids)
            repeated = ordered[1:] == ordered[:-1]
            if repeated.any():
                raise ConfigurationError(
                    f"object {ordered[1:][repeated][0]} appears more than "
                    "once in one update"
                )
            live_ids, live_points = object_ids, points
            pending: Optional[np.ndarray] = None
            if self._pending_join:
                joining = np.isin(
                    object_ids,
                    np.fromiter(
                        self._pending_join,
                        dtype=np.int64,
                        count=len(self._pending_join),
                    ),
                )
                if joining.any():
                    pending = joining
                    live_ids = object_ids[~pending]
                    live_points = points[~pending]
            try:
                rows = self._store.rows_of(live_ids)
            except KeyError as exc:
                raise ConfigurationError(f"unknown object {exc.args[0]}") from None
            if pending is not None:
                for oid, xy in zip(object_ids[pending].tolist(), points[pending]):
                    self._pending_join[int(oid)] = (float(xy[0]), float(xy[1]))
        self._store.write_rows(rows, live_points)
        if self._recorder is not None:
            oids = (
                self._store.ext_ids(rows)
                if object_ids is None
                else np.asarray(object_ids)
            )
            self._recorder.on_event(
                {
                    "t": "move",
                    "oids": [int(o) for o in oids],
                    "xy": points.tolist(),
                }
            )

    # ------------------------------------------------------------------
    # The cycle
    # ------------------------------------------------------------------
    def tick(self) -> Dict[QueryHandle, SessionAnswer]:
        """Admit the pending deltas, run one cycle, answer by handle.

        Raises :class:`~repro.errors.NotEnoughObjectsError` — *before*
        admitting anything, so the admission set survives for a retry —
        when the post-admission population would hold fewer than ``k``
        objects.
        """
        store = self._store
        projected = (
            store.n_live + len(self._pending_join) - len(self._pending_leave)
        )
        if projected < self.k:
            raise NotEnoughObjectsError(self.k, projected)

        metrics = self.registry
        churned = self.pending_deltas > 0
        copies_before = store.full_copies
        self._admit_queries(metrics)
        self._admit_objects(metrics)

        # Publish the staging epoch and hand the engine the read-only
        # view — member engines see the whole row universe, dense ones
        # the packed survivors (zero-copy while the universe has no
        # holes).  No layer copies the position array on this path.
        snap = store.publish()
        positions = snap if self._member_mode else store.packed(snap)

        if self._started:
            raw = self.system.tick(positions)
        else:
            raw = self.system.load(positions)
            self._started = True

        metrics.inc("service.cycles")
        if churned:
            metrics.inc("service.churn_cycles")
        if metrics.enabled:
            metrics.set_gauge("service.live_objects", store.n_live)
            metrics.set_gauge("service.active_queries", len(self._handles))
            metrics.set_gauge("service.universe_rows", store.capacity)
            metrics.set_gauge("service.free_rows", store.capacity - store.n_live)
            metrics.set_gauge("service.pending_deltas", self.pending_deltas)
            metrics.set_gauge(
                "state.copies_per_cycle", float(store.full_copies - copies_before)
            )

        # One gather over the flattened neighbor ids beats per-neighbor
        # numpy scalar indexing by ~3x at NQ in the hundreds.
        if self._member_mode:
            trans = store.ext_table()
        else:
            trans = store.ext_ids(store.live_rows())
        flat = [oid for qa in raw for oid, _ in qa.neighbors]
        ext_ids = trans[flat].tolist() if flat else []
        out: Dict[QueryHandle, SessionAnswer] = {}
        pos = 0
        for row, qa in enumerate(raw):
            handle = self._handles[row]
            end = pos + len(qa.neighbors)
            neighbors = tuple(
                zip(ext_ids[pos:end], (dist for _, dist in qa.neighbors))
            )
            pos = end
            out[handle] = SessionAnswer(handle, qa.timestamp, neighbors)
        if self._recorder is not None:
            self._recorder.on_tick(out)
        return out

    def _admit_queries(self, metrics: MetricsRegistry) -> None:
        if not self._pending_register and not self._pending_drop:
            return
        drops = self._pending_drop
        kept_rows = [
            row for row, h in enumerate(self._handles) if h.id not in drops
        ]
        new_handles = [self._handles[row] for row in kept_rows]
        new_handles.extend(QueryHandle(hid) for hid in self._pending_register)
        kept = np.full(len(new_handles), -1, dtype=np.intp)
        kept[: len(kept_rows)] = kept_rows
        parts = [self._store.queries[kept_rows]]
        if self._pending_register:
            parts.append(
                np.asarray(
                    list(self._pending_register.values()), dtype=np.float64
                )
            )
        queries = np.concatenate(parts)
        delta = QueryDelta(queries=queries, kept=kept)
        self.system.engine.apply_query_delta(delta)
        metrics.inc("service.queries_registered", len(self._pending_register))
        metrics.inc("service.queries_dropped", len(drops))
        self._handles = new_handles
        self._handle_ids.difference_update(drops)
        self._handle_ids.update(self._pending_register)
        self._store.set_queries(queries)
        self._pending_register = {}
        self._pending_drop = {}

    def _admit_objects(self, metrics: MetricsRegistry) -> None:
        delta = self._store.admit(
            self._pending_join,
            self._pending_leave,
            member_mode=self._member_mode,
        )
        metrics.inc("service.objects_joined", len(delta.joined))
        metrics.inc("service.objects_left", len(delta.left))
        if delta.compacted:
            metrics.inc("service.compactions")
        self._pending_join = {}
        self._pending_leave = {}
        self.system.engine.apply_object_delta(delta)

    # ------------------------------------------------------------------
    # Resource management
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-held OS resources (idempotent)."""
        self.system.close()

    def __enter__(self) -> "MonitoringSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
