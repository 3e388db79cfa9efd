"""Workload traces: the recorded, replayable form of a monitoring run.

A *workload* is the session-level event stream of one monitoring run —
object joins/leaves, query registrations/drops, and position updates —
grouped into cycles, where each cycle's event batch is applied through
the :class:`~repro.service.MonitoringSession` API and then ``tick()``
runs.  Because every event is recorded at the session API boundary (see
:mod:`repro.verify.recorder`), replaying the stream against a fresh
session reproduces the original run *bit-identically*: the session's
admission sets, free lists, and handle counters are all deterministic
functions of the call sequence.

Two interchangeable on-disk forms:

``.jsonl`` / ``.jsonl.gz``
    One JSON object per line — a header line followed by event lines.
    Python's ``json`` serializes floats via ``repr`` (shortest
    round-trip), so float64 coordinates and distances survive exactly.
``.npz``
    The same event stream with every bulk-move coordinate block hoisted
    into one binary float64 array (``move_xy``) referenced by
    ``(offset, count)`` — compact for motion-heavy traces, still exact.

Event records (plain dicts; ``"t"`` is the discriminator)::

    {"t": "header", "version": 1, "k": 3, "method": ..., "options": {},
     "meta": {...}}
    {"t": "join",  "oid": 7, "xy": [x, y]}
    {"t": "leave", "oid": 7}
    {"t": "reg",   "hid": 2, "xy": [x, y]}
    {"t": "drop",  "hid": 2}
    {"t": "move",  "oids": [...], "xy": [[x, y], ...]}
    {"t": "tick",  "cycle": 4, "digest": "..."}   # digest optional

``hid`` is the handle id the *recording* session returned.  The replayer
maps trace hids to its own live handles, so a trace remains valid after
the shrinker deletes queries (see :mod:`repro.verify.shrink`).
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

TRACE_VERSION = 1

#: One query's exact answer in canonical form: ``(hid, ((oid, dist), ...))``.
CanonAnswer = Tuple[int, Tuple[Tuple[int, float], ...]]
#: One cycle's answers: per-query canonical answers sorted by hid.
CanonCycle = Tuple[CanonAnswer, ...]

EVENT_TYPES = ("join", "leave", "reg", "drop", "move")


@dataclass
class Workload:
    """One replayable monitoring run: per-cycle event batches plus config.

    ``cycles[i]`` holds the events admitted before tick ``i``.  ``digests``
    (when present) is the per-cycle canonical-answer digest of the run the
    trace was recorded from — ``replay(..., check=True)`` re-derives and
    compares them.
    """

    k: int
    cycles: List[List[dict]] = field(default_factory=list)
    method: Optional[str] = None
    options: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    digests: Optional[List[Optional[str]]] = None

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_events(self) -> int:
        return sum(len(c) for c in self.cycles)

    def copy(self) -> "Workload":
        return replace(
            self,
            cycles=[list(c) for c in self.cycles],
            options=dict(self.options),
            meta=dict(self.meta),
            digests=list(self.digests) if self.digests is not None else None,
        )


# ----------------------------------------------------------------------
# Canonical answers and digests
# ----------------------------------------------------------------------
def canonical_cycle(
    answers: Mapping, hid_of: Optional[Mapping[int, int]] = None
) -> CanonCycle:
    """Canonicalize one tick's ``{QueryHandle: SessionAnswer}`` output.

    ``hid_of`` maps the session's handle ids back to trace hids (the
    replayer's remap); the recorder passes ``None`` because its session
    handle ids *are* the trace hids.  Distances stay exact float64 — the
    canonical form compares with ``==`` bit-for-bit.
    """
    rows = []
    for handle, ans in answers.items():
        hid = handle.id if hid_of is None else hid_of[handle.id]
        rows.append((hid, tuple((int(o), float(d)) for o, d in ans.neighbors)))
    rows.sort(key=lambda r: r[0])
    return tuple(rows)


def digest_cycle(canon: CanonCycle) -> str:
    """Stable digest of one cycle's canonical answers.

    Distances are hashed via ``float.hex()`` so the digest is a pure
    function of the float64 bits, immune to repr conventions.
    """
    h = hashlib.sha256()
    for hid, neighbors in canon:
        h.update(str(hid).encode())
        for oid, dist in neighbors:
            h.update(f":{oid}/{float(dist).hex()}".encode())
        h.update(b";")
    return h.hexdigest()[:32]


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _header(workload: Workload) -> dict:
    return {
        "t": "header",
        "version": TRACE_VERSION,
        "k": workload.k,
        "method": workload.method,
        "options": dict(workload.options),
        "meta": dict(workload.meta),
    }


def _event_stream(workload: Workload) -> List[dict]:
    out: List[dict] = []
    digests = workload.digests
    for cycle, events in enumerate(workload.cycles):
        out.extend(events)
        tick: dict = {"t": "tick", "cycle": cycle}
        if digests is not None and cycle < len(digests) and digests[cycle]:
            tick["digest"] = digests[cycle]
        out.append(tick)
    return out


def _from_stream(header: dict, events: Sequence[dict]) -> Workload:
    if header.get("t") != "header":
        raise ConfigurationError("trace must start with a header record")
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ConfigurationError(
            f"unsupported trace version {version!r} (this build reads "
            f"version {TRACE_VERSION})"
        )
    workload = Workload(
        k=int(header["k"]),
        method=header.get("method"),
        options=dict(header.get("options") or {}),
        meta=dict(header.get("meta") or {}),
    )
    digests: List[Optional[str]] = []
    current: List[dict] = []
    for ev in events:
        kind = ev.get("t")
        if kind == "tick":
            workload.cycles.append(current)
            digests.append(ev.get("digest"))
            current = []
        elif kind in EVENT_TYPES:
            current.append(ev)
        else:
            raise ConfigurationError(f"unknown trace event type {kind!r}")
    if current:
        raise ConfigurationError(
            f"trace ends with {len(current)} events after the last tick"
        )
    if any(d is not None for d in digests):
        workload.digests = digests
    return workload


def save_trace(workload: Workload, path: str) -> None:
    """Write a workload to ``path`` (format chosen by extension)."""
    if path.endswith(".npz"):
        _save_npz(workload, path)
        return
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:  # type: ignore[operator]
        fh.write(json.dumps(_header(workload)) + "\n")
        for ev in _event_stream(workload):
            fh.write(json.dumps(ev) + "\n")


def load_trace(path: str) -> Workload:
    """Read a workload written by :func:`save_trace`."""
    if path.endswith(".npz"):
        return _load_npz(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:  # type: ignore[operator]
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        raise ConfigurationError(f"empty trace file {path!r}")
    return _from_stream(lines[0], lines[1:])


def _save_npz(workload: Workload, path: str) -> None:
    blocks: List[np.ndarray] = []
    offset = 0
    events = []
    for ev in _event_stream(workload):
        if ev.get("t") == "move":
            xy = np.asarray(ev["xy"], dtype=np.float64)
            blocks.append(xy)
            events.append(
                {"t": "move", "oids": list(ev["oids"]), "xyref": [offset, len(xy)]}
            )
            offset += len(xy)
        else:
            events.append(ev)
    move_xy = (
        np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.float64)
    )
    np.savez_compressed(
        path,
        header=np.frombuffer(
            json.dumps(_header(workload)).encode("utf-8"), dtype=np.uint8
        ),
        events=np.frombuffer(json.dumps(events).encode("utf-8"), dtype=np.uint8),
        move_xy=move_xy,
    )


def _load_npz(path: str) -> Workload:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        events = json.loads(bytes(data["events"]).decode("utf-8"))
        move_xy = np.asarray(data["move_xy"], dtype=np.float64)
    resolved = []
    for ev in events:
        if ev.get("t") == "move":
            off, count = ev["xyref"]
            resolved.append(
                {
                    "t": "move",
                    "oids": ev["oids"],
                    "xy": move_xy[off : off + count].tolist(),
                }
            )
        else:
            resolved.append(ev)
    return _from_stream(header, resolved)


# ----------------------------------------------------------------------
# Static validity (used by the shrinker before spending a run)
# ----------------------------------------------------------------------
def workload_valid(workload: Workload) -> bool:
    """Whether the event stream can replay without admission errors.

    Mirrors the session's cancel semantics (join-of-pending-leave,
    leave-of-pending-join, drop-of-pending-register), rejects a move event
    that names an object twice, and requires the post-admission
    population to stay at or above ``k`` on every tick — exactly the
    checks the session enforces.
    """
    live: set = set()
    queries: set = set()
    for events in workload.cycles:
        pending_join: set = set()
        pending_leave: set = set()
        pending_reg: set = set()
        pending_drop: set = set()
        for ev in events:
            kind = ev["t"]
            if kind == "join":
                oid = ev["oid"]
                if oid in pending_leave:
                    pending_leave.discard(oid)
                elif oid in live or oid in pending_join:
                    return False
                else:
                    pending_join.add(oid)
            elif kind == "leave":
                oid = ev["oid"]
                if oid in pending_join:
                    pending_join.discard(oid)
                elif oid in pending_leave or oid not in live:
                    return False
                else:
                    pending_leave.add(oid)
            elif kind == "reg":
                pending_reg.add(ev["hid"])
            elif kind == "drop":
                hid = ev["hid"]
                if hid in pending_reg:
                    pending_reg.discard(hid)
                elif hid in pending_drop or hid not in queries:
                    return False
                else:
                    pending_drop.add(hid)
            elif kind == "move":
                oids = ev["oids"]
                if len(set(oids)) != len(oids):
                    return False
                for oid in oids:
                    if oid not in live and oid not in pending_join:
                        return False
        if len(live) + len(pending_join) - len(pending_leave) < workload.k:
            return False
        live = (live | pending_join) - pending_leave
        queries = (queries | pending_reg) - pending_drop
    return True
