"""The flight recorder: a lock-cheap, bounded ring of structured events.

Post-mortem debugging of a many-task framework hinges on knowing what
each component did in the seconds *before* it died — which frames
moved, which queue transitions fired, which steals were granted —
without paying for always-on logging.  The flight recorder is that
black box: every live-plane component (dispatcher, executor, client,
IOLoop, federation shard) appends compact event tuples into a
``collections.deque(maxlen=...)`` ring.  Appends are GIL-atomic, so
the hot path takes **no lock**: one enabled-check, one tuple build,
one append.  The ring bounds memory; old events fall off the back.

On crash, SIGTERM, oracle violation, or an explicit ``POST
/debug/dump``, the ring is flushed to a versioned JSON dump that
``repro doctor`` (:mod:`repro.obs.doctor`) reconstructs timelines
from and cross-correlates across shards by task id.

Dump format (version 1, see ``docs/PROTOCOL.md``)::

    {
      "version": 1,
      "component": "dispatcher",        # who recorded
      "shard_id": "shard-0" | null,     # federation identity
      "reason": "crash" | "sigterm" | "oracle" | "manual" | ...,
      "t_wall": 1722900000.5,           # wall clock at dump
      "t_mono": 12345.6,                # monotonic clock at dump
      "wall_minus_mono": ...,           # convert event t -> wall time
      "extra": {...},                   # dumper-supplied context
      "events": [{"t": mono, "kind": ..., "subject": ..., ...attrs}]
    }

Event monotonic stamps convert to wall time via ``t +
wall_minus_mono``, which is how the doctor aligns dumps taken by
different processes on the same host.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Iterable, Optional

__all__ = [
    "FLIGHT_DUMP_VERSION",
    "FlightRecorder",
    "flight_dump_path",
    "read_flight_dump",
    "load_flight_dumps",
    # event kinds
    "FRAME_RX",
    "FRAME_TX",
    "QUEUE_ENQUEUE",
    "QUEUE_CLAIM",
    "QUEUE_REQUEUE",
    "TASK_SETTLE",
    "STEAL_REQUEST",
    "STEAL_GRANT",
    "STEAL_INGEST",
    "JOURNAL_COMMIT",
    "LOOP_ITER",
    "GOSSIP",
    "WATCHDOG",
]

#: Version stamp written into every dump; bump on schema changes.
FLIGHT_DUMP_VERSION = 1

#: Default ring capacity (events). 16k events cover the last seconds
#: to minutes of a busy component at a few MB of dump, worst case.
DEFAULT_CAPACITY = 16384

# -- event kinds -------------------------------------------------------------
# Dotted namespaces keep the doctor's filters cheap (str.startswith).
FRAME_RX = "frame.rx"          # subject: message type name
FRAME_TX = "frame.tx"          # subject: message type name
QUEUE_ENQUEUE = "queue.enq"    # subject: task id
QUEUE_CLAIM = "queue.claim"    # subject: task id
QUEUE_REQUEUE = "queue.requeue"  # subject: task id
TASK_SETTLE = "task.settle"    # subject: task id; attrs: outcome
STEAL_REQUEST = "steal.request"  # subject: peer shard id
STEAL_GRANT = "steal.grant"    # subject: peer shard id; attrs: tasks
STEAL_INGEST = "steal.ingest"  # subject: donor shard id; attrs: tasks
JOURNAL_COMMIT = "journal.commit"  # attrs: records, seconds
LOOP_ITER = "loop.iter"        # subject: loop name; attrs: lag_s
GOSSIP = "gossip"              # subject: peer shard id
WATCHDOG = "watchdog"          # subject: check name; attrs: reason


class FlightRecorder:
    """A bounded ring of ``(t_mono, kind, subject, attrs)`` tuples.

    ``record`` is the hot path and is deliberately lock-free: deque
    appends are atomic under the GIL, and a dump racing an append at
    worst misses (or double-sees) the newest event — harmless for a
    post-mortem artifact.  Hot callers pass no keyword attrs, so the
    common event costs a 4-tuple and nothing else.

    The ring stores attrs as a tuple of ``(key, value)`` pairs, not a
    dict: a tuple of scalars is untracked by the cyclic collector once
    it survives a collection, while a dict keeps its entry tracked for
    the whole life of the ring.  :meth:`snapshot` and dumps hand attrs
    back as dicts.
    """

    __slots__ = ("component", "shard_id", "enabled", "_ring")

    def __init__(
        self,
        component: str,
        shard_id: Optional[str] = None,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.component = component
        self.shard_id = shard_id
        self.enabled = enabled
        self._ring: deque = deque(maxlen=capacity)

    # -- hot path ------------------------------------------------------------
    def record(self, kind: str, subject: str = "", **attrs: Any) -> None:
        """Append one event; a no-op when disabled."""
        if not self.enabled:
            return
        self._ring.append((time.monotonic(), kind, subject,
                           tuple(attrs.items()) if attrs else None))

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def snapshot(self) -> list[tuple]:
        """A point-in-time copy of the ring, oldest first, with each
        event's attrs as a dict (``None`` when it had none)."""
        return [(t, kind, subject, dict(attrs) if attrs else None)
                for t, kind, subject, attrs in list(self._ring)]

    def clear(self) -> None:
        self._ring.clear()

    # -- dumps ---------------------------------------------------------------
    def dump(
        self,
        path: str,
        reason: str = "manual",
        extra: Optional[dict] = None,
    ) -> str:
        """Flush the ring to a versioned JSON dump at *path*.

        Written via temp-file + rename so a dump interrupted by the
        process dying never leaves a half-parseable artifact.  Returns
        the path written.
        """
        t_wall = time.time()
        t_mono = time.monotonic()
        events = []
        for t, kind, subject, attrs in self.snapshot():
            event: dict = {"t": t, "kind": kind, "subject": subject}
            if attrs:
                event.update(attrs)
            events.append(event)
        payload = {
            "version": FLIGHT_DUMP_VERSION,
            "component": self.component,
            "shard_id": self.shard_id,
            "reason": reason,
            "t_wall": t_wall,
            "t_mono": t_mono,
            "wall_minus_mono": t_wall - t_mono,
            "extra": extra or {},
            "events": events,
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        from repro.obs.exporters import atomic_writer

        with atomic_writer(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        return path

    def dump_to_dir(
        self,
        directory: str,
        reason: str = "manual",
        extra: Optional[dict] = None,
    ) -> str:
        """Dump into *directory* under a collision-resistant name."""
        # The shard id joins the filename: in-process federations dump
        # N same-named components from one PID in the same millisecond.
        label = (f"{self.component}-{self.shard_id}" if self.shard_id
                 else self.component)
        return self.dump(
            flight_dump_path(directory, label, reason),
            reason=reason,
            extra=extra,
        )

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<FlightRecorder {self.component} {state} "
                f"{len(self._ring)}/{self.capacity}>")


def flight_dump_path(directory: str, component: str, reason: str) -> str:
    """A dump filename unique per (component, reason, time, pid).

    A restarted shard dumping into the same directory as its dead
    predecessor must not overwrite the crash evidence.
    """
    stamp = int(time.time() * 1000)
    safe = component.replace(":", "-").replace("/", "-")
    return os.path.join(
        directory, f"flight-{safe}-{reason}-{stamp}-{os.getpid()}.json")


def read_flight_dump(path: str) -> dict:
    """Parse one dump; raises ``ValueError`` on wrong/missing version."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != FLIGHT_DUMP_VERSION:
        raise ValueError(
            f"{path}: flight dump version {version!r} "
            f"(this reader speaks {FLIGHT_DUMP_VERSION})")
    payload.setdefault("events", [])
    payload["path"] = path
    return payload


def load_flight_dumps(path: str) -> list[dict]:
    """Load a dump file, or every ``flight-*.json`` in a directory.

    Unparseable files in a directory are skipped (a crash can truncate
    anything); a single explicit file path raises instead.
    """
    if os.path.isdir(path):
        dumps = []
        for name in sorted(os.listdir(path)):
            if not (name.startswith("flight-") and name.endswith(".json")):
                continue
            try:
                dumps.append(read_flight_dump(os.path.join(path, name)))
            except (OSError, ValueError, json.JSONDecodeError):
                continue
        return dumps
    return [read_flight_dump(path)]


def events_between(
    dump: dict, t_lo: float = float("-inf"), t_hi: float = float("inf")
) -> Iterable[dict]:
    """The dump's events whose monotonic stamp falls in [t_lo, t_hi]."""
    for event in dump.get("events", ()):
        t = event.get("t", 0.0)
        if t_lo <= t <= t_hi:
            yield event
