"""End-to-end task tracing: trace contexts, spans, and the collector.

Every task settled through the live plane produces an ordered span
chain covering the full Figure 2 exchange::

    submit -> enqueue -> notify -> pull -> exec -> result -> ack

The dispatcher is the observer of record: it opens the trace when the
SUBMIT bundle lands, stamps each protocol step on its own monotonic
clock, and closes the chain when the result is acknowledged.  A
compact :class:`TraceContext` (trace id + span id) rides the WORK /
RESULT_ACK / RESULT frames so the executor's measurements (the ``exec``
span) attach to the right task *and attempt* even across replays — the
RADICAL-Pilot characterization lesson: a pilot system is only tunable
once every task carries its full event timeline through every
component.

Retried tasks re-enter the chain with a fresh ``enqueue`` span carrying
the new attempt number; chain-completeness is judged on the attempt
that actually settled the task (:meth:`SpanCollector.chain_complete`).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = [
    "SPAN_ORDER",
    "TraceContext",
    "Span",
    "SpanCollector",
]

#: Canonical span names in protocol order (one full attempt).
SPAN_ORDER: tuple[str, ...] = (
    "submit", "enqueue", "notify", "pull", "exec", "result", "ack",
)

_SPAN_RANK = {name: index for index, name in enumerate(SPAN_ORDER)}

_trace_seq = itertools.count(1)


def _new_trace_id(task_id: str) -> str:
    """Process-unique, human-greppable trace id for *task_id*."""
    return f"tr-{next(_trace_seq):08x}-{task_id}"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The compact context that rides wire frames: ids only, no state."""

    trace_id: str
    span_id: int

    def to_wire(self) -> dict[str, Any]:
        return {"tid": self.trace_id, "sid": self.span_id}

    @classmethod
    def from_wire(cls, data: Optional[dict]) -> Optional["TraceContext"]:
        if not data or "tid" not in data:
            return None
        return cls(trace_id=str(data["tid"]), span_id=int(data.get("sid", 0)))


@dataclass(frozen=True, slots=True)
class Span:
    """One step of one task attempt, on the dispatcher's clock."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    task_id: str
    attempt: int
    start: float
    end: float
    attrs: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "task_id": self.task_id,
            "attempt": self.attempt,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.attrs)
        return (f"[{self.start:10.4f}s] {self.name:<8} attempt={self.attempt} "
                f"{details}").rstrip()


#: Items per span row in a trace's flat storage: ``name, attempt,
#: start, end, attrs_items``.
_ROW = 5


class _Trace(list):
    """One task's span rows, stored flat in the trace object itself.

    Each span is :data:`_ROW` consecutive items; its span id is its row
    position counted from 1 and its parent is the row before it.  A
    trace therefore costs the cyclic collector one object per task —
    no header object, row list or per-row tuple — and rows become
    :class:`Span` objects only on query: recording happens seven times
    per task on the dispatch hot path, reading a handful of times per
    run, so construction cost belongs on the read side."""

    __slots__ = ("trace_id", "task_id")

    def __init__(self, trace_id: str, task_id: str) -> None:
        super().__init__()
        self.trace_id = trace_id
        self.task_id = task_id

    def materialise(self) -> list[Span]:
        return [
            Span(
                trace_id=self.trace_id,
                span_id=i // _ROW + 1,
                parent_id=i // _ROW or None,
                name=self[i],
                task_id=self.task_id,
                attempt=self[i + 1],
                start=self[i + 2],
                end=self[i + 3],
                attrs=tuple(sorted(self[i + 4])),
            )
            for i in range(0, len(self), _ROW)
        ]


class SpanCollector:
    """Thread-safe per-task span store with bounded trace count.

    The collector keeps at most *capacity* traces (oldest evicted
    first), so tracing is safe to leave enabled on endurance runs.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, _Trace]" = OrderedDict()
        self.spans_recorded = 0
        self.traces_evicted = 0

    # -- recording -----------------------------------------------------------
    def begin(self, task_id: str) -> str:
        """Open (or reuse) the trace for *task_id*; returns its trace id."""
        with self._lock:
            return self._begin_locked(task_id)

    def begin_many(self, task_ids: Iterable[str]) -> None:
        """Open traces for a whole bundle under one lock round trip."""
        with self._lock:
            for task_id in task_ids:
                self._begin_locked(task_id)

    def _begin_locked(self, task_id: str) -> str:
        trace = self._traces.get(task_id)
        if trace is None:
            trace = _Trace(_new_trace_id(task_id), task_id)
            self._traces[task_id] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.traces_evicted += 1
        return trace.trace_id

    def record(
        self,
        task_id: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        attempt: int = 0,
        **attrs: Any,
    ) -> Optional[TraceContext]:
        """Append one span to *task_id*'s chain.

        The parent is the previously recorded span, so the chain order
        is the record order.  Returns the new span's context (``None``
        for unknown tasks — never invents orphan traces for stale
        deliveries).
        """
        if name not in _SPAN_RANK:
            raise ValueError(f"unknown span name {name!r} (expected one of {SPAN_ORDER})")
        with self._lock:
            return self._record_locked(task_id, name, start, end, attempt,
                                       tuple(attrs.items()))

    def record_many(
        self,
        rows: Iterable[tuple],
    ) -> list[Optional[TraceContext]]:
        """Append many spans under one lock round trip.

        Each row is ``(task_id, name, start, end, attempt, attrs_items)``
        with *attrs_items* a tuple of key/value pairs.  Rows append in
        order (chain order = row order); the returned contexts line up
        with the rows (``None`` for unknown tasks, as in :meth:`record`).
        """
        out: list[Optional[TraceContext]] = []
        with self._lock:
            for task_id, name, start, end, attempt, attrs_items in rows:
                if name not in _SPAN_RANK:
                    raise ValueError(
                        f"unknown span name {name!r} (expected one of {SPAN_ORDER})")
                out.append(self._record_locked(
                    task_id, name, start, end, attempt, tuple(attrs_items)))
        return out

    def _record_locked(
        self,
        task_id: str,
        name: str,
        start: float,
        end: Optional[float],
        attempt: int,
        attrs_items: tuple,
    ) -> Optional[TraceContext]:
        trace = self._traces.get(task_id)
        if trace is None:
            return None
        span_id = len(trace) // _ROW + 1
        if trace:
            # Chains are causal: a span anchored on another clock
            # (the executor-measured exec window) must not rewind
            # behind its predecessor (whose start sits third from the
            # end of the flat rows).
            floor = trace[-3]
            if start < floor:
                if end is not None:
                    end = max(end, floor)
                start = floor
        trace.extend((name, attempt, start, start if end is None else end,
                      attrs_items))
        self.spans_recorded += 1
        return TraceContext(trace.trace_id, span_id)

    # -- queries -------------------------------------------------------------
    def chain(self, task_id: str) -> list[Span]:
        """The ordered span chain for *task_id* (empty if unknown)."""
        with self._lock:
            trace = self._traces.get(task_id)
            return trace.materialise() if trace is not None else []

    def context(self, task_id: str) -> Optional[TraceContext]:
        """Context of the most recent span of *task_id*."""
        with self._lock:
            trace = self._traces.get(task_id)
            if not trace:
                return None
            return TraceContext(trace.trace_id, len(trace) // _ROW)

    def task_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def all_spans(self) -> list[Span]:
        """Every buffered span, grouped by trace, chain-ordered."""
        with self._lock:
            traces = list(self._traces.values())
        return [span for trace in traces for span in trace.materialise()]

    # -- validation ----------------------------------------------------------
    def chain_complete(self, task_id: str) -> bool:
        """True when the settling attempt covers the full span order.

        The settling attempt is the attempt number on the final
        ``result`` span; its spans (plus the shared ``submit``) must
        contain every canonical name, in protocol order, with
        non-decreasing timestamps.
        """
        spans = self.chain(task_id)
        return not self.chain_errors(task_id, spans)

    def chain_errors(self, task_id: str, spans: Optional[list[Span]] = None) -> list[str]:
        """Why *task_id*'s chain is incomplete/disordered (empty = ok)."""
        if spans is None:
            spans = self.chain(task_id)
        errors: list[str] = []
        if not spans:
            return [f"{task_id}: no trace recorded"]
        # Global monotonicity: record order must never go back in time.
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.start - 1e-9:
                errors.append(
                    f"{task_id}: span {cur.name}@{cur.start:.6f} precedes "
                    f"{prev.name}@{prev.start:.6f}"
                )
            if cur.parent_id != prev.span_id:
                errors.append(
                    f"{task_id}: span {cur.name} parent {cur.parent_id} != "
                    f"previous span id {prev.span_id} (orphan span)"
                )
        final_results = [s for s in spans if s.name == "result"]
        if not final_results:
            errors.append(f"{task_id}: no result span")
            return errors
        settle_attempt = final_results[-1].attempt
        settling = [
            s for s in spans
            if s.attempt == settle_attempt or s.name == "submit"
        ]
        names = [s.name for s in settling]
        missing = [name for name in SPAN_ORDER if name not in names]
        if missing:
            errors.append(f"{task_id}: settling attempt {settle_attempt} "
                          f"missing spans {missing}")
        if names and names[0] != "submit":
            errors.append(f"{task_id}: chain does not open with submit: {names[0]}")
        # The canonical order must hold over the final dispatch segment
        # (an undelivered requeue legitimately repeats enqueue/notify
        # under the same attempt number, so earlier segments may rewind).
        last_enqueue = max(
            (i for i, n in enumerate(names) if n == "enqueue"), default=0
        )
        segment = names[last_enqueue:]
        ranked = [_SPAN_RANK[n] for n in segment]
        if any(b <= a for a, b in zip(ranked, ranked[1:])):
            errors.append(f"{task_id}: settling dispatch segment out of "
                          f"protocol order: {segment}")
        return errors

    def __repr__(self) -> str:
        return (f"<SpanCollector traces={len(self)} "
                f"spans={self.spans_recorded} evicted={self.traces_evicted}>")
