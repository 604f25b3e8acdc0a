"""The tracing core: :class:`Tracer` / :class:`Span` context managers.

Design constraints, in order:

1. **Zero cost when disabled.**  The default tracer everywhere is
   :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
   no-op context manager — no allocation, no clock read, no lock.  The
   instrumented hot paths (the translator's DP loop runs hundreds of
   stage spans per sentence) pay only a call and a dict build;
   ``benchmarks/bench_obs.py`` enforces the <5 % overhead bar.
2. **One request, one tree — across processes.**  A span carries a
   ``trace_id`` shared by the whole request and a ``parent_id`` link.
   Within a thread, parentage is implicit (a per-thread stack of active
   spans); across threads or the gateway's worker-process boundary it is
   explicit: the parent's ids travel in the request message, the worker
   opens its spans under them, and the finished records travel back in
   the reply for :meth:`Tracer.adopt` to stitch in — with a clock-offset
   shift, because each process has its own ``perf_counter`` epoch.
3. **Monotonic timings.**  Spans are timed with an injectable monotonic
   clock (:mod:`repro.obs.clock`), so duration math is immune to wall
   clock steps and deterministic under :class:`~repro.obs.clock.ManualClock`.

A span that exits on an exception is marked ``status="error"`` with the
exception type recorded; the exception itself propagates unchanged.
Finished spans accumulate in a bounded buffer (oldest kept, newest
dropped past ``max_spans``, with a drop counter) and are read with
:meth:`Tracer.finished` or exported via :mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
import threading
import uuid
from typing import Any, Callable, Iterable, Mapping

from .clock import Clock, perf

__all__ = [
    "DP_STAGES", "NULL_TRACER", "NullTracer", "Span", "Tracer", "new_trace_id",
]

# The translator's DP stages, in pipeline order; each is timed by a
# ``translate.<stage>`` span.
DP_STAGES = ("tokenize", "seeds", "rules", "synthesis", "rank")


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex).  Unique across processes."""
    return uuid.uuid4().hex


def _new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation: a node in a request's trace tree.

    Used as a context manager (``with tracer.span("stage"):``) the span
    participates in the thread-local parent stack; long-lived spans whose
    begin and end live on different threads (a gateway request) skip the
    ``with`` and call :meth:`finish` explicitly instead.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "end",
        "status", "attrs", "pid", "thread", "_tracer", "_entered",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.attrs = attrs
        self.pid = os.getpid()
        self.thread = threading.current_thread().name
        self._tracer = tracer
        self._entered = False

    # -- annotations --------------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def error(self, message: str | None = None) -> "Span":
        """Mark the span failed (without raising)."""
        self.status = "error"
        if message is not None:
            self.attrs.setdefault("error", message)
        return self

    # -- lifecycle ----------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def finish(self) -> "Span":
        """Stamp the end time and hand the record to the tracer (idempotent)."""
        if self.end is None:
            self.end = self._tracer.clock()
            self._tracer._record(self)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._entered:
            self._tracer._pop(self)
            self._entered = False
        if exc_type is not None and self.status == "ok":
            self.error(f"{exc_type.__name__}: {exc}")
        self.finish()

    # -- serialisation ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """A flat, JSON- and pickle-safe record of this span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attrs": {k: _plain(v) for k, v in self.attrs.items()},
            "pid": self.pid,
            "thread": self.thread,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1000:.2f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, status={self.status!r})"


def _plain(value: Any) -> Any:
    """Coerce an attribute to a JSON-safe primitive."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Tracer:
    """Creates, nests, collects, and stitches spans for export.

    Thread-safe: span creation reads a per-thread parent stack, finished
    records append under a lock.  One tracer may hold many traces (one
    per request); exporters group by ``trace_id``.
    """

    enabled = True

    def __init__(
        self,
        clock: Clock = perf,
        max_spans: int = 200_000,
        ids: Callable[[], str] = _new_span_id,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.clock = clock
        self.max_spans = max_spans
        self._ids = ids
        self._lock = threading.Lock()
        self._finished: list[dict[str, Any]] = []
        self.dropped = 0
        self._stack = threading.local()

    # -- span creation ------------------------------------------------------------

    def span(
        self,
        name: str,
        parent: "Span | None" = None,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (start time stamped now).

        Parentage resolution, most explicit first: a ``parent`` span
        object; raw ``trace_id``/``parent_id`` strings (the cross-process
        case — the parent span lives in another process); else the
        innermost active span on *this thread*; else a new root with a
        fresh ``trace_id``.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif trace_id is None:
            current = self.current()
            if current is not None:
                trace_id = current.trace_id
                parent_id = current.span_id
            else:
                trace_id = new_trace_id()
        return Span(
            self, name, trace_id, self._ids(), parent_id,
            self.clock(), attrs,
        )

    def current(self) -> Span | None:
        """The innermost active span on this thread, if any."""
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else None

    # -- collection ---------------------------------------------------------------

    def finished(self) -> list[dict[str, Any]]:
        """A copy of every finished span record (chronological)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> list[dict[str, Any]]:
        """Drain: return the finished records and reset the buffer."""
        with self._lock:
            drained, self._finished = self._finished, []
            self.dropped = 0
            return drained

    def adopt(
        self,
        records: Iterable[Mapping[str, Any]],
        offset: float | None = None,
        align_to: float | None = None,
    ) -> int:
        """Stitch foreign span records (another process's tracer) in.

        ``offset`` shifts every timestamp; ``align_to`` computes the
        offset so the earliest adopted span starts at that local time —
        the gateway aligns a worker's records to the moment it sent the
        request, because the two processes' monotonic clocks share no
        epoch.  Returns the number of records adopted.
        """
        records = [dict(r) for r in records]
        if not records:
            return 0
        if offset is None and align_to is not None:
            offset = align_to - min(r["start"] for r in records)
        if offset:
            for record in records:
                record["start"] += offset
                if record.get("end") is not None:
                    record["end"] += offset
        with self._lock:
            for record in records:
                if len(self._finished) >= self.max_spans:
                    self.dropped += len(records)
                    break
                self._finished.append(record)
        return len(records)

    # -- internals (called by Span) -----------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(span.as_dict())

    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)


class _NullSpan:
    """The shared do-nothing span: every method is a no-op returning self."""

    __slots__ = ()
    name = "null"
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    start = 0.0
    end = 0.0
    duration = 0.0
    finished = True
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def error(self, message: str | None = None) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self

    def as_dict(self) -> dict[str, Any]:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: free to call, collects nothing."""

    enabled = False
    dropped = 0
    clock = staticmethod(perf)

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def finished(self) -> list[dict[str, Any]]:
        return []

    def clear(self) -> list[dict[str, Any]]:
        return []

    def adopt(self, records, offset=None, align_to=None) -> int:
        return 0


NULL_TRACER = NullTracer()
