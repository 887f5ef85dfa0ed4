"""Span-based tracer and structured event sinks.

A :class:`Tracer` turns engine decisions into structured events and
hands them to a *sink*.  Three sinks cover every use:

- :class:`NullSink` — discards everything and advertises
  ``enabled = False``, which lets instrumented code skip event
  construction entirely (the default; the overhead budget in
  ``docs/architecture.md`` is measured in this mode);
- :class:`ListSink` — collects events in memory (tests, summaries);
- :class:`JsonlSink` — appends one compact JSON object per line to a
  file, the interchange format of ``repro-sched trace`` and the CI
  trace-smoke job.

Spans (:meth:`Tracer.span`) time a block with the monotonic clock and
emit a ``span`` event on exit — exception-safe, nesting-aware (events
carry their parent span's name), and optionally feeding a
:class:`~repro.obs.metrics.Histogram` so durations aggregate even when
the sink is disabled.
"""

from __future__ import annotations

import io
import time
from typing import IO, Any, Protocol, runtime_checkable

import orjson

from repro.obs.metrics import Histogram

# Serializing the event line dominates JsonlSink.emit; orjson is ~8x
# faster than the stdlib encoder on the flat event dicts the tracer
# produces, and one encoder on every host keeps trace bytes (and their
# hashes) host-independent.  Lines are sorted and separator-free;
# non-finite floats would be written as ``null`` (trace events are
# finite by schema).
_ORJSON_OPTS = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY


def _encode_line(event: dict) -> str:
    return orjson.dumps(event, option=_ORJSON_OPTS).decode("utf-8")


__all__ = [
    "EventSink",
    "NullSink",
    "ListSink",
    "JsonlSink",
    "Span",
    "Tracer",
    "NULL_TRACER",
]


@runtime_checkable
class EventSink(Protocol):
    """Structural type every sink implements."""

    enabled: bool

    def emit(self, event: dict) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards every event; ``enabled = False`` lets emitters short-circuit."""

    enabled = False

    def emit(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Collects events in memory (``sink.events``)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes one compact JSON object per line to a path or file object.

    Owns (and closes) the file handle when given a path; only flushes
    when given an open file object.  Usable as a context manager, which
    guarantees the flush-on-close.

    Events are buffered (``buffer_lines`` at a time) and each flush
    hands the file exactly one chunk of *complete* lines — so a process
    killed mid-replay leaves a trace of whole, schema-valid lines (the
    tail of the buffer may be lost, but no line is ever truncated by the
    sink).  For that guarantee to survive SIGKILL the chunk must reach
    the OS in one piece: a path-owned handle is opened **unbuffered
    binary** (``buffering=0``) so each flush is a single ``os.write`` —
    Python's buffered text layer would spill its ~8 KiB blocks without
    regard for line boundaries, and a kill landing between a partial
    spill and ``flush()`` truncates a line mid-byte.  Caller-supplied
    text handles (e.g. ``StringIO``) keep their own buffering semantics;
    the kill guarantee then depends on the handle.

    One tear is beyond userland control: the kernel's write path checks
    for fatal signals at page boundaries, so a SIGKILL can truncate the
    in-flight write itself.  Because each flush is a single in-order
    write, that can only ever leave one unterminated *final* line —
    readers recovering a killed trace should drop a tail fragment that
    lacks its newline and keep the (always-valid) lines before it.
    """

    enabled = True

    def __init__(self, target: str | IO[str], *, buffer_lines: int = 64) -> None:
        if buffer_lines < 1:
            raise ValueError(f"buffer_lines must be >= 1, got {buffer_lines}")
        if hasattr(target, "write"):
            self._fh: IO = target  # type: ignore[assignment]
            self._owns = False
            self._binary = isinstance(target, (io.RawIOBase, io.BufferedIOBase))
        else:
            self._fh = open(target, "wb", buffering=0)
            self._owns = True
            self._binary = True
        self._buffer: list[str] = []
        self._buffer_lines = buffer_lines
        self.events_written = 0
        self._closed = False

    def emit(self, event: dict) -> None:
        self._buffer.append(_encode_line(event))
        self.events_written += 1
        if len(self._buffer) >= self._buffer_lines:
            self.flush()

    def flush(self) -> None:
        """Write buffered events as one whole-lines chunk and flush."""
        if self._buffer:
            chunk = "\n".join(self._buffer) + "\n"
            self._buffer.clear()
            if self._binary:
                self._fh.write(chunk.encode("utf-8"))
            else:
                self._fh.write(chunk)
        self._fh.flush()

    def close(self) -> None:
        """Flush, and close a path-owned handle; later calls do nothing."""
        if self._closed:
            return
        self.flush()
        if self._owns:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullSpan:
    """Shared no-op context manager returned when nothing would record."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **fields: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One timed block.  Produced by :meth:`Tracer.span`; on exit it
    observes the optional histogram and, if the sink is enabled, emits a
    ``span`` event recording duration, parent span, and outcome."""

    __slots__ = ("_tracer", "_histogram", "_emit", "name", "fields", "_t0", "duration_s")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        histogram: Histogram | None,
        fields: dict,
    ) -> None:
        self._tracer = tracer
        self._histogram = histogram
        self._emit = tracer.enabled
        self.name = name
        self.fields = fields
        self.duration_s: float | None = None

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields to the span's event (e.g. results)."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        if self._emit:
            stack = self._tracer._stack
            if stack:
                self.fields.setdefault("parent", stack[-1])
            stack.append(self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dt = time.perf_counter() - self._t0
        self.duration_s = dt
        if self._histogram is not None:
            self._histogram.observe(dt)
        if self._emit:
            self._tracer._stack.pop()
            fields = self.fields
            if exc_type is not None:
                fields["ok"] = False
                fields["error"] = exc_type.__name__
            self._tracer.emit("span", name=self.name, duration_s=dt, **fields)
        return False  # never swallow exceptions


class Tracer:
    """Builds structured events (with wall-clock stamps) and spans.

    Every event is a flat dict with at least ``type`` and ``wall_time``;
    engine events add ``sim_time``, ``job_id``, ``policy``, ``cause``
    and type-specific fields (see :mod:`repro.obs.schema` for the
    taxonomy).  With a :class:`NullSink`, :meth:`emit` returns before
    building anything and :meth:`span` hands back a shared no-op
    context manager unless a histogram still needs the timing.
    """

    def __init__(self, sink: EventSink | None = None) -> None:
        self.sink: EventSink = sink if sink is not None else NullSink()
        self._stack: list[str] = []

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    def emit(
        self,
        etype: str,
        *,
        sim_time: float | None = None,
        job_id: int | None = None,
        policy: str | None = None,
        cause: str | None = None,
        **fields: Any,
    ) -> None:
        if not self.sink.enabled:
            return
        event: dict[str, Any] = {"type": etype, "wall_time": time.time()}
        if sim_time is not None:
            event["sim_time"] = sim_time
        if job_id is not None:
            event["job_id"] = job_id
        if policy is not None:
            event["policy"] = policy
        if cause is not None:
            event["cause"] = cause
        if fields:
            event.update(fields)
        if self._stack:
            event.setdefault("parent", self._stack[-1])
        self.sink.emit(event)

    def span(
        self,
        name: str,
        *,
        histogram: Histogram | None = None,
        **fields: Any,
    ) -> Span | _NullSpan:
        """Context manager timing a block with the monotonic clock."""
        if not self.sink.enabled and histogram is None:
            return _NULL_SPAN
        return Span(self, name, histogram, fields)

    def close(self) -> None:
        self.sink.close()


#: Shared disabled tracer — the default for every engine instance.
NULL_TRACER = Tracer(NullSink())
