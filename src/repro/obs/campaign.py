"""Campaign-level telemetry for the parallel table layer.

A *campaign* is one :func:`~repro.core.parallel.run_table_parallel`
execution of an :class:`~repro.core.parallel.ExperimentPlan`.  This
module turns that previously-silent fan-out into an observable,
replayable run:

- :class:`CampaignTelemetry` — the driver-side emitter.  It journals
  the campaign event schema (see :mod:`repro.obs.schema`) through any
  :class:`~repro.obs.trace.EventSink`; with a
  :class:`~repro.obs.trace.JsonlSink` flushing per event, a campaign
  killed mid-run leaves a journal of whole, schema-valid lines — the
  checkpoint/resume substrate the sharded experiment fabric needs.
- :class:`CampaignMonitor` — a streaming consumer of that event feed
  (live, or offline via :meth:`CampaignMonitor.from_events`).  It
  tracks cells/sec throughput, ETA, per-worker utilization, exact
  cell-duration quantiles (p50/p90/p99 of the finished cells' sorted
  durations; the registry keeps a
  :data:`~repro.obs.metrics.CELL_DURATION_BUCKETS` histogram of them
  too), and straggler detection (cells exceeding ``DEFAULT_STRAGGLER_FACTOR`` ×
  the running median).
- :class:`ProgressRenderer` — a rate-limited single-line stderr status
  display fed by the monitor (the table CLIs' ``--progress`` flag).
- :func:`capture_resources` — worker-process resource capture (wall
  time, CPU time via ``os.times``, peak RSS via
  ``resource.getrusage``) shipped back on each
  :class:`~repro.core.parallel.CellResult`.
- :func:`read_campaign_journal` / :func:`check_campaign_journal` /
  :func:`summarize_campaign` — offline journal analysis behind the
  ``repro-sched campaign`` subcommand.

The whole stack follows the audit layer's zero-cost-when-disabled
discipline: :func:`run_table_parallel` takes ``telemetry=None`` by
default and guards every emission behind one ``is not None`` check, the
serial table drivers never construct a telemetry object at all, and
cell *results* are computed identically with telemetry on or off (the
resource probe wraps the cell function, it never reaches into it).
"""

from __future__ import annotations

import os
import sys
import time
from bisect import insort
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Mapping

from repro.obs.metrics import CELL_DURATION_BUCKETS, MetricsRegistry
from repro.obs.schema import (
    CAMPAIGN_EVENT_TYPES,
    TraceSchemaError,
    read_jsonl,
    validate_event,
)
from repro.obs.trace import EventSink, JsonlSink, NullSink

__all__ = [
    "DEFAULT_STRAGGLER_FACTOR",
    "DEFAULT_HEARTBEAT_S",
    "CellResources",
    "capture_resources",
    "resource_probe",
    "CampaignTelemetry",
    "CampaignMonitor",
    "ProgressRenderer",
    "CampaignCheckError",
    "read_campaign_journal",
    "check_campaign_journal",
    "summarize_campaign",
    "format_campaign_summary",
]

#: A cell is a straggler once it exceeds this multiple of the running
#: median cell duration (TARE's tail-aware framing: the campaign's wall
#: clock is set by its p99, not its mean).
DEFAULT_STRAGGLER_FACTOR = 3.0

#: Minimum finished-cell sample before straggler calls are made — a
#: median of two durations flags noise, not tails.
MIN_STRAGGLER_SAMPLES = 5

#: Driver-side heartbeat / progress refresh period (seconds).
DEFAULT_HEARTBEAT_S = 0.5


# ----------------------------------------------------------------------
# worker-side resource capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellResources:
    """What one cell cost the worker process that ran it.

    ``max_rss_kb`` is the worker's *peak* RSS (``ru_maxrss``) at cell
    completion — a high-water mark over the process lifetime, so for a
    reused pool worker it bounds, rather than isolates, the cell's own
    footprint.  On Linux ``ru_maxrss`` is kilobytes already; on macOS
    the kernel reports bytes and the probe converts.
    """

    wall_s: float
    cpu_s: float
    max_rss_kb: int
    pid: int

    def as_fields(self) -> dict:
        """The event-field form shipped on ``cell_finished``."""
        return {
            "cpu_s": self.cpu_s,
            "max_rss_kb": self.max_rss_kb,
            "pid": self.pid,
        }


def resource_probe() -> tuple[float, float]:
    """Start a resource measurement: (monotonic wall, CPU seconds)."""
    t = os.times()
    return time.perf_counter(), t.user + t.system


def capture_resources(probe: tuple[float, float]) -> CellResources:
    """Close a :func:`resource_probe` into a :class:`CellResources`."""
    t = os.times()
    wall_s = time.perf_counter() - probe[0]
    cpu_s = (t.user + t.system) - probe[1]
    max_rss_kb = 0
    try:
        import resource as _resource

        max_rss_kb = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
        if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
            max_rss_kb //= 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX fallback
        pass
    return CellResources(
        wall_s=wall_s, cpu_s=cpu_s, max_rss_kb=max_rss_kb, pid=os.getpid()
    )


# ----------------------------------------------------------------------
# streaming monitor
# ----------------------------------------------------------------------
class CampaignMonitor:
    """Streaming statistics over a campaign event feed.

    Feed events in emission order — live from
    :class:`CampaignTelemetry`, or offline from a journal via
    :meth:`from_events`.  All derived quantities (throughput, ETA,
    utilization, quantiles, stragglers) are computed from event
    ``wall_time`` stamps, so an offline replay reports exactly what the
    live monitor saw.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._duration_hist = self.registry.histogram(
            "campaign.cell_duration_seconds", CELL_DURATION_BUCKETS
        )
        self._cpu_hist = self.registry.histogram(
            "campaign.cell_cpu_seconds", CELL_DURATION_BUCKETS
        )
        self._dispatched = self.registry.counter("campaign.cells_dispatched")
        self._finished = self.registry.counter("campaign.cells_finished")
        self._failed = self.registry.counter("campaign.cells_failed")
        self._rss_gauge = self.registry.gauge("campaign.max_rss_kb_peak")

        self.campaign_id: str | None = None
        self.cells_total = 0
        self.max_workers = 0
        self.started_wall: float | None = None
        self.finished_wall: float | None = None
        self.last_wall: float | None = None
        #: cell_index -> dispatch wall_time of a cell in flight.
        self.running: dict[int, float] = {}
        #: cell_index -> wall duration of a finished cell.
        self.completed: dict[int, float] = {}
        #: cell_index -> terminal failure description.
        self.failed: dict[int, str] = {}
        #: cell_index -> spec coordinates (from cell_dispatched events).
        self.coords: dict[int, str] = {}
        #: worker pid -> busy seconds (cell wall time attributed to it).
        self.worker_busy: dict[int, float] = {}
        self._sorted_durations: list[float] = []

    # -- feeding -------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "CampaignMonitor":
        """Rebuild a monitor offline from journaled events."""
        monitor = cls()
        for event in events:
            monitor.observe(event)
        return monitor

    def observe(self, event: Mapping) -> None:
        """Consume one campaign event; non-campaign events are ignored."""
        etype = event.get("type")
        if etype not in CAMPAIGN_EVENT_TYPES:
            return
        wall = float(event.get("wall_time", 0.0))
        self.last_wall = wall
        if etype == "campaign_started":
            self.campaign_id = event.get("campaign_id")
            self.cells_total = int(event.get("cells_total", 0))
            self.max_workers = int(event.get("max_workers", 0))
            self.started_wall = wall
        elif etype == "cell_dispatched":
            index = int(event["cell_index"])
            self.running[index] = wall
            self._dispatched.value += 1
            coords = _coords_of(event)
            if coords:
                self.coords[index] = coords
        elif etype == "cell_finished":
            index = int(event["cell_index"])
            duration = float(event.get("duration_s", 0.0))
            self.running.pop(index, None)
            self.completed[index] = duration
            self._finished.value += 1
            self._duration_hist.observe(duration)
            insort(self._sorted_durations, duration)
            cpu = event.get("cpu_s")
            if cpu is not None:
                self._cpu_hist.observe(float(cpu))
            rss = event.get("max_rss_kb")
            if rss is not None and rss > self._rss_gauge.value:
                self._rss_gauge.value = float(rss)
            pid = int(event.get("pid", 0))
            self.worker_busy[pid] = self.worker_busy.get(pid, 0.0) + duration
        elif etype == "cell_failed":
            index = int(event["cell_index"])
            self.running.pop(index, None)
            self.failed[index] = str(event.get("error", ""))
            self._failed.value += 1
        elif etype == "campaign_finished":
            self.finished_wall = wall

    # -- derived quantities --------------------------------------------
    @property
    def cells_done(self) -> int:
        return len(self.completed)

    @property
    def cells_failed(self) -> int:
        return len(self.failed)

    @property
    def cells_remaining(self) -> int:
        return max(self.cells_total - self.cells_done - self.cells_failed, 0)

    def elapsed_s(self) -> float:
        """Wall seconds from campaign start to the latest event seen."""
        if self.started_wall is None or self.last_wall is None:
            return 0.0
        end = self.finished_wall if self.finished_wall is not None else self.last_wall
        return max(end - self.started_wall, 0.0)

    def throughput_cells_per_s(self) -> float:
        """Completed cells per elapsed wall second (0 until measurable)."""
        elapsed = self.elapsed_s()
        if elapsed <= 0.0 or not self.completed:
            return 0.0
        return self.cells_done / elapsed

    def eta_s(self) -> float | None:
        """Projected seconds to drain the plan at current throughput."""
        rate = self.throughput_cells_per_s()
        if rate <= 0.0:
            return None
        return self.cells_remaining / rate

    def utilization(self) -> float:
        """Fraction of the pool's capacity spent inside cells.

        ``sum(cell wall time) / (elapsed * max_workers)`` — below 1.0
        means workers sat idle (ramp-up, stragglers gating the tail, or
        dispatch overhead); it is the fleet-level analogue of the
        simulator's node utilization.
        """
        elapsed = self.elapsed_s()
        if elapsed <= 0.0 or self.max_workers <= 0:
            return 0.0
        busy = sum(self.worker_busy.values())
        return min(busy / (elapsed * self.max_workers), 1.0)

    def duration_quantile(self, q: float) -> float | None:
        """Exact ``q``-quantile of finished-cell durations, ``None`` before
        any cell finished.

        Read from the sorted durations, linear between the two order
        statistics around rank ``q * (n - 1)`` (numpy's default rule), so
        every quantile of one sample is that sample and the median
        averages the middle pair as :meth:`median_duration` does.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        durations = self._sorted_durations
        if not durations:
            return None
        rank = q * (len(durations) - 1)
        lo = int(rank)
        if lo + 1 == len(durations):
            return durations[lo]
        return durations[lo] + (durations[lo + 1] - durations[lo]) * (rank - lo)

    def median_duration(self) -> float | None:
        """Exact running median of finished-cell durations."""
        n = len(self._sorted_durations)
        if n == 0:
            return None
        mid = n // 2
        if n % 2:
            return self._sorted_durations[mid]
        return 0.5 * (self._sorted_durations[mid - 1] + self._sorted_durations[mid])

    def stragglers(self, now: float | None = None) -> list[dict]:
        """Cells exceeding ``DEFAULT_STRAGGLER_FACTOR`` × the running median.

        Covers both finished cells whose duration blew the threshold and
        still-running cells whose elapsed time already has (``now``
        defaults to the latest event wall time, so offline replays are
        deterministic).  Empty until ``MIN_STRAGGLER_SAMPLES`` cells
        have finished — below that the median is noise.
        """
        median = self.median_duration()
        if median is None or len(self.completed) < MIN_STRAGGLER_SAMPLES:
            return []
        threshold = DEFAULT_STRAGGLER_FACTOR * median
        if now is None:
            now = self.last_wall if self.last_wall is not None else 0.0
        out = []
        for index, duration in sorted(self.completed.items()):
            if duration > threshold:
                out.append(
                    {
                        "cell_index": index,
                        "cell": self.coords.get(index, str(index)),
                        "duration_s": duration,
                        "running": False,
                    }
                )
        for index, dispatched in sorted(self.running.items()):
            elapsed = now - dispatched
            if elapsed > threshold:
                out.append(
                    {
                        "cell_index": index,
                        "cell": self.coords.get(index, str(index)),
                        "duration_s": elapsed,
                        "running": True,
                    }
                )
        return out

    def snapshot(self) -> dict:
        """One JSON-serializable view of everything the monitor derives."""
        return {
            "campaign_id": self.campaign_id,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cells_failed": self.cells_failed,
            "cells_running": len(self.running),
            "max_workers": self.max_workers,
            "complete": self.finished_wall is not None,
            "elapsed_s": self.elapsed_s(),
            "throughput_cells_per_s": self.throughput_cells_per_s(),
            "eta_s": self.eta_s(),
            "utilization": self.utilization(),
            "duration_p50_s": self.duration_quantile(0.50),
            "duration_p90_s": self.duration_quantile(0.90),
            "duration_p99_s": self.duration_quantile(0.99),
            "median_duration_s": self.median_duration(),
            "stragglers": self.stragglers(),
            "workers": {
                str(pid): round(busy, 6)
                for pid, busy in sorted(self.worker_busy.items())
            },
            "max_rss_kb_peak": self._rss_gauge.value,
            "metrics": self.registry.snapshot(),
        }


def _coords_of(event: Mapping) -> str:
    parts = [
        str(event[f])
        for f in ("workload", "algorithm", "predictor")
        if event.get(f)
    ]
    return "/".join(parts)


# ----------------------------------------------------------------------
# live progress rendering
# ----------------------------------------------------------------------
class ProgressRenderer:
    """Single-line, rate-limited campaign status display.

    Writes carriage-return-refreshed lines to ``stream`` (default
    stderr).  ``min_interval_s`` bounds the redraw rate so rendering
    never becomes a measurable cost; :meth:`finish` draws one final
    state and terminates the line.  ``clock`` is the monotonic clock the
    rate limit reads.  Its zero point is arbitrary (boot time on Linux),
    so the limit counts from the first render, which always draws.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        *,
        min_interval_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last_render: float | None = None
        self._last_width = 0

    def line_for(self, monitor: CampaignMonitor) -> str:
        """The status line for the monitor's current state."""
        parts = [
            f"campaign {monitor.cells_done}/{monitor.cells_total} cells",
            f"{len(monitor.running)} running",
        ]
        if monitor.cells_failed:
            parts.append(f"{monitor.cells_failed} FAILED")
        rate = monitor.throughput_cells_per_s()
        if rate > 0:
            parts.append(f"{rate:.2f} cells/s")
        eta = monitor.eta_s()
        if eta is not None and monitor.cells_remaining:
            parts.append(f"eta {eta:.0f}s")
        p50 = monitor.duration_quantile(0.50)
        p99 = monitor.duration_quantile(0.99)
        if p50 is not None and p99 is not None:
            parts.append(f"p50 {p50:.2g}s p99 {p99:.2g}s")
        stragglers = monitor.stragglers()
        if stragglers:
            parts.append(f"{len(stragglers)} straggler(s)")
        return "  ".join(parts)

    def update(self, monitor: CampaignMonitor, *, force: bool = False) -> None:
        now = self._clock()
        last = self._last_render
        if not force and last is not None and now - last < self.min_interval_s:
            return
        self._last_render = now
        line = self.line_for(monitor)
        pad = " " * max(self._last_width - len(line), 0)
        self._last_width = len(line)
        self.stream.write(f"\r{line}{pad}")
        self.stream.flush()

    def finish(self, monitor: CampaignMonitor) -> None:
        self.update(monitor, force=True)
        self.stream.write("\n")
        self.stream.flush()


# ----------------------------------------------------------------------
# driver-side emitter
# ----------------------------------------------------------------------
class CampaignTelemetry:
    """Journals campaign events and feeds a live monitor + progress line.

    ``sink`` accepts a path (opened as a per-event-flushed
    :class:`~repro.obs.trace.JsonlSink`, so every journaled event is
    durable the moment it is emitted — kill-safe whole lines), an
    existing sink, or ``None`` (monitor/progress only, nothing
    journaled).  Usable as a context manager; closing renders the final
    progress state and closes an owned sink.  ``clock`` is the monotonic
    clock behind heartbeat rate limiting and the campaign duration; the
    limit counts from the first heartbeat, which is always emitted.
    """

    def __init__(
        self,
        sink: EventSink | str | None = None,
        *,
        monitor: CampaignMonitor | None = None,
        progress: ProgressRenderer | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        campaign_id: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        if isinstance(sink, (str, os.PathLike)):
            sink = JsonlSink(sink, buffer_lines=1)
        self.sink: EventSink = sink if sink is not None else NullSink()
        self.monitor = monitor if monitor is not None else CampaignMonitor()
        self.progress = progress
        self.heartbeat_s = heartbeat_s
        if campaign_id is None:
            campaign_id = f"campaign-{os.getpid()}-{time.time_ns():x}"
        self.campaign_id = campaign_id
        self._clock = clock
        self._last_heartbeat: float | None = None
        self._started_monotonic: float | None = None

    # -- plumbing ------------------------------------------------------
    def _emit(self, etype: str, **fields) -> None:
        event = {
            "type": etype,
            "wall_time": time.time(),
            "campaign_id": self.campaign_id,
            **fields,
        }
        self.monitor.observe(event)
        if self.sink.enabled:
            self.sink.emit(event)
        if self.progress is not None:
            self.progress.update(
                self.monitor, force=(etype == "campaign_finished")
            )

    # -- the event vocabulary (one method per type) --------------------
    def campaign_started(self, *, cells_total: int, max_workers: int) -> None:
        self._started_monotonic = self._clock()
        self._emit(
            "campaign_started",
            cells_total=cells_total,
            max_workers=max_workers,
        )

    def cell_dispatched(self, index: int, **coords) -> None:
        self._emit("cell_dispatched", cell_index=index, **coords)

    def cell_finished(
        self,
        index: int,
        *,
        duration_s: float,
        resources: CellResources | None = None,
        **coords,
    ) -> None:
        fields = resources.as_fields() if resources is not None else {}
        self._emit(
            "cell_finished",
            cell_index=index,
            duration_s=duration_s,
            **fields,
            **coords,
        )

    def cell_failed(self, index: int, *, error: str, **coords) -> None:
        self._emit("cell_failed", cell_index=index, error=error, **coords)

    def campaign_finished(self) -> None:
        duration = (
            self._clock() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        self._emit(
            "campaign_finished",
            cells_done=self.monitor.cells_done,
            cells_failed=self.monitor.cells_failed,
            duration_s=duration,
        )

    def heartbeat(self, *, running: int) -> None:
        """Rate-limited periodic status (journal + progress refresh)."""
        now = self._clock()
        last = self._last_heartbeat
        if last is not None and now - last < self.heartbeat_s:
            return
        self._last_heartbeat = now
        self._emit(
            "cell_heartbeat",
            cells_done=self.monitor.cells_done,
            cells_running=running,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self.progress is not None:
            self.progress.finish(self.monitor)
        self.sink.close()

    def __enter__(self) -> "CampaignTelemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# offline journal analysis (the ``repro-sched campaign`` subcommand)
# ----------------------------------------------------------------------
class CampaignCheckError(ValueError):
    """A campaign journal failing validation or consistency checks."""


def read_campaign_journal(
    source: str | IO[str], *, strict: bool = False
) -> list[dict]:
    """Load a campaign journal's events.

    Lenient by default (``strict=False``): a torn final line — the one
    artifact a SIGKILL can leave (see
    :class:`~repro.obs.trace.JsonlSink`) — is dropped, so a killed
    campaign replays to exactly its whole-line records.  ``strict=True``
    raises :class:`~repro.obs.schema.TraceSchemaError` on any malformed
    line instead (the ``--check`` gate).
    """
    return read_jsonl(source, drop_torn_tail=not strict)


def check_campaign_journal(events: Iterable[Mapping]) -> dict:
    """Validate a journal's events and cross-check their consistency.

    Raises :class:`CampaignCheckError` on the first violation; returns
    summary counts (``events``, ``cells_total``, ``cells_done``,
    ``cells_failed``) when the journal is coherent.  Checks, in order:
    every event fits the trace schema and is campaign-level; the journal
    opens with ``campaign_started``; cell indexes stay inside the plan;
    finished/failed cells were dispatched first; and the closing
    ``campaign_finished`` exists and agrees with the per-cell tallies
    (a missing one means the campaign died mid-run — exactly what the
    resume substrate must detect).
    """
    events = list(events)
    if not events:
        raise CampaignCheckError("journal is empty")
    for i, event in enumerate(events, start=1):
        try:
            validate_event(event)
        except TraceSchemaError as exc:
            raise CampaignCheckError(f"event {i}: {exc}") from None
        if event.get("type") not in CAMPAIGN_EVENT_TYPES:
            raise CampaignCheckError(
                f"event {i}: {event.get('type')!r} is not a campaign event"
            )
    first = events[0]
    if first["type"] != "campaign_started":
        raise CampaignCheckError(
            f"journal must open with campaign_started, got {first['type']!r}"
        )
    cells_total = int(first["cells_total"])
    campaign_id = first["campaign_id"]
    dispatched: set[int] = set()
    finished: set[int] = set()
    failed: set[int] = set()
    closing: Mapping | None = None
    for i, event in enumerate(events, start=1):
        if event["campaign_id"] != campaign_id:
            raise CampaignCheckError(
                f"event {i}: campaign_id {event['campaign_id']!r} does not "
                f"match the journal's {campaign_id!r}"
            )
        etype = event["type"]
        index = event.get("cell_index")
        if index is not None and not 0 <= index < cells_total:
            raise CampaignCheckError(
                f"event {i}: cell_index {index} outside plan of {cells_total}"
            )
        if etype == "cell_dispatched":
            dispatched.add(index)
        elif etype in ("cell_finished", "cell_failed"):
            if index not in dispatched:
                raise CampaignCheckError(
                    f"event {i}: {etype} for cell {index} that was never "
                    "dispatched"
                )
            if etype == "cell_finished":
                finished.add(index)
            else:
                failed.add(index)
        elif etype == "campaign_finished":
            closing = event
    if closing is None:
        raise CampaignCheckError(
            f"journal is incomplete: no campaign_finished "
            f"({len(finished)}/{cells_total} cells completed — "
            "the campaign was killed or is still running)"
        )
    if closing["cells_done"] != len(finished) or (
        closing["cells_failed"] != len(failed)
    ):
        raise CampaignCheckError(
            f"campaign_finished tallies ({closing['cells_done']} done, "
            f"{closing['cells_failed']} failed) do not match the journal "
            f"({len(finished)} done, {len(failed)} failed)"
        )
    return {
        "events": len(events),
        "cells_total": cells_total,
        "cells_done": len(finished),
        "cells_failed": len(failed),
    }


def summarize_campaign(events: Iterable[Mapping]) -> dict:
    """Offline campaign summary: the monitor's snapshot plus the cell
    manifest (completed / still-dispatched / failed indexes with their
    spec coordinates) a resuming driver needs."""
    monitor = CampaignMonitor.from_events(events)
    summary = monitor.snapshot()
    summary["cells"] = {
        "completed": [
            {
                "cell_index": index,
                "cell": monitor.coords.get(index, str(index)),
                "duration_s": duration,
            }
            for index, duration in sorted(monitor.completed.items())
        ],
        "dispatched_unfinished": [
            {"cell_index": index, "cell": monitor.coords.get(index, str(index))}
            for index in sorted(monitor.running)
        ],
        "failed": [
            {
                "cell_index": index,
                "cell": monitor.coords.get(index, str(index)),
                "error": error,
            }
            for index, error in sorted(monitor.failed.items())
        ],
    }
    return summary


def format_campaign_summary(summary: Mapping) -> str:
    """Human rendering of :func:`summarize_campaign`: headline counts,
    throughput, duration quantiles, then one line per straggler, failed
    and dispatched-unfinished cell."""
    lines = [
        f"Campaign: {summary['cells_done']}/{summary['cells_total']} cells done,"
        f" {summary['cells_failed']} failed,"
        f" {summary['cells_running']} dispatched-unfinished"
        + ("" if summary["complete"] else "  [INCOMPLETE — no campaign_finished]"),
        f"  id {summary['campaign_id'] or '(unknown)'},"
        f" workers {summary['max_workers']},"
        f" elapsed {summary['elapsed_s']:.2f}s,"
        f" throughput {summary['throughput_cells_per_s']:.2f} cells/s,"
        f" utilization {100 * summary['utilization']:.0f}%",
    ]
    if summary["duration_p50_s"] is not None:
        lines.append(
            f"  cell duration p50 {summary['duration_p50_s']:.3g}s"
            f"  p90 {summary['duration_p90_s']:.3g}s"
            f"  p99 {summary['duration_p99_s']:.3g}s"
        )
    for s in summary["stragglers"]:
        state = "still running" if s["running"] else "finished"
        lines.append(
            f"  straggler: cell {s['cell_index']} ({s['cell']}) — "
            f"{s['duration_s']:.3g}s, {state}"
        )
    for f in summary["cells"]["failed"]:
        lines.append(f"  failed: cell {f['cell_index']} ({f['cell']}): {f['error']}")
    for d in summary["cells"]["dispatched_unfinished"]:
        lines.append(
            f"  unfinished: cell {d['cell_index']} ({d['cell']}) was "
            "dispatched but never completed"
        )
    return "\n".join(lines)
