"""The trace event taxonomy and its validator.

Every event the engines emit is a flat JSON object.  The schema is
deliberately hand-rolled (no external dependency): a closed set of
event types, per-type required fields, and field-type checks.  The CI
trace-smoke job replays a workload and validates every emitted line
against this module; ``repro-sched trace --check`` does the same
locally.

Event taxonomy
--------------
==================== ======================================================
``job_submitted``     job entered the queue
``job_started``       job began executing (``wait_s``, ``depth``)
``job_backfilled``    the start jumped ``depth`` earlier arrivals (extra
                      event alongside ``job_started`` when ``depth > 0``)
``job_finished``      job released its nodes (``run_s``)
``reservation_placed``  a future start was promised — a backfill profile
                      reservation (``job_id``) or an advance reservation
                      (``res_id``)
``reservation_shifted`` a promised start moved (replanning, or an advance
                      reservation activating late)
``replan_triggered``  the cross-pass estimate cache flushed (the
                      estimator's history epoch advanced)
``cache_hit``         queued-job estimate served from the cache (detail
                      mode only)
``cache_miss``        queued-job estimate required a predictor call
                      (detail mode only)
``wait_predicted``    an observer predicted a job's wait at submission
                      (audited predictions add ``predictor``/``source``)
``runtime_predicted`` the estimator adapter predicted a job's run time
                      at submission (``predicted_run_s``, ``predictor``,
                      optional ``source`` — the template/category or
                      fallback that produced the number)
``prediction_resolved`` a recorded prediction met its outcome: ``kind``
                      (``run_time`` at finish, ``wait_time`` at start),
                      ``predicted_s``, ``actual_s``, signed ``error_s``,
                      ``predictor``
``span``              a timed block (``name``, ``duration_s``, optional
                      ``parent``)
==================== ======================================================

Decision provenance
-------------------
Provenance events explain *why* a queued job is not running: which
running job, reservation, or queue-ordering rule was the binding
constraint at each scheduling pass.  They are emitted change-only (a
new event appears only when the binding constraint moves) and only when
the instrumentation's ``provenance`` knob is on (implied by detail
mode), so plain tracing and the disabled path pay nothing.  Blocker
attribution is shared across all events via ``blocker_kind`` (one of
:data:`BLOCKER_KINDS`) plus the blocker's id in ``blocker_id`` (a job
id for ``running_job``/``queued_reservation``/``queue_order``, a
reservation id for ``active_reservation``/``advance_reservation``).

===================== =====================================================
``start_blocked``      a queued job cannot start now; the binding
                       constraint is ``blocker_kind``/``blocker_id``
                       (FCFS/LWF/EASY queue walks)
``reservation_binding`` a reserved job's promised start is anchored on the
                       release of ``blocker_kind``/``blocker_id``
                       (``start_s`` — backfill/EASY profile walks)
``backfill_hole_used`` an out-of-order start slotted into the hole ahead
                       of a blocked earlier arrival (``ahead_job_id``),
                       open from ``hole_start_s`` until the blocked job's
                       reserved start ``hole_end_s``
===================== =====================================================

Campaign events
---------------
The parallel table layer (:mod:`repro.core.parallel`) journals one
campaign per :func:`~repro.core.parallel.run_table_parallel` run through
the same kill-safe :class:`~repro.obs.trace.JsonlSink` machinery.  Every
campaign event carries a ``campaign_id``; cell events name their cell by
``cell_index`` (the plan position) plus the spec coordinates
(``workload``/``algorithm``/``predictor``).

===================== =====================================================
``campaign_started``   a plan began executing (``cells_total``,
                       ``max_workers``)
``cell_dispatched``    a cell was handed to a free worker (``cell_index``)
``cell_heartbeat``     periodic driver-side status (``cells_done``,
                       ``cells_running``)
``cell_finished``      a cell completed (``cell_index``, ``duration_s``,
                       optional worker resources: ``cpu_s``,
                       ``max_rss_kb``, ``pid``)
``cell_failed``        a cell's worker raised (``cell_index``, ``error``);
                       every cell runs once, so this is terminal
``campaign_finished``  the plan drained (``cells_done``, ``cells_failed``,
                       ``duration_s``)
===================== =====================================================

A campaign killed mid-run leaves a journal of whole, schema-valid lines
ending before ``campaign_finished`` — replaying it recovers the exact
set of dispatched/completed cells (the checkpoint/resume substrate; see
:mod:`repro.obs.campaign`).
"""

from __future__ import annotations

import json
from typing import IO, Iterable

__all__ = [
    "EVENT_TYPES",
    "CAMPAIGN_EVENT_TYPES",
    "PREDICTION_RESOLVED_KINDS",
    "PROVENANCE_EVENT_TYPES",
    "BLOCKER_KINDS",
    "TraceSchemaError",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "read_jsonl",
    "summarize_events",
]

#: type -> fields that must be present (beyond ``type`` and ``wall_time``).
_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "job_submitted": ("job_id", "sim_time"),
    "job_started": ("job_id", "sim_time", "wait_s"),
    "job_backfilled": ("job_id", "sim_time", "depth"),
    "job_finished": ("job_id", "sim_time"),
    "reservation_placed": ("sim_time", "start_s"),
    "reservation_shifted": ("sim_time", "start_s"),
    "replan_triggered": ("sim_time", "cause"),
    "cache_hit": ("job_id", "sim_time"),
    "cache_miss": ("job_id", "sim_time"),
    "wait_predicted": ("job_id", "sim_time", "predicted_wait_s"),
    "runtime_predicted": ("job_id", "sim_time", "predicted_run_s", "predictor"),
    "prediction_resolved": (
        "job_id", "sim_time", "kind", "predictor", "predicted_s", "actual_s",
    ),
    "span": ("name", "duration_s"),
    "start_blocked": ("job_id", "sim_time", "blocker_kind"),
    "reservation_binding": ("job_id", "sim_time", "start_s", "blocker_kind"),
    "backfill_hole_used": ("job_id", "sim_time", "hole_start_s"),
    "campaign_started": ("campaign_id", "cells_total", "max_workers"),
    "cell_dispatched": ("campaign_id", "cell_index"),
    "cell_heartbeat": ("campaign_id", "cells_done", "cells_running"),
    "cell_finished": ("campaign_id", "cell_index", "duration_s"),
    "cell_failed": ("campaign_id", "cell_index", "error"),
    "campaign_finished": (
        "campaign_id", "cells_done", "cells_failed", "duration_s",
    ),
}

EVENT_TYPES = frozenset(_REQUIRED_FIELDS)

#: The campaign-level subset journaled by the parallel table layer.
CAMPAIGN_EVENT_TYPES = frozenset(
    t for t in EVENT_TYPES if t.startswith(("campaign_", "cell_"))
)

#: Values ``prediction_resolved.kind`` may take.
PREDICTION_RESOLVED_KINDS = frozenset({"run_time", "wait_time"})

#: The decision-provenance subset (emitted only under the ``provenance``
#: instrumentation knob; see the "Decision provenance" taxonomy above).
PROVENANCE_EVENT_TYPES = frozenset(
    {"start_blocked", "reservation_binding", "backfill_hole_used"}
)

#: Values ``blocker_kind`` may take on provenance events.
BLOCKER_KINDS = frozenset({
    "running_job",          # a running job's node release is the constraint
    "active_reservation",   # an advance reservation currently holding nodes
    "advance_reservation",  # a pending advance reservation's future carve
    "queued_reservation",   # a backfill reservation promised to another queued job
    "queue_order",          # the job fits, but policy order puts another first
    "unknown",              # the anchor matched no tracked release
})

#: Fields that, when present, must be numbers.
_NUMERIC_FIELDS = (
    "wall_time", "sim_time", "wait_s", "run_s", "duration_s",
    "start_s", "previous_start_s", "scheduled_start_s", "predicted_wait_s",
    "predicted_run_s", "predicted_s", "actual_s", "error_s",
    "cpu_s", "max_rss_kb", "hole_start_s", "hole_end_s",
)
#: Fields that, when present, must be ints.
_INT_FIELDS = ("job_id", "depth", "nodes", "res_id",
               "cell_index", "cells_total", "cells_done", "cells_running",
               "cells_failed", "max_workers", "pid", "blocker_id",
               "ahead_job_id", "free_nodes")
#: Fields that, when present, must be strings.
_STR_FIELDS = ("policy", "cause", "name", "parent", "error", "predictor",
               "source", "kind", "campaign_id", "workload", "algorithm",
               "blocker_kind")


class TraceSchemaError(ValueError):
    """An event violating the trace schema."""


def validate_event(event: object) -> None:
    """Raise :class:`TraceSchemaError` unless ``event`` fits the schema."""
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event must be an object, got {type(event).__name__}")
    etype = event.get("type")
    if etype not in EVENT_TYPES:
        raise TraceSchemaError(f"unknown event type {etype!r}")
    if "wall_time" not in event:
        raise TraceSchemaError(f"{etype}: missing wall_time")
    for field in _REQUIRED_FIELDS[etype]:
        if field not in event:
            raise TraceSchemaError(f"{etype}: missing required field {field!r}")
    if etype.startswith("reservation_") and (
        "job_id" not in event and "res_id" not in event
    ):
        raise TraceSchemaError(f"{etype}: needs job_id or res_id")
    if etype == "prediction_resolved" and (
        event.get("kind") not in PREDICTION_RESOLVED_KINDS
    ):
        raise TraceSchemaError(
            f"{etype}: kind must be one of {sorted(PREDICTION_RESOLVED_KINDS)}, "
            f"got {event.get('kind')!r}"
        )
    if etype in ("start_blocked", "reservation_binding") and (
        event.get("blocker_kind") not in BLOCKER_KINDS
    ):
        raise TraceSchemaError(
            f"{etype}: blocker_kind must be one of {sorted(BLOCKER_KINDS)}, "
            f"got {event.get('blocker_kind')!r}"
        )
    for field in _NUMERIC_FIELDS:
        value = event.get(field)
        if value is not None and not isinstance(value, (int, float)):
            raise TraceSchemaError(f"{etype}: field {field!r} must be a number")
    for field in _INT_FIELDS:
        value = event.get(field)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise TraceSchemaError(f"{etype}: field {field!r} must be an int")
    for field in _STR_FIELDS:
        value = event.get(field)
        if value is not None and not isinstance(value, str):
            raise TraceSchemaError(f"{etype}: field {field!r} must be a string")


def validate_events(events: Iterable[dict]) -> int:
    """Validate each event; return how many were checked."""
    n = 0
    for event in events:
        validate_event(event)
        n += 1
    return n


def read_jsonl(source: str | IO[str], *, drop_torn_tail: bool = False) -> list[dict]:
    """Parse a JSONL trace file (path or open file) into event dicts.

    ``drop_torn_tail=True`` recovers a file whose writer was killed
    mid-write: a *final* line that lacks its terminating newline and
    fails to parse is silently dropped (the one tear the kill-safe
    :class:`~repro.obs.trace.JsonlSink` cannot prevent — see its
    docstring).  Any other malformed line still raises
    :class:`TraceSchemaError`.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    newline_terminated = text.endswith("\n")
    events = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError as exc:
            if drop_torn_tail and i == len(lines) and not newline_terminated:
                break
            raise TraceSchemaError(f"line {i}: not valid JSON ({exc})") from None
    return events


def validate_jsonl(source: str | IO[str]) -> int:
    """Round-trip a JSONL trace and validate every event; return the count."""
    return validate_events(read_jsonl(source))


def summarize_events(events: Iterable[dict]) -> list[dict]:
    """Per-(policy, type) event counts — the ``trace --summary`` breakdown.

    Events with no ``policy`` field (pure spans, observer events emitted
    outside a policy context) group under ``"-"``.  Rows come back
    sorted by policy then type, ready for table formatting.
    """
    counts: dict[tuple[str, str], int] = {}
    for event in events:
        key = (event.get("policy") or "-", event.get("type", "?"))
        counts[key] = counts.get(key, 0) + 1
    return [
        {"Policy": policy, "Event": etype, "Count": count}
        for (policy, etype), count in sorted(counts.items())
    ]
