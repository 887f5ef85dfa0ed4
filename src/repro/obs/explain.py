"""Offline per-job wait explanation.

Reconstructs, from any recorded trace, *why* a job waited: the timeline
of scheduler decisions that concerned it (submission, blocked-by chain,
reservation moves, backfill decisions, start, finish, predictions) and
a decomposition of its realized wait into attributable components.

Decomposition
-------------
The wait interval ``[submit, start)`` is partitioned at the instants the
job's provenance events (``start_blocked`` / ``reservation_binding``)
were emitted.  Each segment is bucketed by the blocker category its
opening event reported — the binding constraint held until the next
change-only event replaced it:

- ``blocked_on_running_s`` — bound by a running job's node release
  (``blocker_kind == "running_job"``);
- ``blocked_on_reservations_s`` — bound by an advance reservation,
  active or pending (``active_reservation`` / ``advance_reservation``);
- ``blocked_on_queue_s`` — bound by queue discipline: another queued
  job's protective reservation or an explicit head-of-line rule
  (``queued_reservation`` / ``queue_order``);
- ``scheduler_latency_s`` — everything unattributed: the gap between
  submission and the first attributing pass, ``unknown`` blockers, and
  the float residual of the partition.

**Invariant**: the four components sum to the realized wait — the same
number ``job_started.wait_s`` carries and ``PredictionAudit`` resolves
``wait_time`` predictions against.  The residual fold into
``scheduler_latency_s`` makes the sum exact up to one float rounding;
:func:`explain_job` asserts agreement to well under a second.

Requires a trace recorded with provenance (``repro-sched trace
--detail``) for a meaningful split; without provenance events the whole
wait lands in ``scheduler_latency_s``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "WAIT_COMPONENTS",
    "explain_job",
    "summarize_wait_components",
    "format_explanation",
]

#: The wait-decomposition component keys, in render order.
WAIT_COMPONENTS = (
    "blocked_on_running_s",
    "blocked_on_reservations_s",
    "blocked_on_queue_s",
    "scheduler_latency_s",
)

#: blocker_kind -> component.
_KIND_COMPONENT = {
    "running_job": "blocked_on_running_s",
    "active_reservation": "blocked_on_reservations_s",
    "advance_reservation": "blocked_on_reservations_s",
    "queued_reservation": "blocked_on_queue_s",
    "queue_order": "blocked_on_queue_s",
    "unknown": "scheduler_latency_s",
}

#: Event types that belong on a job's timeline (beyond life-cycle).
_TIMELINE_TYPES = frozenset({
    "job_submitted", "job_started", "job_backfilled", "job_finished",
    "start_blocked", "reservation_binding", "backfill_hole_used",
    "reservation_placed", "reservation_shifted",
    "wait_predicted", "runtime_predicted", "prediction_resolved",
})

#: The provenance types whose instants partition the wait interval.
_ATTRIBUTING_TYPES = ("start_blocked", "reservation_binding")


def _job_policy(events: list[dict], job_id: int, policy: str | None) -> str | None:
    """The policy whose replay of ``job_id`` to explain.

    Traces recorded by ``repro-sched trace`` interleave one replay per
    algorithm; a job id appears once per policy, so explaining it needs
    a single policy chosen.  Auto-selected when unambiguous.
    """
    policies = sorted({
        e.get("policy") or "-"
        for e in events
        if e.get("job_id") == job_id and e.get("type") == "job_submitted"
    })
    if policy is not None:
        if policies and policy not in policies:
            raise ValueError(
                f"job {job_id} has no events under policy {policy!r}; "
                f"it appears under {policies}"
            )
        return policy
    if len(policies) > 1:
        raise ValueError(
            f"job {job_id} appears under multiple policies {policies}; "
            "pass policy=... to select one"
        )
    return policies[0] if policies else None


def explain_job(
    events: Iterable[dict], job_id: int, *, policy: str | None = None
) -> dict:
    """Explain one job's wait from recorded trace events.

    Returns a dict with the job's life-cycle instants, its full decision
    timeline, the wait decomposition (see module docstring), and any
    recorded wait predictions paired with their resolution.  Raises
    :class:`ValueError` when the job is absent or the policy ambiguous.
    """
    events = list(events)
    policy = _job_policy(events, job_id, policy)
    timeline = [
        e for e in events
        if e.get("type") in _TIMELINE_TYPES
        and (e.get("policy") or "-") == (policy or "-")
        and (e.get("job_id") == job_id or e.get("ahead_job_id") == job_id)
    ]
    if not timeline:
        raise ValueError(
            f"no events for job {job_id}"
            + (f" under policy {policy!r}" if policy else "")
            + " — was the trace recorded with tracing on?"
        )
    timeline.sort(key=lambda e: e.get("sim_time", e.get("wall_time", 0.0)))

    submitted = started = finished = None
    nodes = None
    for e in timeline:
        if e.get("job_id") != job_id:
            continue
        if e["type"] == "job_submitted":
            submitted = e["sim_time"]
            nodes = e.get("nodes", nodes)
        elif e["type"] == "job_started":
            started = e["sim_time"]
            nodes = e.get("nodes", nodes)
        elif e["type"] == "job_finished":
            finished = e["sim_time"]

    predictions = []
    for e in timeline:
        if e.get("job_id") != job_id:
            continue
        if e["type"] == "wait_predicted":
            predictions.append({
                "predictor": e.get("predictor"),
                "predicted_wait_s": e["predicted_wait_s"],
                "actual_wait_s": None,
                "error_s": None,
            })
        elif e["type"] == "prediction_resolved" and e.get("kind") == "wait_time":
            for pred in predictions:
                if pred["predictor"] == e.get("predictor"):
                    pred["actual_wait_s"] = e["actual_s"]
                    pred["error_s"] = e.get("error_s")

    out = {
        "job_id": job_id,
        "policy": policy,
        "nodes": nodes,
        "submitted_s": submitted,
        "started_s": started,
        "finished_s": finished,
        "wait_s": (started - submitted)
        if (started is not None and submitted is not None) else None,
        "run_s": (finished - started)
        if (finished is not None and started is not None) else None,
        "decomposition": None,
        "predictions": predictions,
        "timeline": timeline,
    }
    if submitted is None or started is None:
        return out
    out["decomposition"] = _decompose(timeline, job_id, submitted, started)
    return out


def _decompose(
    timeline: list[dict], job_id: int, submitted: float, started: float
) -> dict:
    """Partition ``[submitted, started)`` by the job's provenance events."""
    return _partition(
        [
            (e["sim_time"], _mark_component(e))
            for e in timeline
            if e.get("job_id") == job_id
            and e["type"] in _ATTRIBUTING_TYPES
            and submitted <= e["sim_time"] < started
        ],
        submitted,
        started,
    )


def _mark_component(event: dict) -> str:
    """The wait component an attributing provenance event opens."""
    return _KIND_COMPONENT.get(event.get("blocker_kind"), "scheduler_latency_s")


def _partition(
    marks: list[tuple[float, str]], submitted: float, started: float
) -> dict:
    """Split ``[submitted, started)`` among already-ordered marks.

    Each ``(instant, component)`` mark inside the interval holds until
    the next one (or the start).  The unattributed head segment and the
    float residual fold into scheduler latency, clamped at zero, so the
    components sum to the realized wait.
    """
    components = {key: 0.0 for key in WAIT_COMPONENTS}
    for i, (t, component) in enumerate(marks):
        end = marks[i + 1][0] if i + 1 < len(marks) else started
        components[component] += end - t
    attributed = sum(components.values()) - components["scheduler_latency_s"]
    components["scheduler_latency_s"] = max((started - submitted) - attributed, 0.0)
    return components


def summarize_wait_components(events: Iterable[dict]) -> list[dict]:
    """Per-policy aggregate wait decomposition over every started job.

    One row per policy: job count, the four components summed over the
    policy's started jobs, and the total realized wait (their sum).
    Returns an empty list when the trace has no provenance events at all
    — the signal for report builders to omit the section.
    """
    # One pass bucketing per (policy, job): submit/start instants plus the
    # attributing provenance marks — equivalent to explain_job per job
    # but without re-filtering the whole trace each time.
    submits: dict[tuple[str, int], float] = {}
    starts: dict[tuple[str, int], float] = {}
    marks: dict[tuple[str, int], list[tuple[float, str]]] = {}
    saw_provenance = False
    for e in events:
        etype = e.get("type")
        if etype == "job_submitted":
            submits[(e.get("policy") or "-", e["job_id"])] = e["sim_time"]
        elif etype == "job_started":
            starts[(e.get("policy") or "-", e["job_id"])] = e["sim_time"]
        elif etype in _ATTRIBUTING_TYPES:
            saw_provenance = True
            key = (e.get("policy") or "-", e["job_id"])
            marks.setdefault(key, []).append((e["sim_time"], _mark_component(e)))
    if not saw_provenance:
        return []
    by_policy: dict[str, dict] = {}
    for key, start in starts.items():
        policy, _ = key
        submit = submits.get(key)
        if submit is None:
            continue
        row = by_policy.setdefault(
            policy,
            {"jobs": 0, "total_wait_s": 0.0,
             **{c: 0.0 for c in WAIT_COMPONENTS}},
        )
        row["jobs"] += 1
        row["total_wait_s"] += start - submit
        components = _partition(
            sorted(m for m in marks.get(key, ()) if submit <= m[0] < start),
            submit,
            start,
        )
        for c in WAIT_COMPONENTS:
            row[c] += components[c]
    return [
        {"policy": policy, **by_policy[policy]}
        for policy in sorted(by_policy)
    ]


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:,.1f}s"


def format_explanation(exp: dict, *, timeline: bool = True) -> str:
    """Human-readable rendering of an :func:`explain_job` result."""
    lines = [
        f"job {exp['job_id']}  policy={exp['policy'] or '-'}"
        + (f"  nodes={exp['nodes']}" if exp["nodes"] is not None else ""),
        f"  submitted {_fmt_seconds(exp['submitted_s'])}"
        f"  started {_fmt_seconds(exp['started_s'])}"
        f"  finished {_fmt_seconds(exp['finished_s'])}"
        f"  wait {_fmt_seconds(exp['wait_s'])}"
        f"  run {_fmt_seconds(exp['run_s'])}",
    ]
    decomposition = exp["decomposition"]
    if decomposition is None:
        lines.append("  wait decomposition: job never started in this trace")
    else:
        wait = exp["wait_s"]
        lines.append("  wait decomposition (components sum to the wait):")
        for key in WAIT_COMPONENTS:
            value = decomposition[key]
            share = f" ({100.0 * value / wait:.1f}%)" if wait else ""
            lines.append(f"    {key:<26} {_fmt_seconds(value):>14}{share}")
    for pred in exp["predictions"]:
        line = (
            f"  predicted wait [{pred['predictor'] or '-'}]: "
            f"{_fmt_seconds(pred['predicted_wait_s'])}"
        )
        if pred["error_s"] is not None:
            line += f"  (error {pred['error_s']:+,.1f}s)"
        lines.append(line)
    if timeline:
        lines.append(f"  timeline ({len(exp['timeline'])} events):")
        for e in exp["timeline"]:
            t = e.get("sim_time", 0.0)
            extra = []
            for field in ("blocker_kind", "blocker_id", "start_s", "cause",
                          "ahead_job_id", "hole_end_s", "depth",
                          "predicted_wait_s", "predictor", "wait_s"):
                if field in e:
                    extra.append(f"{field}={e[field]}")
            role = "" if e.get("job_id") == exp["job_id"] else " (backfiller)"
            lines.append(
                f"    t={t:>12,.1f}  {e['type']:<20}{role} "
                + " ".join(extra)
            )
    return "\n".join(lines)
