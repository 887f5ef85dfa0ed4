"""Self-contained run reports from a recorded trace.

``repro-sched report`` (and :func:`build_report` behind it) turns the
JSONL event trace of an instrumented replay — plus, optionally, the
metrics-registry snapshot that replay produced — into one document
answering the three questions a run leaves behind:

1. **What did the schedule do?**  Per-policy job life-cycle counts and
   realized wait statistics, derived from the ``job_*`` events.
2. **How good were the predictions, and where were they bad?**  The
   :class:`~repro.obs.accuracy.AccuracyMonitor` statistics rebuilt from
   the ``prediction_resolved`` events: per-predictor MAE, bias,
   p50/p90/p99 absolute error, under/over split, tail ratio and drift
   signal, plus per-template drill-down and unresolved-prediction
   counts.
3. **What did observing cost?**  Event volume by type and, when a
   metrics snapshot is supplied, the scheduling-pass duration histogram
   summary.

Traces that carry campaign events (a ``--journal`` file from the
parallel table layer, or a trace the two were merged into) gain a
fourth, optional ``campaign`` section: the replayed
:func:`repro.obs.campaign.summarize_campaign` view — cells
done/failed/unfinished, throughput, utilization, duration quantiles,
and stragglers.

Traces recorded with decision provenance (``--detail``) gain an
optional ``explainability`` section: the per-policy aggregate wait
decomposition from :func:`repro.obs.explain.summarize_wait_components`
— where the waiting time went (blocked on running jobs, on
reservations, on queue discipline, or unattributed scheduler latency).
Omitted entirely when the trace carries no provenance events.

The report is a plain JSON-serializable dict (``--json``), validated by
:func:`validate_report` (the CI report-smoke job's gate), and rendered
as aligned ASCII tables by :func:`format_report`.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.obs.accuracy import DEFAULT_DRIFT_WINDOW, AccuracyMonitor, _quantile
from repro.obs.metrics import histogram_quantile

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "ReportSchemaError",
    "build_report",
    "validate_report",
    "format_report",
    "report_to_json",
]

REPORT_SCHEMA_VERSION = 1


class ReportSchemaError(ValueError):
    """A run report violating the minimal report schema."""


def _schedule_section(events: list[Mapping]) -> list[dict]:
    per_policy: dict[str, dict] = {}
    waits: dict[str, list[float]] = {}
    for event in events:
        etype = event.get("type")
        if not isinstance(etype, str) or not etype.startswith(
            ("job_", "reservation_")
        ):
            continue
        policy = event.get("policy") or "-"
        row = per_policy.get(policy)
        if row is None:
            row = per_policy[policy] = {
                "policy": policy,
                "jobs_submitted": 0,
                "jobs_started": 0,
                "jobs_finished": 0,
                "jobs_backfilled": 0,
                "reservations_placed": 0,
            }
        if etype == "job_submitted":
            row["jobs_submitted"] += 1
        elif etype == "job_started":
            row["jobs_started"] += 1
            wait = event.get("wait_s")
            if isinstance(wait, (int, float)):
                waits.setdefault(policy, []).append(float(wait))
        elif etype == "job_finished":
            row["jobs_finished"] += 1
        elif etype == "job_backfilled":
            row["jobs_backfilled"] += 1
        elif etype == "reservation_placed":
            row["reservations_placed"] += 1
    out = []
    for policy in sorted(per_policy):
        row = per_policy[policy]
        w = waits.get(policy, [])
        row["mean_wait_s"] = sum(w) / len(w) if w else 0.0
        row["p90_wait_s"] = _quantile(sorted(w), 0.90) if w else 0.0
        row["max_wait_s"] = max(w) if w else 0.0
        out.append(row)
    return out


def _accuracy_section(events: list[Mapping], window: int) -> dict:
    monitor = AccuracyMonitor.from_events(events, window=window)
    recorded = {"run_time": 0, "wait_time": 0}
    resolved = {"run_time": 0, "wait_time": 0}
    for event in events:
        etype = event.get("type")
        if etype == "runtime_predicted":
            recorded["run_time"] += 1
        elif etype == "wait_predicted":
            recorded["wait_time"] += 1
        elif etype == "prediction_resolved":
            kind = event.get("kind")
            if kind in resolved:
                resolved[kind] += 1
    section = monitor.snapshot()
    section["recorded"] = recorded
    section["resolved"] = resolved
    section["unresolved"] = {
        kind: max(recorded[kind] - resolved[kind], 0) for kind in recorded
    }
    return section


def _overhead_section(
    events: list[Mapping], metrics: Mapping | None
) -> dict:
    by_type: dict[str, int] = {}
    span_totals: dict[str, list] = {}
    for event in events:
        etype = event.get("type", "?")
        by_type[etype] = by_type.get(etype, 0) + 1
        if etype == "span":
            name = event.get("name", "?")
            entry = span_totals.get(name)
            if entry is None:
                entry = span_totals[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += float(event.get("duration_s", 0.0))
    section: dict = {
        "events_total": len(events),
        "events_by_type": dict(sorted(by_type.items())),
        "spans": {
            name: {"count": count, "total_s": total}
            for name, (count, total) in sorted(span_totals.items())
        },
    }
    if metrics:
        hist = metrics.get("histograms", {}).get("sim.pass_duration_seconds")
        if hist and hist.get("count"):
            section["pass_duration"] = {
                "count": hist["count"],
                "mean_s": hist["sum"] / hist["count"],
                "p50_s": histogram_quantile(hist, 0.50),
                "p90_s": histogram_quantile(hist, 0.90),
                "p99_s": histogram_quantile(hist, 0.99),
            }
        counters = metrics.get("counters", {})
        picked = {
            name: counters[name]
            for name in (
                "sim.events_processed",
                "sim.schedule_passes",
                "sim.estimate_cache_hits",
                "sim.estimate_cache_misses",
                "sim.estimate_cache_flushes",
            )
            if name in counters
        }
        if picked:
            section["counters"] = picked
    return section


def _explainability_section(events: list[Mapping]) -> list[dict]:
    """Per-policy wait decomposition — ``[]`` when the trace has no
    provenance events (recorded without ``--detail``)."""
    # Lazy import for the same reason as the campaign section's.
    from repro.obs.explain import summarize_wait_components

    return summarize_wait_components(events)


def _campaign_section(events: list[Mapping]) -> dict | None:
    """The optional campaign section — ``None`` when the trace carries
    no campaign events (the common single-process case)."""
    # Lazy import mirrors format_report's: repro.obs.report loads with
    # only its own leaf dependencies.
    from repro.obs.campaign import summarize_campaign
    from repro.obs.schema import CAMPAIGN_EVENT_TYPES

    campaign_events = [
        e for e in events if e.get("type") in CAMPAIGN_EVENT_TYPES
    ]
    if not campaign_events:
        return None
    return summarize_campaign(campaign_events)


def build_report(
    events: Iterable[Mapping],
    metrics: Mapping | None = None,
    *,
    window: int = DEFAULT_DRIFT_WINDOW,
) -> dict:
    """Build a run report dict from trace events (+ optional metrics).

    ``events`` are parsed trace events (see
    :func:`repro.obs.schema.read_jsonl`); ``metrics`` is a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (or a
    :func:`~repro.obs.metrics.merge_snapshots` fold of several).
    """
    events = list(events)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "schedule": _schedule_section(events),
        "accuracy": _accuracy_section(events, window),
        "overhead": _overhead_section(events, metrics),
    }
    campaign = _campaign_section(events)
    if campaign is not None:
        report["campaign"] = campaign
    explainability = _explainability_section(events)
    if explainability:
        report["explainability"] = explainability
    return report


# ----------------------------------------------------------------------
# validation — the CI report-smoke job's minimal schema
# ----------------------------------------------------------------------
_GROUP_REQUIRED = ("kind", "predictor", "n", "mae", "under_fraction",
                   "over_fraction")
_SCHEDULE_REQUIRED = ("policy", "jobs_started", "jobs_finished", "mean_wait_s")


def validate_report(report: object) -> None:
    """Raise :class:`ReportSchemaError` unless ``report`` fits the schema."""
    if not isinstance(report, dict):
        raise ReportSchemaError(
            f"report must be an object, got {type(report).__name__}"
        )
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ReportSchemaError(
            f"schema_version must be {REPORT_SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    for section in ("schedule", "accuracy", "overhead"):
        if section not in report:
            raise ReportSchemaError(f"missing section {section!r}")
    if not isinstance(report["schedule"], list):
        raise ReportSchemaError("schedule must be a list")
    for row in report["schedule"]:
        for field in _SCHEDULE_REQUIRED:
            if field not in row:
                raise ReportSchemaError(f"schedule row missing {field!r}")
    accuracy = report["accuracy"]
    if not isinstance(accuracy, dict) or "groups" not in accuracy:
        raise ReportSchemaError("accuracy must be an object with 'groups'")
    for group in accuracy["groups"]:
        for field in _GROUP_REQUIRED:
            if field not in group:
                raise ReportSchemaError(f"accuracy group missing {field!r}")
        if not isinstance(group["n"], int) or group["n"] < 0:
            raise ReportSchemaError("accuracy group 'n' must be a count")
    overhead = report["overhead"]
    if not isinstance(overhead, dict) or "events_total" not in overhead:
        raise ReportSchemaError("overhead must be an object with 'events_total'")
    campaign = report.get("campaign")
    if campaign is not None:
        if not isinstance(campaign, dict):
            raise ReportSchemaError("campaign must be an object")
        for field in ("cells_total", "cells_done", "cells_failed", "complete"):
            if field not in campaign:
                raise ReportSchemaError(f"campaign section missing {field!r}")
    explainability = report.get("explainability")
    if explainability is not None:
        if not isinstance(explainability, list):
            raise ReportSchemaError("explainability must be a list")
        from repro.obs.explain import WAIT_COMPONENTS

        for row in explainability:
            for field in ("policy", "jobs", "total_wait_s", *WAIT_COMPONENTS):
                if field not in row:
                    raise ReportSchemaError(
                        f"explainability row missing {field!r}"
                    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_minutes(seconds: float | None) -> object:
    return "-" if seconds is None else round(seconds / 60.0, 2)


def format_report(report: Mapping) -> str:
    """Render a report dict as aligned ASCII tables."""
    # Lazy import: repro.obs stays import-light / dependency-free at
    # module load; by render time the full package is available.
    from repro.core.tables import format_table

    parts: list[str] = []
    sched_rows = [
        {
            "Policy": row["policy"],
            "Started": row["jobs_started"],
            "Finished": row["jobs_finished"],
            "Backfilled": row.get("jobs_backfilled", 0),
            "Mean wait (min)": _fmt_minutes(row["mean_wait_s"]),
            "p90 wait (min)": _fmt_minutes(row.get("p90_wait_s")),
            "Max wait (min)": _fmt_minutes(row.get("max_wait_s")),
        }
        for row in report["schedule"]
    ]
    parts.append(format_table(sched_rows, title="Schedule outcomes"))

    accuracy = report["accuracy"]
    acc_rows = []
    for g in accuracy["groups"]:
        acc_rows.append(
            {
                "Kind": g["kind"],
                "Predictor": g["predictor"],
                "N": g["n"],
                "MAE (min)": _fmt_minutes(g["mae"]),
                "p50 (min)": _fmt_minutes(g.get("p50")),
                "p90 (min)": _fmt_minutes(g.get("p90")),
                "p99 (min)": _fmt_minutes(g.get("p99")),
                "Under %": round(100.0 * g["under_fraction"]),
                "Over %": round(100.0 * g["over_fraction"]),
                "Tail": "-" if g.get("tail_ratio") is None
                else round(g["tail_ratio"], 1),
                "Drift": "-" if g.get("drift_ratio") is None
                else round(g["drift_ratio"], 2),
            }
        )
    parts.append(
        format_table(
            acc_rows,
            title=(
                "Prediction accuracy (tail = p99/p50 abs error, drift = "
                f"rolling/overall MAE, window {accuracy.get('window', '?')})"
            ),
        )
    )
    unresolved = accuracy.get("unresolved", {})
    if any(unresolved.values()):
        parts.append(
            "unresolved predictions: "
            + ", ".join(f"{k}={v}" for k, v in sorted(unresolved.items()) if v)
        )

    key_rows = []
    for g in accuracy["groups"]:
        for key, stats in list(g.get("keys", {}).items()):
            key_rows.append(
                {
                    "Kind": g["kind"],
                    "Predictor": g["predictor"],
                    "Source": key,
                    "N": stats["n"],
                    "MAE (min)": _fmt_minutes(stats["mae"]),
                    "Under": stats.get("under", 0),
                    "Over": stats.get("over", 0),
                }
            )
    if key_rows:
        key_rows.sort(key=lambda r: (r["Kind"], r["Predictor"], -r["N"]))
        parts.append(
            format_table(key_rows[:20], title="Per-template/source drill-down")
        )

    overhead = report["overhead"]
    ev_rows = [
        {"Event": etype, "Count": count}
        for etype, count in overhead["events_by_type"].items()
    ]
    parts.append(
        format_table(
            ev_rows, title=f"Trace volume ({overhead['events_total']} events)"
        )
    )
    pd = overhead.get("pass_duration")
    if pd:
        parts.append(
            f"scheduling passes: {pd['count']}  mean={pd['mean_s'] * 1e6:.1f}us  "
            f"p50={pd['p50_s'] * 1e6:.1f}us  p90={pd['p90_s'] * 1e6:.1f}us  "
            f"p99={pd['p99_s'] * 1e6:.1f}us"
        )

    explainability = report.get("explainability")
    if explainability:
        exp_rows = []
        for row in explainability:
            total = row["total_wait_s"]

            def pct(value: float, _total: float = total) -> object:
                return round(100.0 * value / _total, 1) if _total else 0.0

            exp_rows.append(
                {
                    "Policy": row["policy"],
                    "Jobs": row["jobs"],
                    "Total wait (min)": _fmt_minutes(total),
                    "Running %": pct(row["blocked_on_running_s"]),
                    "Reservations %": pct(row["blocked_on_reservations_s"]),
                    "Queue %": pct(row["blocked_on_queue_s"]),
                    "Latency %": pct(row["scheduler_latency_s"]),
                }
            )
        parts.append(
            format_table(
                exp_rows,
                title=(
                    "Explainability: where the waiting went "
                    "(components sum to the realized wait)"
                ),
            )
        )

    campaign = report.get("campaign")
    if campaign:
        lines = [
            "Campaign"
            + ("" if campaign["complete"] else " [INCOMPLETE]")
            + f": {campaign['cells_done']}/{campaign['cells_total']} cells "
            f"done, {campaign['cells_failed']} failed, "
            f"{campaign['cells_running']} unfinished  "
            f"(workers {campaign['max_workers']}, "
            f"{campaign['throughput_cells_per_s']:.2f} cells/s, "
            f"utilization {100 * campaign['utilization']:.0f}%)"
        ]
        if campaign.get("duration_p50_s") is not None:
            lines.append(
                f"  cell duration p50={campaign['duration_p50_s']:.3g}s "
                f"p90={campaign['duration_p90_s']:.3g}s "
                f"p99={campaign['duration_p99_s']:.3g}s"
            )
        for s in campaign.get("stragglers", []):
            state = "running" if s["running"] else "finished"
            lines.append(
                f"  straggler: cell {s['cell_index']} ({s['cell']}) "
                f"{s['duration_s']:.3g}s, {state}"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


def report_to_json(report: Mapping, *, indent: int | None = 2) -> str:
    return json.dumps(report, indent=indent, sort_keys=True)
