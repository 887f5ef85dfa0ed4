"""Observability: metrics, event tracing, profiling, prediction audit.

The subsystem is self-contained (stdlib only) and wired through the
replay engines, the predictor adapter, and the wait predictors.  See
the "Observability" section of ``docs/architecture.md`` for the event
taxonomy, metric names and overhead budget, and ``repro-sched trace`` /
``repro-sched report`` for the user-facing entry points.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Instrumentation",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "histogram_quantile",
    "format_histogram",
    "format_metrics",
    "format_prometheus",
    "WAIT_TIME_BUCKETS",
    "PASS_DURATION_BUCKETS",
    "BACKFILL_DEPTH_BUCKETS",
    "CELL_DURATION_BUCKETS",
    "QUERY_LATENCY_BUCKETS",
    "Tracer",
    "Span",
    "EventSink",
    "NullSink",
    "ListSink",
    "JsonlSink",
    "NULL_TRACER",
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
    "PredictionAudit",
    "AccuracyMonitor",
    "GroupStats",
    "PREDICTION_KINDS",
    "DEFAULT_DRIFT_WINDOW",
    "REPORT_SCHEMA_VERSION",
    "ReportSchemaError",
    "build_report",
    "validate_report",
    "format_report",
    "report_to_json",
    "CampaignTelemetry",
    "CampaignMonitor",
    "ProgressRenderer",
    "CampaignCheckError",
    "CellResources",
    "capture_resources",
    "resource_probe",
    "read_campaign_journal",
    "check_campaign_journal",
    "summarize_campaign",
    "StateSeries",
    "TIMESERIES_METRICS",
    "sparkline",
    "format_timeseries",
    "WAIT_COMPONENTS",
    "explain_job",
    "summarize_wait_components",
    "format_explanation",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.accuracy": (
        "DEFAULT_DRIFT_WINDOW", "PREDICTION_KINDS", "AccuracyMonitor", "GroupStats",
    ),
    "repro.obs.audit": ("PredictionAudit",),
    "repro.obs.campaign": (
        "CampaignCheckError", "CampaignMonitor", "CampaignTelemetry", "CellResources",
        "ProgressRenderer", "capture_resources", "check_campaign_journal", "read_campaign_journal",
        "resource_probe", "summarize_campaign",
    ),
    "repro.obs.explain": (
        "WAIT_COMPONENTS", "explain_job", "format_explanation", "summarize_wait_components",
    ),
    "repro.obs.instrument": ("Instrumentation",),
    "repro.obs.metrics": (
        "BACKFILL_DEPTH_BUCKETS", "CELL_DURATION_BUCKETS", "PASS_DURATION_BUCKETS",
        "QUERY_LATENCY_BUCKETS", "WAIT_TIME_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry", "format_histogram", "format_metrics", "format_prometheus",
        "histogram_quantile", "merge_snapshots",
    ),
    "repro.obs.report": (
        "REPORT_SCHEMA_VERSION", "ReportSchemaError", "build_report", "format_report",
        "report_to_json", "validate_report",
    ),
    "repro.obs.schema": (
        "BLOCKER_KINDS", "CAMPAIGN_EVENT_TYPES", "EVENT_TYPES", "PREDICTION_RESOLVED_KINDS",
        "PROVENANCE_EVENT_TYPES", "TraceSchemaError", "read_jsonl", "summarize_events",
        "validate_event", "validate_events", "validate_jsonl",
    ),
    "repro.obs.timeseries": ("TIMESERIES_METRICS", "StateSeries", "format_timeseries", "sparkline"),
    "repro.obs.trace": (
        "NULL_TRACER", "EventSink", "JsonlSink", "ListSink", "NullSink", "Span", "Tracer",
    ),
})
