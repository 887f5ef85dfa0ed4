"""Run-report builder, validator, and renderer (repro.obs.report)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import (
    REPORT_SCHEMA_VERSION,
    ReportSchemaError,
    build_report,
    format_report,
    report_to_json,
    validate_report,
)


def sample_events() -> list[dict]:
    """A tiny but fully-populated trace: two jobs under FCFS."""
    return [
        {"type": "job_submitted", "wall_time": 0.0, "sim_time": 0.0,
         "job_id": 1, "policy": "FCFS"},
        {"type": "runtime_predicted", "wall_time": 0.0, "sim_time": 0.0,
         "job_id": 1, "predicted_run_s": 100.0, "predictor": "smith",
         "source": "u/e"},
        {"type": "wait_predicted", "wall_time": 0.0, "sim_time": 0.0,
         "job_id": 1, "predicted_wait_s": 0.0, "predictor": "state-based"},
        {"type": "job_submitted", "wall_time": 0.0, "sim_time": 1.0,
         "job_id": 2, "policy": "FCFS"},
        {"type": "runtime_predicted", "wall_time": 0.0, "sim_time": 1.0,
         "job_id": 2, "predicted_run_s": 50.0, "predictor": "smith",
         "source": "u"},
        {"type": "job_started", "wall_time": 0.0, "sim_time": 0.0,
         "job_id": 1, "policy": "FCFS", "wait_s": 0.0},
        {"type": "prediction_resolved", "wall_time": 0.0, "sim_time": 0.0,
         "job_id": 1, "kind": "wait_time", "predictor": "state-based",
         "predicted_s": 0.0, "actual_s": 0.0, "error_s": 0.0},
        {"type": "job_started", "wall_time": 0.0, "sim_time": 120.0,
         "job_id": 2, "policy": "FCFS", "wait_s": 119.0},
        {"type": "job_finished", "wall_time": 0.0, "sim_time": 120.0,
         "job_id": 1, "policy": "FCFS", "run_s": 120.0},
        {"type": "prediction_resolved", "wall_time": 0.0, "sim_time": 120.0,
         "job_id": 1, "kind": "run_time", "predictor": "smith",
         "predicted_s": 100.0, "actual_s": 120.0, "error_s": -20.0,
         "source": "u/e"},
        {"type": "span", "wall_time": 0.0, "name": "schedule_pass",
         "duration_s": 0.001},
    ]


def sample_metrics() -> dict:
    return {
        "counters": {"sim.events_processed": 4, "sim.schedule_passes": 3},
        "histograms": {
            "sim.pass_duration_seconds": {
                "count": 3,
                "sum": 0.003,
                "bounds": [0.01, 0.1],
                "counts": [3, 0, 0],
            }
        },
    }


class TestBuildReport:
    def test_sections_present_and_valid(self):
        report = build_report(sample_events(), sample_metrics())
        validate_report(report)  # must not raise
        assert report["schema_version"] == REPORT_SCHEMA_VERSION

    def test_schedule_section(self):
        report = build_report(sample_events())
        (row,) = report["schedule"]
        assert row["policy"] == "FCFS"
        assert row["jobs_submitted"] == 2
        assert row["jobs_started"] == 2
        assert row["jobs_finished"] == 1
        assert row["mean_wait_s"] == pytest.approx(59.5)
        assert row["max_wait_s"] == pytest.approx(119.0)

    def test_accuracy_section(self):
        report = build_report(sample_events())
        accuracy = report["accuracy"]
        by_group = {
            (g["kind"], g["predictor"]): g for g in accuracy["groups"]
        }
        smith = by_group[("run_time", "smith")]
        assert smith["n"] == 1
        assert smith["mae"] == pytest.approx(20.0)
        assert smith["under_fraction"] == 1.0
        assert smith["keys"]["u/e"]["n"] == 1
        assert by_group[("wait_time", "state-based")]["mae"] == 0.0
        # Job 2's run-time prediction never resolved (no finish event).
        assert accuracy["recorded"] == {"run_time": 2, "wait_time": 1}
        assert accuracy["resolved"] == {"run_time": 1, "wait_time": 1}
        assert accuracy["unresolved"] == {"run_time": 1, "wait_time": 0}

    def test_overhead_section_with_metrics(self):
        report = build_report(sample_events(), sample_metrics())
        overhead = report["overhead"]
        assert overhead["events_total"] == len(sample_events())
        assert overhead["events_by_type"]["prediction_resolved"] == 2
        assert overhead["spans"]["schedule_pass"]["count"] == 1
        assert overhead["pass_duration"]["count"] == 3
        assert overhead["counters"]["sim.schedule_passes"] == 3

    def test_empty_trace(self):
        report = build_report([])
        validate_report(report)
        assert report["schedule"] == []
        assert report["accuracy"]["groups"] == []
        assert report["overhead"]["events_total"] == 0

    def test_report_is_json_serializable(self):
        report = build_report(sample_events(), sample_metrics())
        parsed = json.loads(report_to_json(report))
        assert parsed["schema_version"] == REPORT_SCHEMA_VERSION


class TestValidateReport:
    def _valid(self) -> dict:
        return build_report(sample_events(), sample_metrics())

    def test_non_dict_rejected(self):
        with pytest.raises(ReportSchemaError, match="object"):
            validate_report([1, 2])

    def test_wrong_schema_version(self):
        report = self._valid()
        report["schema_version"] = 99
        with pytest.raises(ReportSchemaError, match="schema_version"):
            validate_report(report)

    def test_missing_section(self):
        for section in ("schedule", "accuracy", "overhead"):
            report = self._valid()
            del report[section]
            with pytest.raises(ReportSchemaError, match=section):
                validate_report(report)

    def test_schedule_row_missing_field(self):
        report = self._valid()
        del report["schedule"][0]["mean_wait_s"]
        with pytest.raises(ReportSchemaError, match="mean_wait_s"):
            validate_report(report)

    def test_accuracy_group_missing_field(self):
        report = self._valid()
        del report["accuracy"]["groups"][0]["mae"]
        with pytest.raises(ReportSchemaError, match="mae"):
            validate_report(report)

    def test_accuracy_group_bad_count(self):
        report = self._valid()
        report["accuracy"]["groups"][0]["n"] = -1
        with pytest.raises(ReportSchemaError, match="count"):
            validate_report(report)

    def test_overhead_missing_total(self):
        report = self._valid()
        del report["overhead"]["events_total"]
        with pytest.raises(ReportSchemaError, match="events_total"):
            validate_report(report)


class TestFormatReport:
    def test_renders_all_tables(self):
        report = build_report(sample_events(), sample_metrics())
        text = format_report(report)
        assert "Schedule outcomes" in text
        assert "Prediction accuracy" in text
        assert "Per-template/source drill-down" in text
        assert "Trace volume" in text
        assert "scheduling passes: 3" in text
        assert "smith" in text and "state-based" in text
        assert "unresolved predictions: run_time=1" in text

    def test_formatting_does_not_mutate_report(self):
        report = build_report(sample_events(), sample_metrics())
        before = copy.deepcopy(report)
        format_report(report)
        assert report == before

    def test_empty_report_renders(self):
        text = format_report(build_report([]))
        assert "Trace volume (0 events)" in text


class TestCampaignSection:
    def _campaign_events(self) -> list[dict]:
        return [
            {"type": "campaign_started", "wall_time": 0.0, "campaign_id": "c",
             "cells_total": 2, "max_workers": 2},
            {"type": "cell_dispatched", "wall_time": 0.1, "campaign_id": "c",
             "cell_index": 0, "workload": "ANL",
             "algorithm": "lwf", "predictor": "max"},
            {"type": "cell_dispatched", "wall_time": 0.1, "campaign_id": "c",
             "cell_index": 1},
            {"type": "cell_finished", "wall_time": 1.1, "campaign_id": "c",
             "cell_index": 0, "duration_s": 1.0, "cpu_s": 0.9,
             "max_rss_kb": 4096, "pid": 9},
            {"type": "cell_finished", "wall_time": 2.1, "campaign_id": "c",
             "cell_index": 1, "duration_s": 2.0},
            {"type": "campaign_finished", "wall_time": 2.1, "campaign_id": "c",
             "cells_done": 2, "cells_failed": 0, "duration_s": 2.1},
        ]

    def test_absent_without_campaign_events(self):
        assert "campaign" not in build_report(sample_events())
        report = build_report([])
        assert "campaign" not in report
        validate_report(report)
        format_report(report)

    def test_built_validated_and_rendered(self):
        report = build_report(sample_events() + self._campaign_events())
        validate_report(report)
        campaign = report["campaign"]
        assert campaign["cells_total"] == 2
        assert campaign["cells_done"] == 2
        assert campaign["complete"] is True
        text = format_report(report)
        assert "Campaign: 2/2 cells done" in text
        json.loads(report_to_json(report))

    def test_zero_cell_campaign(self):
        events = [
            {"type": "campaign_started", "wall_time": 0.0, "campaign_id": "c",
             "cells_total": 0, "max_workers": 2},
            {"type": "campaign_finished", "wall_time": 0.1, "campaign_id": "c",
             "cells_done": 0, "cells_failed": 0, "duration_s": 0.1},
        ]
        report = build_report(events)
        validate_report(report)
        campaign = report["campaign"]
        assert campaign["cells_total"] == 0
        assert campaign["throughput_cells_per_s"] == 0.0
        assert campaign["eta_s"] is None
        assert campaign["duration_p50_s"] is None
        # rendering an empty campaign must not divide by zero
        assert "Campaign: 0/0 cells done" in format_report(report)

    def test_incomplete_campaign_flagged(self):
        report = build_report(self._campaign_events()[:-2])
        validate_report(report)
        assert report["campaign"]["complete"] is False
        assert "INCOMPLETE" in format_report(report)

    def test_campaign_section_missing_field_rejected(self):
        report = build_report(self._campaign_events())
        del report["campaign"]["cells_total"]
        with pytest.raises(ReportSchemaError, match="cells_total"):
            validate_report(report)
        report["campaign"] = "not a dict"
        with pytest.raises(ReportSchemaError, match="object"):
            validate_report(report)


class TestExplainabilitySection:
    def _provenance_events(self) -> list[dict]:
        return [
            {"type": "start_blocked", "wall_time": 0.0, "sim_time": 1.0,
             "job_id": 2, "policy": "FCFS", "blocker_kind": "running_job",
             "blocker_id": 1},
        ]

    def test_absent_without_provenance_events(self):
        report = build_report(sample_events())
        assert "explainability" not in report
        validate_report(report)
        assert "Explainability" not in format_report(report)

    def test_built_validated_and_rendered(self):
        report = build_report(sample_events() + self._provenance_events())
        validate_report(report)
        (row,) = report["explainability"]
        assert row["policy"] == "FCFS"
        assert row["jobs"] == 2
        # job 2 waits 119s, attributed to job 1's release from the
        # submit-instant mark on; job 1 starts immediately.
        assert row["total_wait_s"] == pytest.approx(119.0)
        assert row["blocked_on_running_s"] == pytest.approx(119.0)
        assert row["scheduler_latency_s"] == pytest.approx(0.0)
        text = format_report(report)
        assert "Explainability: where the waiting went" in text
        json.loads(report_to_json(report))

    def test_row_missing_field_rejected(self):
        report = build_report(sample_events() + self._provenance_events())
        del report["explainability"][0]["blocked_on_queue_s"]
        with pytest.raises(ReportSchemaError, match="blocked_on_queue_s"):
            validate_report(report)
        report["explainability"] = "not a list"
        with pytest.raises(ReportSchemaError, match="list"):
            validate_report(report)
