"""Tests for repro.core: registry, experiment drivers, table formatting."""

from __future__ import annotations

import pytest

from repro.core.experiment import (
    run_runtime_prediction_experiment,
    run_scheduling_experiment,
    run_wait_time_experiment,
)
from repro.core.parallel import run_grid
from repro.core.registry import PREDICTOR_NAMES, POLICY_NAMES, make_policy, make_predictor
from repro.core.tables import format_table
from repro.predictors.downey import DowneyPredictor
from repro.predictors.gibbons import GibbonsPredictor
from repro.predictors.simple import ActualRuntimePredictor, MaxRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy


class TestRegistry:
    def test_all_names_buildable(self, anl_trace):
        for name in PREDICTOR_NAMES:
            assert make_predictor(name, anl_trace) is not None
        for name in POLICY_NAMES:
            assert make_policy(name) is not None

    def test_predictor_types(self, anl_trace):
        assert isinstance(make_predictor("actual", anl_trace), ActualRuntimePredictor)
        assert isinstance(make_predictor("max", anl_trace), MaxRuntimePredictor)
        assert isinstance(make_predictor("smith", anl_trace), SmithPredictor)
        assert isinstance(make_predictor("gibbons", anl_trace), GibbonsPredictor)
        assert isinstance(
            make_predictor("downey-average", anl_trace), DowneyPredictor
        )

    def test_downey_kinds(self, anl_trace):
        assert make_predictor("downey-average", anl_trace).kind == "average"
        assert make_predictor("downey-median", anl_trace).kind == "median"

    def test_smith_templates_override(self, anl_trace):
        custom = [Template(characteristics=("u",))]
        p = make_predictor("smith", anl_trace, templates=custom)
        assert list(p.templates) == custom

    def test_policy_types(self):
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("lwf"), LWFPolicy)
        assert isinstance(make_policy("backfill"), BackfillPolicy)

    def test_unknown_names_raise(self, anl_trace):
        with pytest.raises(KeyError):
            make_predictor("oracle", anl_trace)
        with pytest.raises(KeyError):
            make_policy("sjf")


class TestExperimentDrivers:
    def test_scheduling_cell_fields(self, anl_trace):
        cell, result = run_scheduling_experiment(anl_trace, "lwf", "actual")
        assert cell.workload == "ANL"
        assert cell.algorithm == "LWF"
        assert cell.predictor == "actual"
        assert 0 < cell.utilization_percent <= 100.0
        assert cell.mean_wait_minutes >= 0.0
        assert cell.n_jobs == len(anl_trace)
        row = cell.as_row()
        assert row["Workload"] == "ANL"
        assert "Utilization (percent)" in row

    def test_wait_time_cell_fields(self, anl_trace):
        cell, report, result = run_wait_time_experiment(anl_trace, "lwf", "actual")
        assert cell.algorithm == "LWF"
        assert cell.mean_error_minutes >= 0.0
        assert cell.n_jobs == len(anl_trace)
        assert "Mean Error (minutes)" in cell.as_row()

    def test_fcfs_actual_wait_error_zero(self, anl_trace):
        cell, _, _ = run_wait_time_experiment(anl_trace, "fcfs", "actual")
        assert cell.mean_error_minutes == pytest.approx(0.0, abs=1e-6)

    def test_runtime_prediction_cell(self, anl_trace):
        cell = run_runtime_prediction_experiment(anl_trace, "actual")
        assert cell.mean_error_minutes == pytest.approx(0.0)
        cell_max = run_runtime_prediction_experiment(anl_trace, "max")
        assert cell_max.mean_error_minutes > 0.0

    def test_table_driver_covers_grid(self, anl_trace, sdsc_trace):
        cells = run_grid(
            "scheduling", workloads=[anl_trace, sdsc_trace], algorithms=("lwf",),
            predictors=("actual",),
        )
        assert [(c.workload, c.algorithm) for c in cells] == [
            ("ANL", "LWF"),
            ("SDSC95", "LWF"),
        ]

    def test_wait_table_driver(self, anl_trace):
        cells = run_grid(
            "wait-time", workloads=[anl_trace], algorithms=("lwf", "backfill"),
            predictors=("actual",),
        )
        assert len(cells) == 2
        assert {c.algorithm for c in cells} == {"LWF", "Backfill"}

    def test_utilization_invariant_across_predictors(self, anl_trace):
        """The paper's §4 finding: predictors barely move utilization."""
        u = {}
        for pred in ("actual", "max", "smith"):
            cell, _ = run_scheduling_experiment(anl_trace, "lwf", pred)
            u[pred] = cell.utilization_percent
        spread = max(u.values()) - min(u.values())
        assert spread < 5.0


class TestFormatTable:
    def test_renders_columns(self):
        rows = [
            {"Workload": "ANL", "Mean": 97.75},
            {"Workload": "CTC", "Mean": 171.14},
        ]
        text = format_table(rows, title="Table 1")
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "Workload" in lines[1]
        assert "ANL" in text and "171.14" in text

    def test_numeric_right_aligned(self):
        rows = [{"n": 5}, {"n": 12345}]
        text = format_table(rows)
        data_lines = text.splitlines()[2:]
        assert data_lines[0].endswith("5")
        assert data_lines[1].endswith("12345")

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_missing_cell_rendered_empty(self):
        text = format_table([{"a": 1}, {"a": None}])
        assert text  # no crash
