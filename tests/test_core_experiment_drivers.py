"""Additional tests for the whole-table grid driver and its workloads."""

from __future__ import annotations

import pytest

from repro.core.experiment import _resolve_traces, run_wait_time_experiment
from repro.core.parallel import run_grid


class TestResolveTraces:
    def test_names_resolve_with_scaling(self):
        traces = _resolve_traces(["ANL", "SDSC96"], 60)
        assert [t.name for t in traces] == ["ANL", "SDSC96"]
        assert all(len(t) == 60 for t in traces)

    def test_trace_objects_pass_through(self, small_trace):
        [same] = _resolve_traces([small_trace], None)
        assert same is small_trace

    def test_default_is_all_four(self):
        traces = _resolve_traces(None, 30)
        assert [t.name for t in traces] == ["ANL", "CTC", "SDSC95", "SDSC96"]


class TestTableDriversByName:
    def test_scheduling_table_by_names(self):
        cells = run_grid(
            "scheduling", workloads=["SDSC95"], algorithms=("lwf",),
            predictors=("actual",), n_jobs=80,
        )
        assert len(cells) == 1
        assert cells[0].workload == "SDSC95"
        assert cells[0].n_jobs == 80

    def test_wait_table_by_names(self):
        cells = run_grid(
            "wait-time", workloads=["ANL"], algorithms=("fcfs",),
            predictors=("actual",), n_jobs=80,
        )
        assert len(cells) == 1
        assert cells[0].mean_error_minutes == pytest.approx(0.0, abs=1e-6)

    def test_templates_forwarded(self, anl_trace):
        from repro.predictors.templates import Template

        cells = run_grid(
            "scheduling",
            workloads=[anl_trace],
            algorithms=("lwf",),
            predictors=("smith",),
            templates=[Template()],
        )
        assert len(cells) == 1

    def test_unknown_kind_rejected(self, small_trace):
        """A misspelt kind must not fall through to another grid's cells."""
        with pytest.raises(ValueError, match="kind"):
            run_grid(
                "runtime-error", workloads=[small_trace], algorithms=("fcfs",),
                predictors=("actual",),
            )

    def test_custom_scheduler_predictor(self, anl_trace):
        """§3 default is max; an oracle-driven scheduler is also allowed."""
        cell_default, _, _ = run_wait_time_experiment(anl_trace, "backfill", "actual")
        cell_oracle, _, _ = run_wait_time_experiment(
            anl_trace, "backfill", "actual", scheduler_predictor="actual"
        )
        # With the scheduler itself on actual run times and the predictor
        # on actual run times, the only error source is later arrivals —
        # strictly fewer divergences than the max-driven default.
        assert cell_oracle.mean_error_minutes <= cell_default.mean_error_minutes + 1e-6
