"""Additional tests for the whole-table grid driver and its workloads."""

from __future__ import annotations

import pytest

from repro.core.experiment import _resolve_traces
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

    def test_unknown_kind_rejected(self, small_trace):
        """A misspelt kind must not fall through to another grid's cells."""
        with pytest.raises(ValueError, match="kind"):
            run_grid(
                "runtime-error", workloads=[small_trace], algorithms=("fcfs",),
                predictors=("actual",),
            )
