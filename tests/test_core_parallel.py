"""Parallel table execution: serial↔parallel parity and failure paths.

The injected cell functions live at module level so they pickle by
reference into pool workers.
"""

from __future__ import annotations

import pytest

from repro.core.parallel import (
    CellSpec,
    ExperimentPlan,
    ParallelExecutionError,
    execute_cell,
    run_grid,
    run_table_parallel,
)
from repro.obs.metrics import merge_snapshots

#: Small enough that the whole grid replays in a couple of seconds.
N_JOBS = 60

WORKLOADS = ["ANL", "SDSC95"]
ALGORITHMS = ("lwf", "backfill")


# ----------------------------------------------------------------------
# injected cell functions (module-level: shipped to workers by name)
# ----------------------------------------------------------------------
def _raise_for_lwf(spec: CellSpec):
    if spec.algorithm == "lwf":
        raise RuntimeError("injected failure")
    return execute_cell(spec)


def _always_raise(spec: CellSpec):
    raise ValueError(f"cell {spec.workload}/{spec.algorithm} always fails")


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_scheduling_table_parity(self, workers):
        serial = _scheduling_grid(WORKLOADS, ALGORITHMS, n_jobs=N_JOBS)
        parallel = _scheduling_grid(
            WORKLOADS, ALGORITHMS, n_jobs=N_JOBS, max_workers=workers
        )
        # Dataclass equality *and* identical (stable) ordering.
        assert parallel == serial

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_wait_time_table_parity(self, workers):
        serial = _wait_time_grid(["ANL"], ("fcfs", "lwf"), n_jobs=N_JOBS)
        parallel = _wait_time_grid(
            ["ANL"], ("fcfs", "lwf"), n_jobs=N_JOBS, max_workers=workers
        )
        assert parallel == serial

    def test_trace_objects_with_provenance(self):
        from repro.workloads.archive import load_paper_workload

        trace = load_paper_workload("SDSC95", n_jobs=N_JOBS)
        serial = _scheduling_grid([trace], ("lwf",))
        parallel = _scheduling_grid([trace], ("lwf",), max_workers=2)
        assert parallel == serial

    def test_trace_without_provenance_rejected(self, small_trace):
        with pytest.raises(ValueError, match="provenance"):
            _scheduling_grid([small_trace], ("lwf",), max_workers=2)

    def test_folded_metrics_equal_sum_of_cell_snapshots(self):
        plan = ExperimentPlan.for_grid(
            "scheduling",
            predictors=("actual",),
            workloads=WORKLOADS,
            algorithms=ALGORITHMS,
            n_jobs=N_JOBS,
        )
        run = run_table_parallel(plan, max_workers=2)
        assert not run.failures
        merged = merge_snapshots(*(c.metrics for c in run.cells))
        assert merged["counters"] == {
            name: sum(c.metrics["counters"].get(name, 0) for c in run.cells)
            for name in merged["counters"]
        }
        for name, hist in merged["histograms"].items():
            assert hist["count"] == sum(
                c.metrics["histograms"][name]["count"]
                for c in run.cells
                if name in c.metrics["histograms"]
            )

    def test_parallel_metrics_totals_match_serial(self):
        serial = _scheduling_grid(WORKLOADS, ALGORITHMS, n_jobs=N_JOBS)
        plan = ExperimentPlan.for_grid(
            "scheduling",
            predictors=("actual",),
            workloads=WORKLOADS,
            algorithms=ALGORITHMS,
            n_jobs=N_JOBS,
        )
        run = run_table_parallel(plan, max_workers=4)
        serial_counters = merge_snapshots(*(c.metrics for c in serial))["counters"]
        parallel_counters = merge_snapshots(*(c.metrics for c in run.cells))["counters"]
        assert parallel_counters == serial_counters


# ----------------------------------------------------------------------
# plan / spec construction
# ----------------------------------------------------------------------
class TestPlan:
    def test_plan_orders_workload_outer_algorithm_inner(self):
        plan = ExperimentPlan.for_grid(
            "scheduling", predictors=("max",), workloads=["ANL", "CTC"],
            algorithms=("lwf", "backfill"),
        )
        assert [(s.workload, s.algorithm) for s in plan.cells] == [
            ("ANL", "lwf"),
            ("ANL", "backfill"),
            ("CTC", "lwf"),
            ("CTC", "backfill"),
        ]

    def test_grid_plan_matches_cli_row_order(self):
        plan = ExperimentPlan.for_grid(
            "scheduling",
            workloads=("ANL", "CTC"),
            algorithms=("lwf",),
            predictors=("actual", "max"),
        )
        assert [(s.workload, s.predictor) for s in plan.cells] == [
            ("ANL", "actual"),
            ("ANL", "max"),
            ("CTC", "actual"),
            ("CTC", "max"),
        ]

    def test_spec_validates(self):
        with pytest.raises(ValueError, match="kind"):
            CellSpec("tables", "ANL", "lwf", "max")
        with pytest.raises(ValueError, match="workload"):
            CellSpec("scheduling", "NERSC", "lwf", "max")

    def test_execute_cell_inline_equals_serial_driver(self):
        spec = CellSpec("scheduling", "ANL", "lwf", "actual", n_jobs=N_JOBS)
        [serial] = _scheduling_grid(["ANL"], ("lwf",), n_jobs=N_JOBS)
        assert execute_cell(spec) == serial


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
class TestFailures:
    def _plan(self, algorithms=ALGORITHMS):
        return ExperimentPlan.for_grid(
            "scheduling",
            predictors=("actual",),
            workloads=["ANL"],
            algorithms=algorithms,
            n_jobs=N_JOBS,
        )

    def test_worker_exception_becomes_cell_failure(self):
        run = run_table_parallel(
            self._plan(), max_workers=2, cell_fn=_raise_for_lwf
        )
        by_algo = {r.spec.algorithm: r for r in run.results}
        assert by_algo["backfill"].ok  # the healthy cell still completed
        failed = by_algo["lwf"]
        assert not failed.ok
        assert failed.failure.error == "RuntimeError: injected failure"
        # The run as a whole survives: one result slot per planned cell.
        assert len(run.results) == 2
        assert len(run.failures) == 1

    def test_table_driver_raises_on_failures(self):
        plan_error = ParallelExecutionError(
            run_table_parallel(
                self._plan(("lwf",)), max_workers=1, cell_fn=_always_raise
            ).failures
        )
        assert "lwf" in str(plan_error)
        assert plan_error.failures[0].error.startswith("ValueError: ")

    def test_error_message_names_coordinates(self):
        failures = run_table_parallel(
            self._plan(), max_workers=1, cell_fn=_always_raise
        ).failures
        message = str(ParallelExecutionError(failures))
        assert message.splitlines() == ["2 cell(s) failed:"] + [
            f"  - ANL/{algo}/actual: ValueError: cell ANL/{algo} always fails"
            for algo in ALGORITHMS
        ]

    def test_error_message_includes_misprediction_error_model(self):
        spec = CellSpec(
            "misprediction", "ANL", "backfill", "actual",
            error_kind="multiplicative", error_level=0.5,
        )
        assert spec.describe() == (
            "ANL/backfill/actual [multiplicative error, level=0.5]"
        )
        from repro.core.parallel import CellFailure

        message = str(ParallelExecutionError(
            [CellFailure(spec=spec, error="RuntimeError: boom")]
        ))
        assert message.splitlines()[1] == (
            "  - ANL/backfill/actual [multiplicative error, level=0.5]: "
            "RuntimeError: boom"
        )


# ----------------------------------------------------------------------
# campaign telemetry through the driver
# ----------------------------------------------------------------------
class TestTelemetry:
    def _plan(self):
        return ExperimentPlan.for_grid(
            "scheduling",
            predictors=("actual",),
            workloads=["ANL"],
            algorithms=ALGORITHMS,
            n_jobs=N_JOBS,
        )

    def test_telemetered_run_is_bit_identical_and_journals(self, tmp_path):
        from repro.obs.campaign import CampaignTelemetry, check_campaign_journal
        from repro.obs.schema import read_jsonl

        plain = run_table_parallel(self._plan(), max_workers=2)
        journal = tmp_path / "campaign.jsonl"
        with CampaignTelemetry(str(journal)) as telemetry:
            telemetered = run_table_parallel(
                self._plan(), max_workers=2, telemetry=telemetry
            )
        # The science is identical; only the observability differs.
        assert [r.cell for r in telemetered.results] == [
            r.cell for r in plain.results
        ]
        assert all(r.resources is None for r in plain.results)
        for r in telemetered.results:
            assert r.resources is not None
            assert r.resources.pid > 0
            assert r.resources.wall_s > 0
        events = read_jsonl(str(journal))
        stats = check_campaign_journal(events)
        assert stats["cells_total"] == len(self._plan())
        assert stats["cells_done"] == len(self._plan())
        assert stats["cells_failed"] == 0
        dispatched = [e for e in events if e["type"] == "cell_dispatched"]
        assert {(e["workload"], e["algorithm"], e["predictor"])
                for e in dispatched} == {
            ("ANL", a, "actual") for a in ALGORITHMS
        }

    def test_failing_cell_is_dispatched_once(self, tmp_path):
        from repro.obs.campaign import CampaignTelemetry, check_campaign_journal
        from repro.obs.schema import read_jsonl

        journal = tmp_path / "failing.jsonl"
        with CampaignTelemetry(str(journal)) as telemetry:
            run = run_table_parallel(
                self._plan(), max_workers=2,
                cell_fn=_raise_for_lwf, telemetry=telemetry,
            )
        assert len(run.failures) == 1
        events = read_jsonl(str(journal))
        stats = check_campaign_journal(events)
        assert stats["cells_done"] == 1 and stats["cells_failed"] == 1
        lwf = [
            e["type"] for e in events
            if e.get("algorithm") == "lwf" and e["type"].startswith("cell_")
        ]
        assert lwf == ["cell_dispatched", "cell_failed"]
        [failed] = [e for e in events if e["type"] == "cell_failed"]
        assert failed["error"] == "RuntimeError: injected failure"

    def test_telemetry_default_off_leaves_no_resources(self):
        run = run_table_parallel(self._plan(), max_workers=2)
        assert all(r.resources is None for r in run.results)

    def test_monitor_sees_live_state_without_sink(self):
        from repro.obs.campaign import CampaignTelemetry

        telemetry = CampaignTelemetry()  # no journal, monitor only
        run = run_table_parallel(
            self._plan(), max_workers=2, telemetry=telemetry
        )
        assert not run.failures
        assert telemetry.monitor.cells_done == len(self._plan())
        assert telemetry.monitor.finished_wall is not None
        assert telemetry.monitor.utilization() > 0


# ----------------------------------------------------------------------
# the serial contract every grid driver keeps
# ----------------------------------------------------------------------
def _misprediction_grid(workloads, algorithms, **kwargs):
    from repro.experiments.misprediction import run_misprediction_campaign

    return run_misprediction_campaign(
        workloads=workloads, algorithms=algorithms, levels=(0.0, 0.5), **kwargs
    )


def _scheduling_grid(workloads, algorithms, **kwargs):
    return run_grid(
        "scheduling", workloads=workloads, algorithms=algorithms,
        predictors=("actual",), **kwargs
    )


def _wait_time_grid(workloads, algorithms, **kwargs):
    return run_grid(
        "wait-time", workloads=workloads, algorithms=algorithms,
        predictors=("max",), **kwargs
    )


@pytest.mark.parametrize(
    "driver", [_scheduling_grid, _wait_time_grid, _misprediction_grid]
)
class TestSerialContract:
    def test_serial_accepts_trace_without_provenance(self, driver, small_trace):
        assert small_trace.provenance is None
        assert driver([small_trace], ("fcfs",), max_workers=1)

    def test_unknown_algorithm_raises_registry_error_serially(
        self, driver, small_trace
    ):
        with pytest.raises(KeyError, match="unknown policy"):
            driver([small_trace], ("nope",), max_workers=1)

    def test_unknown_algorithm_fails_the_parallel_run(self, driver):
        with pytest.raises(ParallelExecutionError, match="unknown policy"):
            driver(["ANL"], ("nope",), n_jobs=20, max_workers=2)
