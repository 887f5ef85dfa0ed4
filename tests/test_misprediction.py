"""Tests for the misprediction-cost harness (experiments.misprediction)."""

from __future__ import annotations

import math

import pytest

from repro.core.experiment import run_scheduling_experiment
from repro.core.parallel import CellSpec, ExperimentPlan
from repro.experiments.misprediction import (
    DegradationCurve,
    ErrorModel,
    NoisyPredictor,
    run_misprediction_campaign,
    run_misprediction_experiment,
)
from repro.predictors.simple import ActualRuntimePredictor
from repro.workloads.archive import load_paper_workload
from tests.conftest import make_job


@pytest.fixture(scope="module")
def tiny_anl():
    return load_paper_workload("ANL", n_jobs=120)


class TestErrorModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(kind="bogus")
        with pytest.raises(ValueError):
            ErrorModel(level=-0.1)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_level(self, level):
        with pytest.raises(ValueError, match="level must be finite"):
            ErrorModel(level=level)

    def test_zero_level_is_identity(self):
        m = ErrorModel(level=0.0)
        assert m.apply(123.4, job_id=7) == 123.4

    def test_draws_are_deterministic_per_job_and_seed(self):
        a = ErrorModel(level=0.5, seed=3)
        b = ErrorModel(level=0.5, seed=3)
        assert a.gauss(42) == b.gauss(42)
        assert a.gauss(42) != a.gauss(43)
        assert ErrorModel(level=0.5, seed=4).gauss(42) != a.gauss(42)

    def test_multiplicative_is_median_preserving_scale(self):
        m = ErrorModel(kind="multiplicative", level=0.5, seed=0)
        est = m.apply(100.0, job_id=1)
        assert est > 0.0
        assert est == pytest.approx(100.0 * (m.apply(1.0, job_id=1)))

    def test_additive_floors_at_zero(self):
        m = ErrorModel(kind="additive", level=1e9, seed=0)
        draws = [m.apply(1.0, job_id=i) for i in range(20)]
        assert all(d >= 0.0 for d in draws)

    def test_describe(self):
        assert ErrorModel(kind="additive", level=0.25).describe() == "additive@0.25"


class TestNoisyPredictor:
    def test_zero_level_returns_base_prediction_object(self):
        """No float round trip at level 0: the base's Prediction object
        itself passes through."""
        from repro.predictors.base import Prediction, RuntimePredictor

        singleton = Prediction(estimate=500.0, interval=3.0)

        class Fixed(RuntimePredictor):
            def predict(self, job, elapsed=0.0, now=0.0):
                return singleton

        noisy = NoisyPredictor(Fixed(), ErrorModel(level=0.0))
        assert noisy.predict(make_job(), 0.0, 0.0) is singleton

    def test_noise_is_stable_across_calls(self):
        noisy = NoisyPredictor(ActualRuntimePredictor(), ErrorModel(level=0.5))
        job = make_job(run_time=500.0)
        assert noisy.predict(job).estimate == noisy.predict(job).estimate

    def test_proxies_epoch_and_invariance(self):
        base = ActualRuntimePredictor()
        noisy = NoisyPredictor(base, ErrorModel(level=0.5))
        assert noisy.history_epoch == base.history_epoch
        assert noisy.elapsed_invariant == base.elapsed_invariant


class TestExperiment:
    def test_zero_error_cell_bit_identical_to_oracle(self, tiny_anl):
        """The acceptance anchor: level 0 == the plain 'actual' cell."""
        for algo in ("backfill", "easy"):
            noisy_cell, noisy_result = run_misprediction_experiment(
                tiny_anl, algo, ErrorModel(level=0.0)
            )
            plain_cell, plain_result = run_scheduling_experiment(
                tiny_anl, algo, "actual"
            )
            assert noisy_cell.mean_wait_minutes == plain_cell.mean_wait_minutes
            assert noisy_cell.utilization_percent == plain_cell.utilization_percent
            assert (
                noisy_cell.mean_bounded_slowdown
                == plain_result.mean_bounded_slowdown()
                == noisy_result.mean_bounded_slowdown()
            )
            assert noisy_cell.injected_mae_minutes == 0.0

    def test_error_perturbs_the_schedule(self, tiny_anl):
        base, _ = run_misprediction_experiment(tiny_anl, "lwf", ErrorModel(level=0.0))
        noisy, _ = run_misprediction_experiment(
            tiny_anl, "lwf", ErrorModel(level=2.0)
        )
        assert noisy.injected_mae_minutes > 0.0
        assert noisy.mean_wait_minutes != base.mean_wait_minutes

    def test_cell_row_shape(self, tiny_anl):
        cell, _ = run_misprediction_experiment(tiny_anl, "fcfs", ErrorModel())
        row = cell.as_row()
        assert row["Workload"] == "ANL"
        assert row["Scheduling Algorithm"] == "FCFS"
        assert "Level" in row and "Injected MAE (min)" in row


class TestDegradationCurve:
    def _cell(self, tiny_anl, level):
        cell, _ = run_misprediction_experiment(
            tiny_anl, "fcfs", ErrorModel(level=level)
        )
        return cell

    def test_cells_must_be_level_ordered(self, tiny_anl):
        cells = (self._cell(tiny_anl, 1.0), self._cell(tiny_anl, 0.0))
        with pytest.raises(ValueError):
            DegradationCurve("ANL", "FCFS", "multiplicative", cells)
        DegradationCurve("ANL", "FCFS", "multiplicative", cells[::-1])

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            DegradationCurve("ANL", "FCFS", "multiplicative", ())

    def test_rows_carry_zero_anchored_degradation(self, tiny_anl):
        curve = DegradationCurve(
            "ANL", "FCFS", "multiplicative",
            (self._cell(tiny_anl, 0.0), self._cell(tiny_anl, 1.0)),
        )
        rows = curve.rows()
        assert rows[0]["Wait vs oracle (%)"] == 0.0
        assert isinstance(rows[1]["Wait vs oracle (%)"], float)


class TestCampaign:
    def test_curve_grid_shape(self, tiny_anl):
        curves = run_misprediction_campaign(
            workloads=[tiny_anl],
            algorithms=("backfill", "easy"),
            levels=(0.0, 0.5, 1.0),
        )
        assert [c.algorithm for c in curves] == ["Backfill", "EASY"]
        for curve in curves:
            assert [c.error_level for c in curve.cells] == [0.0, 0.5, 1.0]
            assert curve.baseline.error_level == 0.0
            assert curve.degradation_percent(curve.baseline) == 0.0

    def test_levels_sorted_before_running(self, tiny_anl):
        curves = run_misprediction_campaign(
            workloads=[tiny_anl], algorithms=("fcfs",), levels=(1.0, 0.0)
        )
        assert [c.error_level for c in curves[0].cells] == [0.0, 1.0]

    def test_empty_levels_rejected(self, tiny_anl):
        with pytest.raises(ValueError):
            run_misprediction_campaign(workloads=[tiny_anl], levels=())

    def test_parallel_equals_serial(self, tiny_anl):
        kwargs = dict(
            workloads=[tiny_anl],
            algorithms=("backfill",),
            levels=(0.0, 1.0),
        )
        serial = run_misprediction_campaign(**kwargs, max_workers=1)
        parallel = run_misprediction_campaign(**kwargs, max_workers=2)
        assert serial == parallel


class TestParallelSpecs:
    def test_misprediction_spec_requires_error_kind(self):
        with pytest.raises(ValueError):
            CellSpec(kind="misprediction", workload="ANL",
                     algorithm="fcfs", predictor="actual")

    def test_plan_orders_levels_ascending(self):
        plan = ExperimentPlan.for_grid(
            "misprediction", workloads=("ANL",), algorithms=("fcfs",),
            predictors=("actual",), levels=(1.0, 0.0, 0.5),
            error_kind="multiplicative", n_jobs=50,
        )
        assert [s.error_level for s in plan.cells] == [0.0, 0.5, 1.0]
        assert all(s.kind == "misprediction" for s in plan.cells)


class TestCLI:
    def test_misprediction_subcommand_parallel_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "misprediction",
                "--workloads", "ANL",
                "--n-jobs", "100",
                "--levels", "0", "0.5", "1",
                "--parallel", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # One curve per (workload, default algorithms backfill+easy),
        # three levels each.
        assert "misprediction degradation (ANL, Backfill" in out
        assert "misprediction degradation (ANL, EASY" in out
        assert out.count("multiplicative") >= 6
        assert "Wait vs oracle (%)" in out
