"""The paper's two experiment families.

**Wait-time prediction** (§3, Tables 4-9): the scheduler runs on user
maximum run times — the paper's stated simulation setup — while a
:class:`~repro.waitpred.predictor.WaitTimePredictor` observer, backed by
the evaluated run-time predictor, predicts every job's wait at
submission.  The cell reports mean |predicted − actual| wait in minutes
and as a percentage of the mean wait.

**Scheduling performance** (§4, Tables 10-15): the evaluated predictor
drives the scheduler itself (LWF's work ordering, backfill's profile);
the cell reports utilization and mean wait time.

A third driver scores raw run-time prediction accuracy (§3's
percentage-of-mean-run-time numbers) via the online replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.registry import make_policy, make_predictor
from repro.core.rounding import round_half_up
from repro.predictors.base import PointEstimator
from repro.predictors.replay import replay_prediction_error
from repro.scheduler.metrics import ScheduleResult
from repro.scheduler.simulator import Simulator
from repro.waitpred.evaluation import WaitPredictionReport, evaluate_wait_predictions
from repro.waitpred.predictor import WaitTimePredictor
from repro.workloads.archive import PAPER_WORKLOADS, load_paper_workload
from repro.workloads.job import Trace
from repro.workloads.transform import compress_interarrival

__all__ = [
    "WaitTimeCell",
    "SchedulingCell",
    "RuntimePredictionCell",
    "run_wait_time_experiment",
    "run_scheduling_experiment",
    "run_runtime_prediction_experiment",
    "load_trace",
]


@dataclass(frozen=True)
class WaitTimeCell:
    """One row of a Table 4-9 style result."""

    workload: str
    algorithm: str
    predictor: str
    mean_error_minutes: float
    percent_of_mean_wait: float
    mean_wait_minutes: float
    n_jobs: int
    #: Registry snapshot of the replay that produced the cell (see
    #: repro.obs); excluded from equality so result comparisons stay
    #: about the science, not the bookkeeping.
    metrics: dict | None = field(default=None, compare=False, repr=False)

    def as_row(self) -> dict[str, object]:
        return {
            "Workload": self.workload,
            "Scheduling Algorithm": self.algorithm,
            "Mean Error (minutes)": round(self.mean_error_minutes, 2),
            "Percentage of Mean Wait Time": round_half_up(self.percent_of_mean_wait),
        }


@dataclass(frozen=True)
class SchedulingCell:
    """One row of a Table 10-15 style result."""

    workload: str
    algorithm: str
    predictor: str
    utilization_percent: float
    mean_wait_minutes: float
    n_jobs: int
    #: Registry snapshot of the replay that produced the cell.
    metrics: dict | None = field(default=None, compare=False, repr=False)

    def as_row(self) -> dict[str, object]:
        return {
            "Workload": self.workload,
            "Scheduling Algorithm": self.algorithm,
            "Utilization (percent)": round(self.utilization_percent, 2),
            "Mean Wait Time (minutes)": round(self.mean_wait_minutes, 2),
        }


@dataclass(frozen=True)
class RuntimePredictionCell:
    """Run-time prediction accuracy for one (workload, predictor)."""

    workload: str
    predictor: str
    mean_error_minutes: float
    percent_of_mean_run_time: float
    n_jobs: int

    def as_row(self) -> dict[str, object]:
        return {
            "Workload": self.workload,
            "Predictor": self.predictor,
            "Mean Error (minutes)": round(self.mean_error_minutes, 2),
            "Percentage of Mean Run Time": round_half_up(self.percent_of_mean_run_time),
        }


# ----------------------------------------------------------------------
# single-cell drivers
# ----------------------------------------------------------------------
def _resolve_templates(predictor_name, trace, policy_name):
    """For ``smith-tuned``, prefer the per-(workload, algorithm) searched
    set — the paper's 12-search methodology — over the workload-level one."""
    if predictor_name != "smith-tuned":
        return None
    from repro.predictors.tuned import TUNED_TEMPLATES_BY_ALGORITHM

    return TUNED_TEMPLATES_BY_ALGORITHM.get((trace.base_name, policy_name), None)


def run_wait_time_experiment(
    trace: Trace,
    policy_name: str,
    predictor_name: str,
) -> tuple[WaitTimeCell, WaitPredictionReport, ScheduleResult]:
    """Tables 4-9 cell: wait-time prediction accuracy.

    The scheduler's own estimates are user maxima (§3); the observer's
    come from ``predictor_name``.  The observer simulates forward with
    its own policy instance, so its passes leave the live replay's kept
    backfill plan alone.
    """
    policy = make_policy(policy_name)
    templates = _resolve_templates(predictor_name, trace, policy_name)
    scheduler_estimator = PointEstimator(make_predictor("max", trace))
    sim = Simulator(policy, scheduler_estimator, trace.total_nodes)
    observer = WaitTimePredictor(
        make_policy(policy_name),
        make_predictor(predictor_name, trace, templates=templates),
        scheduler_estimator=scheduler_estimator,
    )
    sim.add_observer(observer)
    result = sim.run(trace)
    report = evaluate_wait_predictions(result, observer.predicted_waits)
    cell = WaitTimeCell(
        workload=trace.name,
        algorithm=policy.name,
        predictor=predictor_name,
        mean_error_minutes=report.mean_abs_error_minutes,
        percent_of_mean_wait=report.percent_of_mean_wait,
        mean_wait_minutes=report.mean_wait_minutes,
        n_jobs=report.n_jobs,
        metrics=sim.metrics_snapshot(),
    )
    return cell, report, result


def run_scheduling_experiment(
    trace: Trace,
    policy_name: str,
    predictor_name: str,
) -> tuple[SchedulingCell, ScheduleResult]:
    """Tables 10-15 cell: scheduling performance under a predictor."""
    policy = make_policy(policy_name)
    templates = _resolve_templates(predictor_name, trace, policy_name)
    estimator = PointEstimator(
        make_predictor(predictor_name, trace, templates=templates)
    )
    sim = Simulator(policy, estimator, trace.total_nodes)
    result = sim.run(trace)
    cell = SchedulingCell(
        workload=trace.name,
        algorithm=policy.name,
        predictor=predictor_name,
        utilization_percent=result.utilization_percent,
        mean_wait_minutes=result.mean_wait_minutes,
        n_jobs=len(result),
        metrics=sim.metrics_snapshot(),
    )
    return cell, result


def run_runtime_prediction_experiment(
    trace: Trace, predictor_name: str
) -> RuntimePredictionCell:
    """Run-time prediction accuracy via online replay (§3 text numbers)."""
    report = replay_prediction_error(trace, make_predictor(predictor_name, trace))
    return RuntimePredictionCell(
        workload=trace.name,
        predictor=predictor_name,
        mean_error_minutes=report.mean_abs_error_minutes,
        percent_of_mean_run_time=100.0 * report.error_fraction_of_mean_run_time,
        n_jobs=report.n_jobs,
    )


# ----------------------------------------------------------------------
# grid workloads (the grid driver itself is repro.core.parallel.run_grid)
# ----------------------------------------------------------------------
def load_trace(
    workload: str | Trace,
    n_jobs: int | None = None,
    seed: int | None = None,
    compress: float = 1.0,
) -> Trace:
    """One grid workload as a trace, generated from its recipe if named.

    A :class:`Trace` passes through; a paper workload name is generated
    from the ``(n_jobs, seed, compress)`` recipe that
    :class:`repro.core.parallel.CellSpec` carries to pool workers.
    """
    if isinstance(workload, Trace):
        return workload
    trace = load_paper_workload(workload, n_jobs=n_jobs, seed=seed)
    return trace if compress == 1.0 else compress_interarrival(trace, compress)


def _resolve_traces(
    workloads: Sequence[str] | Sequence[Trace] | None,
    n_jobs: int | None,
    seed: int | None = None,
    compress: float = 1.0,
) -> list[Trace]:
    if workloads is None:
        workloads = tuple(PAPER_WORKLOADS)
    return [load_trace(w, n_jobs, seed, compress) for w in workloads]
