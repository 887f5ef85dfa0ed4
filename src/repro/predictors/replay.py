"""Online replay of a trace through a predictor.

Scores a predictor the way the paper's run-time prediction experiments
do: walk the trace in submission order, predict each job's run time at
the moment it is submitted, and insert completed jobs into the
predictor's history as soon as they finish.  Scheduling is not simulated
here — completion is approximated as ``submit + run`` (zero wait), which
preserves the online causal order (a job's own outcome is never visible
to its prediction) while staying cheap enough to serve as the genetic
search's fitness function.

The full-fidelity variant, where predictions fire at every scheduling
attempt of a real simulation, lives in :mod:`repro.core.experiment`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.predictors.base import PointEstimator, RuntimePredictor
from repro.utils.timeutils import seconds_to_minutes
from repro.workloads.job import Trace

__all__ = ["ReplayReport", "replay_prediction_error"]


@dataclass(frozen=True)
class ReplayReport:
    """Accuracy of one predictor over one trace replay."""

    n_jobs: int
    n_predicted: int  # predictions served by the predictor itself
    n_fallback: int  # predictions served by the fallback chain
    mean_abs_error: float  # seconds
    mean_run_time: float  # seconds

    @property
    def mean_abs_error_minutes(self) -> float:
        return seconds_to_minutes(self.mean_abs_error)

    @property
    def error_fraction_of_mean_run_time(self) -> float:
        """The paper's 'percentage of mean run time' metric, as a fraction."""
        if self.mean_run_time <= 0:
            return 0.0
        return self.mean_abs_error / self.mean_run_time


def replay_prediction_error(trace: Trace, predictor: RuntimePredictor) -> ReplayReport:
    """Replay ``trace`` through ``predictor`` and report its accuracy.

    The predictor is mutated (its history grows); pass a fresh instance.
    """
    estimator = PointEstimator(predictor)
    completions: list[tuple[float, int]] = []  # (finish_time, index into trace)
    jobs = list(trace)
    abs_errors = np.empty(len(jobs))
    n_predicted = 0
    for i, job in enumerate(jobs):
        while completions and completions[0][0] <= job.submit_time:
            finish_time, idx = heapq.heappop(completions)
            estimator.on_finish(jobs[idx], finish_time)
        if predictor.predict(job, 0.0, job.submit_time) is not None:
            n_predicted += 1
        est = estimator.predict(job, 0.0, job.submit_time)
        abs_errors[i] = abs(est - job.run_time)
        heapq.heappush(completions, (job.submit_time + job.run_time, i))
    n = len(jobs)
    return ReplayReport(
        n_jobs=n,
        n_predicted=n_predicted,
        n_fallback=n - n_predicted,
        mean_abs_error=float(abs_errors.mean()) if n else 0.0,
        mean_run_time=float(np.mean([j.run_time for j in jobs])) if n else 0.0,
    )
