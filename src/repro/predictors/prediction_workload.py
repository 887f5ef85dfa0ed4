"""Prediction workloads recorded from scheduling simulations (§2.1).

The paper does not score predictors on a fixed request stream: each
scheduling algorithm asks for predictions at different moments —

- *wait-time prediction*: every running and queued job is predicted at
  every submission;
- *LWF scheduling*: all waiting jobs are predicted at every scheduling
  attempt (any submission or completion);
- *backfill scheduling*: all running **and** waiting jobs are predicted
  at every attempt, running ones conditioned on their elapsed time;

and jobs are inserted into the history as they complete.  The paper
records these streams from simulations driven by max-run-time estimates
("we generate our run-time prediction workloads for scheduling using
maximum run times") and searches templates against them, one search per
algorithm/trace pair — 12 searches in all.

This module reproduces that methodology: :func:`record_prediction_workload`
runs the simulation and captures the exact (job, elapsed, time) request
stream plus insertions; :func:`replay_workload_error` scores any
predictor against a recorded stream; the genetic search accepts such a
workload as its fitness target.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.predictors.base import PointEstimator, RuntimePredictor
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job, Trace

__all__ = [
    "PredictionRequest",
    "Insertion",
    "PredictionWorkload",
    "record_prediction_workload",
    "replay_workload_error",
]


@dataclass(frozen=True)
class PredictionRequest:
    """One moment at which the scheduler needed a run-time prediction."""

    job: Job
    elapsed: float
    time: float


@dataclass(frozen=True)
class Insertion:
    """One completed job entering the historical database."""

    job: Job
    time: float


@dataclass(frozen=True)
class PredictionWorkload:
    """A time-ordered stream of prediction requests and insertions."""

    name: str
    events: tuple[PredictionRequest | Insertion, ...]

    @property
    def n_requests(self) -> int:
        return sum(1 for e in self.events if isinstance(e, PredictionRequest))

    @property
    def n_insertions(self) -> int:
        return sum(1 for e in self.events if isinstance(e, Insertion))

    def subsample(self, max_requests: int) -> "PredictionWorkload":
        """Keep every insertion but at most ``max_requests`` requests,
        evenly spaced — fitness evaluations stay cheap while the history
        still evolves exactly as recorded."""
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        requests = [e for e in self.events if isinstance(e, PredictionRequest)]
        if len(requests) <= max_requests:
            return self
        keep_idx = set(
            int(i)
            for i in np.linspace(0, len(requests) - 1, max_requests).round()
        )
        kept: list[PredictionRequest | Insertion] = []
        seen = 0
        for e in self.events:
            if isinstance(e, PredictionRequest):
                if seen in keep_idx:
                    kept.append(e)
                seen += 1
            else:
                kept.append(e)
        return PredictionWorkload(name=self.name, events=tuple(kept))


class _Recorder:
    """Estimator wrapper that logs every prediction request/insertion."""

    def __init__(self, inner: PointEstimator) -> None:
        self.inner = inner
        self.events: list[PredictionRequest | Insertion] = []

    def predict(self, job: Job, elapsed: float, now: float) -> float:
        self.events.append(PredictionRequest(job=job, elapsed=elapsed, time=now))
        return self.inner.predict(job, elapsed, now)

    def on_submit(self, job: Job, now: float) -> None:
        self.inner.on_submit(job, now)

    def on_start(self, job: Job, now: float) -> None:
        self.inner.on_start(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        self.events.append(Insertion(job=job, time=now))
        self.inner.on_finish(job, now)


def record_prediction_workload(trace: Trace, policy_name: str) -> PredictionWorkload:
    """Record the prediction stream a scheduling simulation generates.

    The simulation is driven by user maxima, per the paper; every
    ``predict`` the policy issues through the scheduler view and every
    completion is captured in order.
    """
    from repro.core.registry import make_policy, make_predictor

    recorder = _Recorder(PointEstimator(make_predictor("max", trace)))
    sim = Simulator(make_policy(policy_name), recorder, trace.total_nodes)
    sim.run(trace)
    return PredictionWorkload(
        name=f"{trace.name}/{policy_name}", events=tuple(recorder.events)
    )


def replay_workload_error(
    workload: PredictionWorkload, predictor: RuntimePredictor
) -> float:
    """Mean absolute error (seconds) of ``predictor`` over the stream.

    The predictor is mutated; pass a fresh instance.  Requests are
    scored with the standard fallback chain so template sets that cover
    nothing are penalized by the fallback's error rather than skipped.
    """
    estimator = PointEstimator(predictor)
    total = 0.0
    count = 0
    for event in workload.events:
        if isinstance(event, Insertion):
            estimator.on_finish(event.job, event.time)
        else:
            est = estimator.predict(event.job, event.elapsed, event.time)
            total += abs(est - event.job.run_time)
            count += 1
    return total / count if count else 0.0
