"""Wait-time prediction by forward simulation.

:class:`WaitTimePredictor` attaches to a :class:`repro.scheduler.Simulator`
as an observer.  It owns its *own* run-time predictor — distinct from the
estimator the scheduler itself runs on (in the paper's §3 experiments the
scheduler always works from user maxima, while the evaluated predictor
varies) — and keeps that predictor's history current from the stream of
real completions.

At each submission it freezes two numbers per job in the system:

- a **duration** from its own predictor — what the job's run time is
  believed to actually be;
- a **scheduler estimate** from the real scheduler's estimator — what the
  simulated scheduler will base ordering/reservation decisions on.

and calls :func:`repro.scheduler.simulator.forward_simulate` to learn
when the new job would start in that predicted future.  Keeping the two
separate is what gives the paper its tiny built-in backfill error
(Table 4): with perfect durations the imagined schedule replays the real
scheduler's decisions exactly, later arrivals aside.

A queued job's frozen prediction (elapsed 0) cannot change while the
estimator's ``history_epoch`` stands still — the contract
:mod:`repro.predictors.base` defines — so an
:class:`~repro.scheduler.simulator.EstimateMemo` keeps those predictions
from one submission to the next and re-predicts only after the epoch
moves.  Running jobs are conditioned on their age and are predicted
afresh at every freeze.
"""

from __future__ import annotations

from repro.predictors.base import PointEstimator, RuntimePredictor
from repro.scheduler.policies.base import Policy
from repro.scheduler.simulator import (
    EstimateMemo,
    QueuedJob,
    RuntimeEstimator,
    SchedulerView,
    SystemSnapshot,
    forward_simulate,
)
from repro.waitpred.fast import UnknownJobError
from repro.workloads.job import Job

__all__ = ["WaitTimePredictor", "predict_wait"]


def _freeze(
    snapshot: SystemSnapshot,
    estimator: RuntimeEstimator,
    cache: EstimateMemo | None = None,
) -> dict[int, float]:
    """One prediction per job in the snapshot (running conditioned on age).

    With a ``cache``, queued jobs already predicted under the estimator's
    current ``history_epoch`` reuse that float, and the memo is left
    holding the jobs queued now; estimators without an epoch (or
    volatile ones advertising ``None``) are re-predicted on every call.
    """
    now = snapshot.now
    out: dict[int, float] = {}
    for rj in snapshot.running:
        out[rj.job_id] = estimator.predict(rj.job, rj.elapsed(now), now)
    known = None if cache is None else cache.sync(estimator)
    if known is None:
        for qj in snapshot.queued:
            out[qj.job_id] = estimator.predict(qj.job, 0.0, now)
        return out
    queued: dict[int, float] = {}
    for qj in snapshot.queued:
        jid = qj.job_id
        value = known.get(jid)
        if value is None:
            value = estimator.predict(qj.job, 0.0, now)
        queued[jid] = out[jid] = value
    cache.memo = queued  # evict the jobs no longer queued
    return out


def predict_wait(
    snapshot: SystemSnapshot,
    policy: Policy,
    estimator: PointEstimator,
    target_job_id: int,
    *,
    scheduler_estimator: RuntimeEstimator | None = None,
    fast: bool = True,
    duration_cache: EstimateMemo | None = None,
    estimate_cache: EstimateMemo | None = None,
) -> float:
    """Predicted wait (seconds) of ``target_job_id`` from ``snapshot``.

    ``estimator`` supplies the believed durations; ``scheduler_estimator``
    (default: the same) supplies the estimates the simulated scheduler
    decides by.  ``fast`` routes through the analytic shortcuts of
    :mod:`repro.waitpred.fast` where they are exact (identical results,
    much cheaper for long FCFS queues).  ``duration_cache`` and
    ``estimate_cache`` carry the two estimators' queued-job freezes
    across calls (see :class:`~repro.scheduler.simulator.EstimateMemo`);
    answers are identical with and without them.

    Raises :class:`repro.waitpred.fast.UnknownJobError` when
    ``target_job_id`` is not in the snapshot's queue — already running,
    already finished, or never submitted.  Callers that want "job has
    started, wait is over" semantics (the prediction service) translate
    running jobs to a 0.0 wait before reaching this point.
    """
    if all(qj.job_id != target_job_id for qj in snapshot.queued):
        raise UnknownJobError(target_job_id)
    durations = _freeze(snapshot, estimator, duration_cache)
    estimates = (
        _freeze(snapshot, scheduler_estimator, estimate_cache)
        if scheduler_estimator is not None
        else None
    )
    if fast:
        from repro.waitpred.fast import predict_start_fast

        start = predict_start_fast(
            snapshot, policy, durations, target_job_id, estimates=estimates
        )
    else:
        start = forward_simulate(
            snapshot, policy, durations, target_job_id, estimates=estimates
        )
    return start - snapshot.now


class WaitTimePredictor:
    """Simulator observer predicting each job's wait at submission."""

    def __init__(
        self,
        policy: Policy,
        predictor: RuntimePredictor,
        *,
        scheduler_estimator: RuntimeEstimator | None = None,
        instrumentation=None,
    ) -> None:
        self.policy = policy
        self.estimator = PointEstimator(predictor)
        self.scheduler_estimator = scheduler_estimator
        self._duration_cache = EstimateMemo()
        self._estimate_cache = EstimateMemo()
        #: job_id -> predicted wait in seconds, recorded at submission.
        self.predicted_waits: dict[int, float] = {}
        # Prediction audit (see repro.obs.audit): record each wait
        # prediction under the forward-simulation id; the simulator
        # resolves it against the realized wait at the job's start.
        self._audit = getattr(instrumentation, "audit", None)

    # -- observer hooks --------------------------------------------------
    def on_submit(self, view: SchedulerView, qj: QueuedJob) -> None:
        snapshot = SystemSnapshot(
            now=view.now,
            running=tuple(view.running),
            queued=tuple(view.queued),
            total_nodes=view.total_nodes,
        )
        predicted = predict_wait(
            snapshot,
            self.policy,
            self.estimator,
            qj.job_id,
            scheduler_estimator=self.scheduler_estimator,
            duration_cache=self._duration_cache,
            estimate_cache=self._estimate_cache,
        )
        self.predicted_waits[qj.job_id] = predicted
        if self._audit is not None:
            self._audit.record_wait(
                qj.job_id,
                view.now,
                predicted,
                predictor="forward-sim",
                source=self.estimator.name,
            )

    def on_finish(self, view: SchedulerView, job: Job) -> None:
        # Historical predictors ingest completions as they happen (§2.1).
        self.estimator.on_finish(job, view.now)
