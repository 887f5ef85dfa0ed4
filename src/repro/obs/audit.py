"""Per-job prediction audit trail.

:class:`PredictionAudit` pairs every prediction made during a replay
with the outcome that later resolves it, producing:

- ``runtime_predicted`` / ``wait_predicted`` trace events at recording
  time (when the tracer's sink is enabled), carrying the predicted
  value, the predictor id, and the template/category/fallback ``source``
  that produced it;
- a ``prediction_resolved`` event per (job, predictor) once the actual
  is known — run time at the job's finish, wait time at its start —
  carrying predicted, actual, and signed error;
- a streaming feed into an :class:`~repro.obs.accuracy.AccuracyMonitor`,
  so per-predictor error/quantile/tail/drift statistics are available
  in-process without re-reading the trace.

Recording happens where the prediction is *made*: the
:class:`~repro.predictors.base.PointEstimator` adapter records its
submission-time run-time estimate, the wait predictors
(:class:`~repro.waitpred.predictor.WaitTimePredictor`,
:class:`~repro.waitpred.statebased.StateBasedWaitPredictor`) record
their submission-time wait estimates.  Resolution happens where the
outcome is *observed*: the :class:`~repro.scheduler.Simulator` resolves
waits at start and run times at finish.  Several predictors may record
for the same job (e.g. the scheduler's estimator and an observer's);
each resolves into its own monitor group.  Re-recording the same
(job, predictor) pair is ignored — the submission-time prediction is
the one audited, matching the paper's evaluation protocol.

The audit rides in :class:`~repro.obs.instrument.Instrumentation`
(``audit`` attribute, default ``None``); every emitter checks that
attribute once at construction and binds the audited code paths only
when it is present, so disabled-instrumentation replays execute zero
audit instructions.
"""

from __future__ import annotations

from repro.obs.accuracy import AccuracyMonitor
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["PredictionAudit"]


class PredictionAudit:
    """Pairs predictions with outcomes; emits events and feeds a monitor."""

    __slots__ = ("tracer", "monitor", "_pending_run", "_pending_wait")

    def __init__(
        self,
        tracer: Tracer | None = None,
        monitor: AccuracyMonitor | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.monitor = monitor if monitor is not None else AccuracyMonitor()
        #: job_id -> {predictor: (predicted, source)}
        self._pending_run: dict[int, dict[str, tuple[float, str]]] = {}
        self._pending_wait: dict[int, dict[str, tuple[float, str]]] = {}

    # ------------------------------------------------------------------
    # recording (at prediction time)
    # ------------------------------------------------------------------
    def record_runtime(
        self,
        job_id: int,
        now: float,
        predicted: float,
        *,
        predictor: str,
        source: str = "",
    ) -> None:
        """Record a submission-time run-time prediction for ``job_id``."""
        per_job = self._pending_run.setdefault(job_id, {})
        if predictor in per_job:
            return  # first prediction per (job, predictor) wins
        per_job[predictor] = (predicted, source)
        if self.tracer.enabled:
            extra = {"source": source} if source else {}
            self.tracer.emit(
                "runtime_predicted",
                sim_time=now,
                job_id=job_id,
                predicted_run_s=predicted,
                predictor=predictor,
                **extra,
            )

    def record_wait(
        self,
        job_id: int,
        now: float,
        predicted: float,
        *,
        predictor: str,
        source: str = "",
    ) -> None:
        """Record a submission-time wait-time prediction for ``job_id``."""
        per_job = self._pending_wait.setdefault(job_id, {})
        if predictor in per_job:
            return
        per_job[predictor] = (predicted, source)
        if self.tracer.enabled:
            extra = {"source": source} if source else {}
            self.tracer.emit(
                "wait_predicted",
                sim_time=now,
                job_id=job_id,
                predicted_wait_s=predicted,
                predictor=predictor,
                **extra,
            )

    # ------------------------------------------------------------------
    # resolution (at outcome time)
    # ------------------------------------------------------------------
    def resolve_runtime(
        self, job_id: int, now: float, actual: float, *, policy: str | None = None
    ) -> None:
        """Resolve every pending run-time prediction of ``job_id``."""
        per_job = self._pending_run.pop(job_id, None)
        if per_job is None:
            return
        self._resolve("run_time", per_job, job_id, now, actual, policy)

    def resolve_wait(
        self, job_id: int, now: float, actual: float, *, policy: str | None = None
    ) -> None:
        """Resolve every pending wait-time prediction of ``job_id``."""
        per_job = self._pending_wait.pop(job_id, None)
        if per_job is None:
            return
        self._resolve("wait_time", per_job, job_id, now, actual, policy)

    def _resolve(
        self,
        kind: str,
        per_job: dict[str, tuple[float, str]],
        job_id: int,
        now: float,
        actual: float,
        policy: str | None,
    ) -> None:
        emit = self.tracer.enabled
        for predictor, (predicted, source) in per_job.items():
            self.monitor.observe(
                kind, predictor, predicted, actual, key=source or None
            )
            if emit:
                extra = {"source": source} if source else {}
                self.tracer.emit(
                    "prediction_resolved",
                    sim_time=now,
                    job_id=job_id,
                    policy=policy,
                    kind=kind,
                    predictor=predictor,
                    predicted_s=predicted,
                    actual_s=actual,
                    error_s=predicted - actual,
                    **extra,
                )

    # ------------------------------------------------------------------
    @property
    def unresolved_runtime(self) -> int:
        """Run-time predictions still waiting for their job to finish."""
        return sum(len(d) for d in self._pending_run.values())

    @property
    def unresolved_wait(self) -> int:
        """Wait-time predictions still waiting for their job to start."""
        return sum(len(d) for d in self._pending_wait.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionAudit(resolved={self.monitor.total_observations}, "
            f"pending_run={self.unresolved_runtime}, "
            f"pending_wait={self.unresolved_wait})"
        )
