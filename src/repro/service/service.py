"""Online wait-time prediction service.

:class:`PredictionService` is the long-lived, query-at-any-time form of
the paper's §3 technique.  Where :class:`repro.waitpred.WaitTimePredictor`
predicts each job's wait exactly once — at submission, inside a replay —
the service ingests a *stream* of scheduler events (submit / start /
finish) and answers "how long until job J starts?" whenever asked,
for any queued job, any number of times.

Two properties make repeated queries cheap:

- **Incremental snapshots.**  The service mirrors the scheduler state
  (running and queued jobs) in insertion-ordered dicts updated O(1) per
  event, and materializes the :class:`~repro.scheduler.simulator.SystemSnapshot`
  tuple lazily, at most once per epoch.  A property suite
  (``tests/test_service.py``) checks the incrementally-maintained
  snapshot equals a from-scratch :meth:`Simulator.snapshot` after any
  event interleaving.
- **Epoch-keyed caching.**  Every event bumps ``epoch``.  Frozen
  durations, scheduler estimates and predicted starts are cached under
  ``epoch`` plus each estimator's ``history_epoch`` — the same contract
  :mod:`repro.predictors.base` defines for scheduling-side caches — so
  queries between events are O(1) dict hits, bit-identical to an
  uncached computation because the cache stores the computed float
  itself.  If either estimator advertises no ``history_epoch`` (or
  ``None``), caching is off rather than risk staleness.  Across
  epochs, queued jobs' frozen predictions are carried by one
  :class:`~repro.scheduler.simulator.EstimateMemo` per estimator for as
  long as its ``history_epoch`` stands still, through the same
  ``_freeze`` :func:`~repro.waitpred.predict_wait` uses.

Cache misses are answered in one queue walk where an analytic shortcut
is exact (:func:`repro.waitpred.fast.fcfs_predicted_starts`,
:func:`~repro.waitpred.fast.backfill_predicted_starts`), computing the
*whole* queue's starts at once so the rest of the epoch's queries —
single or batch — are hits.  Policies without a shortcut (LWF, EASY, or
backfill with a divergent scheduler estimator) fall back to per-job
:func:`~repro.waitpred.fast.predict_start_fast`, which forward-simulates,
counted in ``service.fallback_simulations``.  The event-loop reference
stays in ``predict_wait(..., fast=False)``, which
``tests/test_waitpred_fast.py`` holds the shortcuts to.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.obs import QUERY_LATENCY_BUCKETS, Instrumentation
from repro.scheduler.policies.base import Policy
from repro.scheduler.simulator import (
    EstimateMemo,
    QueuedJob,
    RunningJob,
    RuntimeEstimator,
    SystemSnapshot,
    # Unused here: benchmarks/e2e/layers.py times it under this module's name.
    forward_simulate,  # noqa: F401
)
from repro.waitpred.fast import (
    UnknownJobError,
    backfill_predicted_starts,
    exact_shortcut,
    fcfs_predicted_starts,
    predict_start_fast,
)
from repro.waitpred.predictor import _freeze
from repro.workloads.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.service.server import ServiceClient

__all__ = ["PredictionService", "SimulatorFeed", "UnknownJobError"]


class PredictionService:
    """Event-fed wait-time oracle over a mirrored scheduler state.

    ``estimator`` supplies the believed durations (the evaluated
    predictor, wrapped in a :class:`repro.predictors.base.PointEstimator`
    or anything matching the estimator protocol);
    ``scheduler_estimator`` optionally supplies the estimates the *real*
    scheduler decides by, when they differ (the paper's user-maxima
    setup).  Left ``None``, the imagined world is self-consistent and
    the backfill shortcut stays exact.  ``clock`` times query latency
    (injectable so tests can drive it).

    Thread-safety: none.  The TCP server (:mod:`repro.service.server`)
    serializes access with a lock; in-process users are expected to call
    from one thread.
    """

    def __init__(
        self,
        policy: Policy,
        estimator: RuntimeEstimator,
        total_nodes: int,
        *,
        scheduler_estimator: RuntimeEstimator | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.policy = policy
        self.estimator = estimator
        self.scheduler_estimator = scheduler_estimator
        self.total_nodes = total_nodes
        self.now = 0.0
        #: Monotone event counter; the cache key's first component.
        self.epoch = 0
        self._queued: dict[int, QueuedJob] = {}  # insertion = arrival order
        self._running: dict[int, RunningJob] = {}  # insertion = start order
        self._finished: set[int] = set()
        # Lazily materialized snapshot, valid for _snapshot_epoch only.
        self._snapshot: SystemSnapshot | None = None
        self._snapshot_epoch = -1
        # Frozen durations/estimates and predicted starts, valid while
        # _cache_key == (epoch, both history_epochs).  The starts dict
        # fills whole-queue on a shortcut miss, per-job on fallback.
        self._cache_key: object = None
        self._durations: dict[int, float] | None = None
        self._estimates: dict[int, float] | None = None
        self._starts: dict[int, float] = {}
        # Queued-job freezes carried across epochs while each
        # estimator's history_epoch stands still.
        self._duration_cache = EstimateMemo()
        self._estimate_cache = EstimateMemo()
        self.obs = obs = Instrumentation()
        self._n_events = 0
        self._n_queries = 0
        self._n_hits = 0
        self._n_misses = 0
        self._n_fallback = 0
        self._clock = clock
        self._h_latency = obs.registry.histogram(
            "service.query_latency_seconds", QUERY_LATENCY_BUCKETS
        )
        # Estimator life-cycle hooks per event kind, resolved once: the
        # duration estimator's first, then a distinct scheduler
        # estimator's (a shared one is notified once).
        estimators = [estimator]
        if scheduler_estimator is not None and scheduler_estimator is not estimator:
            estimators.append(scheduler_estimator)
        self._on_submit, self._on_start, self._on_finish = (
            tuple(
                fn for fn in (getattr(est, hook, None) for est in estimators)
                if fn is not None
            )
            for hook in ("on_submit", "on_start", "on_finish")
        )

    # ------------------------------------------------------------------
    # event ingestion
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        if now < self.now:
            raise ValueError(
                f"event time {now} precedes service clock {self.now}"
            )
        self.now = now
        self.epoch += 1
        self._n_events += 1

    def tick(self, now: float) -> None:
        """Advance the clock with no job event (wall time passing).

        Predictions are anchored at the snapshot instant, so time
        passing changes them (a reserved start draws nearer) — hence a
        tick bumps the epoch like any other event.
        """
        self._advance(now)

    def submit(self, job: Job, now: float) -> None:
        """A job entered the queue at ``now``."""
        jid = job.job_id
        if jid in self._queued or jid in self._running or jid in self._finished:
            raise ValueError(f"job {jid} already submitted")
        self._advance(now)
        self._queued[jid] = QueuedJob(job)
        for fn in self._on_submit:
            fn(job, now)

    def start(self, job_id: int, now: float) -> None:
        """A queued job began running at ``now``."""
        qj = self._queued.get(job_id)
        if qj is None:
            raise UnknownJobError(job_id, "is not queued, so cannot start")
        self._advance(now)
        del self._queued[job_id]
        self._running[job_id] = RunningJob(job=qj.job, start_time=now)
        for fn in self._on_start:
            fn(qj.job, now)

    def finish(self, job_id: int, now: float) -> None:
        """A running job released its nodes at ``now``."""
        rj = self._running.get(job_id)
        if rj is None:
            raise UnknownJobError(job_id, "is not running, so cannot finish")
        self._advance(now)
        del self._running[job_id]
        self._finished.add(job_id)
        for fn in self._on_finish:
            fn(rj.job, now)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def snapshot(self) -> SystemSnapshot:
        """The mirrored state as a snapshot, materialized once per epoch."""
        if self._snapshot is None or self._snapshot_epoch != self.epoch:
            self._snapshot = SystemSnapshot(
                now=self.now,
                running=tuple(self._running.values()),
                queued=tuple(self._queued.values()),
                total_nodes=self.total_nodes,
            )
            self._snapshot_epoch = self.epoch
        return self._snapshot

    @property
    def queued_ids(self) -> tuple[int, ...]:
        """Queued job ids in arrival order."""
        return tuple(self._queued)

    @property
    def running_ids(self) -> tuple[int, ...]:
        """Running job ids in start order."""
        return tuple(self._running)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _sync_cache(self) -> bool:
        """Freeze durations for this epoch; return whether caching is on.

        Returns ``False`` when either estimator has no epoch
        (``history_epoch`` is ``None`` or absent): the frozen inputs are
        still reused within this call, but nothing survives to the next
        query.
        """
        hist = getattr(self.estimator, "history_epoch", None)
        sched = self.scheduler_estimator
        sched_hist = 0 if sched is None else getattr(sched, "history_epoch", None)
        cacheable = hist is not None and sched_hist is not None
        key = (self.epoch, hist, sched_hist) if cacheable else None
        if not cacheable or key != self._cache_key:
            self._cache_key = key
            snap = self.snapshot()
            self._durations = _freeze(snap, self.estimator, self._duration_cache)
            self._estimates = (
                _freeze(snap, self.scheduler_estimator, self._estimate_cache)
                if self.scheduler_estimator is not None
                else None
            )
            self._starts = {}
        return cacheable

    def _shortcut_starts(self) -> dict[int, float] | None:
        """All queued starts in one walk, or ``None`` when inexact."""
        durations = self._durations
        assert durations is not None
        walk = exact_shortcut(self.policy, durations, self._estimates)
        if walk == "fcfs":
            return fcfs_predicted_starts(self.snapshot(), durations)
        if walk == "backfill":
            return backfill_predicted_starts(self.snapshot(), durations)
        return None

    def _start_of(self, job_id: int) -> float:
        start = self._starts.get(job_id)
        if start is not None:
            self._n_hits += 1
            return start
        self._n_misses += 1
        batch = self._shortcut_starts()
        if batch is not None:
            self._starts.update(batch)
            return self._starts[job_id]
        # No exact shortcut: forward simulation, one job at a time.
        self._n_fallback += 1
        assert self._durations is not None
        start = predict_start_fast(
            self.snapshot(), self.policy, self._durations, job_id,
            estimates=self._estimates,
        )
        self._starts[job_id] = start
        return start

    def predict(self, job_id: int) -> float:
        """Predicted remaining wait (seconds) of ``job_id``, now.

        Running and finished jobs answer 0.0 — their wait is over.
        Never-submitted ids raise :class:`UnknownJobError`.
        """
        t0 = self._clock()
        self._n_queries += 1
        try:
            if job_id in self._running or job_id in self._finished:
                self._n_hits += 1  # O(1), no walk: counts as a hit
                return 0.0
            if job_id not in self._queued:
                raise UnknownJobError(job_id, "was never submitted")
            self._sync_cache()
            return self._start_of(job_id) - self.now
        finally:
            self._h_latency.observe(self._clock() - t0)

    def predict_batch(
        self, job_ids: list[int] | None = None
    ) -> dict[int, float]:
        """Predicted waits for ``job_ids`` (default: every queued job).

        Durations are frozen once for the whole batch — within one
        epoch, the batch answer for a job is bit-identical to a single
        :meth:`predict` for it.
        """
        t0 = self._clock()
        try:
            ids = list(self._queued) if job_ids is None else list(job_ids)
            self._n_queries += len(ids)
            out: dict[int, float] = {}
            synced = False
            for jid in ids:
                if jid in self._running or jid in self._finished:
                    self._n_hits += 1
                    out[jid] = 0.0
                    continue
                if jid not in self._queued:
                    raise UnknownJobError(jid, "was never submitted")
                if not synced:
                    self._sync_cache()
                    synced = True
                out[jid] = self._start_of(jid) - self.now
            return out
        finally:
            self._h_latency.observe(self._clock() - t0)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Fold service tallies into the registry and snapshot it."""
        reg = self.obs.registry
        reg.counter("service.events").value = self._n_events
        reg.counter("service.queries").value = self._n_queries
        reg.counter("service.cache_hits").value = self._n_hits
        reg.counter("service.cache_misses").value = self._n_misses
        reg.counter("service.fallback_simulations").value = self._n_fallback
        reg.gauge("service.queued_jobs").value = len(self._queued)
        reg.gauge("service.running_jobs").value = len(self._running)
        reg.gauge("service.epoch").value = self.epoch
        return reg.snapshot()


class SimulatorFeed:
    """Simulator observer mirroring every life-cycle event into a service.

    Attach with :meth:`Simulator.add_observer`; the service then tracks
    the live simulator state exactly (the property suite asserts
    ``feed.service.snapshot() == sim.snapshot()`` after any replay
    prefix).  A :class:`~repro.service.server.ServiceClient` has the
    same ``submit``/``start``/``finish`` signatures, so the feed streams
    a local replay to a remote server too (``repro-sched query
    --replay``).
    """

    def __init__(self, service: PredictionService | ServiceClient) -> None:
        self.service = service

    def on_submit(self, view, qj: QueuedJob) -> None:
        self.service.submit(qj.job, view.now)

    def on_start(self, view, job: Job) -> None:
        self.service.start(job.job_id, view.now)

    def on_finish(self, view, job: Job) -> None:
        self.service.finish(job.job_id, view.now)
