"""The unoptimized reference replay engine (equivalence oracle).

:mod:`repro.scheduler.simulator` carries several exact hot-path
optimizations: an epoch-gated estimate cache that survives across
scheduling passes, O(1) id-keyed queue/running bookkeeping, batch event
loading, a batch-built reusable availability profile, early-exit
scheduling passes, and a conservative-backfill plan kept across passes
that follow only new submissions.  Every one of them is *claimed* to be
schedule-preserving.

This module is the proof harness: a deliberately naive engine that
re-predicts every job on every pass, keeps plain lists, pushes events
one at a time, and replans the full queue every pass with the primitive
``add_release``/``earliest_start``/``carve`` profile operations — the
semantics of the engine before the hot-path overhaul, with the running
jobs' release rule of
:meth:`repro.scheduler.simulator.SchedulerView.releases`.  The golden parity
tests (``tests/test_simulator_parity.py``) replay the paper workloads
through both engines and assert bit-identical :class:`ScheduleResult`s
(``tests/test_properties_kept_plan.py`` does so on random traces);
``benchmarks/bench_simulator_hotpath.py`` uses it as the baseline the
measured speedup is computed against.

Scope: trace replay with observers.  Advance reservations are not
supported here — reservation behaviour is covered by the main engine's
own test suite, not by parity.
"""

from __future__ import annotations

import heapq

from repro.obs import Instrumentation
from repro.scheduler.cluster import NodePool
from repro.scheduler.events import FINISH, SUBMIT
from repro.scheduler.metrics import JobRecord, ScheduleResult
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.policies.base import Policy
from repro.scheduler.simulator import QueuedJob, RunningJob, RuntimeEstimator
from repro.workloads.job import Job, Trace

__all__ = [
    "ReferenceView",
    "ReferenceSimulator",
    "ReferenceFCFSPolicy",
    "ReferenceLWFPolicy",
    "ReferenceBackfillPolicy",
]

_EPS = 1e-6


class ReferenceView:
    """Per-pass view: estimates memoized for this pass only (pre-epoch
    semantics — every pass re-predicts the whole queue)."""

    def __init__(self, sim: "ReferenceSimulator") -> None:
        self._sim = sim
        self._cache: dict[int, float] = {}

    @property
    def now(self) -> float:
        return self._sim.now

    @property
    def free_nodes(self) -> int:
        return self._sim.pool.free

    @property
    def total_nodes(self) -> int:
        return self._sim.pool.total

    @property
    def queued(self):
        return self._sim.queued

    @property
    def running(self):
        return self._sim.running

    @property
    def active_reservations(self):
        return ()

    @property
    def reservations(self):
        return ()

    def estimate(self, qj: QueuedJob) -> float:
        est = self._cache.get(qj.job_id)
        if est is None:
            est = self._sim.estimator.predict(qj.job, 0.0, self.now)
            est = max(float(est), _EPS)
            self._cache[qj.job_id] = est
        return est

    def remaining(self, rj: RunningJob) -> float:
        elapsed = rj.elapsed(self.now)
        est = self._cache.get(rj.job_id)
        if est is None:
            est = float(self._sim.estimator.predict(rj.job, elapsed, self.now))
            self._cache[rj.job_id] = est
        return max(est - elapsed, _EPS)

    def release(self, rj: RunningJob) -> float:
        """When ``rj`` frees its nodes, by the optimized view's rule.

        An elapsed-invariant estimator's job releases at ``max(start +
        est, now + eps)``, ``est`` being its elapsed-0 prediction, so the
        instant stands from pass to pass; any other releases ``remaining``
        from now.
        """
        estimator = self._sim.estimator
        if getattr(estimator, "elapsed_invariant", False):
            est = float(estimator.predict(rj.job, 0.0, self.now))
            return max(rj.start_time + est, self.now + _EPS)
        return self.now + self.remaining(rj)


class ReferenceFCFSPolicy(Policy):
    """First-come first-served with head-of-line blocking (reference copy)."""

    name = "FCFS"

    def select(self, view):
        free = view.free_nodes
        started = []
        for qj in view.queued:  # arrival order
            if qj.job.nodes <= free:
                started.append(qj)
                free -= qj.job.nodes
            else:
                break
        return started


class ReferenceLWFPolicy(Policy):
    """Least-work-first, full re-sort with fresh estimates every pass."""

    name = "LWF"

    def select(self, view):
        order = sorted(
            view.queued,
            key=lambda qj: (
                qj.job.nodes * view.estimate(qj),
                qj.job.submit_time,
                qj.job.job_id,
            ),
        )
        free = view.free_nodes
        started = []
        for qj in order:
            if qj.job.nodes <= free:
                started.append(qj)
                free -= qj.job.nodes
        return started


class ReferenceBackfillPolicy(Policy):
    """Conservative backfill, full-queue replan with primitive profile ops.

    A fresh profile per pass, one O(n) ``add_release`` per running job,
    and an ``earliest_start`` + ``carve`` pair for *every* queued job —
    no early exit, no batch construction, no fused reserve.
    """

    name = "Backfill"
    min_duration: float = 1e-6

    def select(self, view):
        profile = AvailabilityProfile(view.now, view.free_nodes, view.total_nodes)
        for rj in view.running:
            # One release() call per job: an oracle independent of the
            # optimized view's batched releases().
            profile.add_release(view.release(rj), rj.job.nodes)
        started = []
        for qj in view.queued:  # arrival order
            duration = max(view.estimate(qj), self.min_duration)
            start = profile.earliest_start(qj.job.nodes, duration)
            profile.carve(start, duration, qj.job.nodes)
            if start <= view.now:
                started.append(qj)
        return started


class ReferenceSimulator:
    """Naive trace replay with the pre-overhaul engine semantics.

    Same event ordering contract as :class:`repro.scheduler.Simulator`
    (FINISH before SUBMIT at equal times, insertion order within a kind),
    same estimator/observer hook protocol, same records — but plain-list
    bookkeeping, one heap push per event, a scheduling pass after every
    drained timestamp, and per-pass estimate memoization only.
    """

    def __init__(
        self,
        policy: Policy,
        estimator: RuntimeEstimator,
        total_nodes: int,
    ) -> None:
        self.policy = policy
        self.estimator = estimator
        self.pool = NodePool(total_nodes)
        self.now = 0.0
        self.queued: list[QueuedJob] = []
        self.running: list[RunningJob] = []
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._records: list[JobRecord] = []
        self._started: dict[int, float] = {}
        self._observers: list[object] = []
        # Same registry metric names as the optimized engine, so counter
        # parity can be asserted snapshot-to-snapshot.
        self.obs = obs = Instrumentation()
        reg = obs.registry
        self._c_events = reg.counter("sim.events_processed")
        self._c_passes = reg.counter("sim.schedule_passes")
        self._c_submitted = reg.counter("sim.jobs_submitted")
        self._c_started = reg.counter("sim.jobs_started")
        self._c_finished = reg.counter("sim.jobs_finished")

    def metrics_snapshot(self) -> dict:
        """JSON-serializable snapshot of this run's registry."""
        return self.obs.registry.snapshot()

    def add_observer(self, observer: object) -> None:
        self._observers.append(observer)

    def _push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def run(self, trace: Trace) -> ScheduleResult:
        if self.pool.total != trace.total_nodes:
            raise ValueError(
                f"simulator built for {self.pool.total} nodes but trace "
                f"declares {trace.total_nodes}"
            )
        for job in trace:
            self._push(job.submit_time, SUBMIT, job)
        heap = self._heap
        while heap:
            t = heap[0][0]
            if t < self.now - 1e-9:
                raise RuntimeError(f"time went backwards: {t} < {self.now}")
            self.now = max(self.now, t)
            while heap and heap[0][0] == t:
                _, kind, _, payload = heapq.heappop(heap)
                self._c_events.value += 1
                if kind == FINISH:
                    self._handle_finish(payload)
                else:
                    self._handle_submit(payload)
            self._schedule_pass()
        return self.result()

    def result(self) -> ScheduleResult:
        return ScheduleResult(self._records, total_nodes=self.pool.total)

    @property
    def started_times(self) -> dict[int, float]:
        return dict(self._started)

    def _handle_submit(self, job: Job) -> None:
        qj = QueuedJob(job)
        self.queued.append(qj)
        self._c_submitted.value += 1
        self._notify_estimator("on_submit", job)
        view = ReferenceView(self)
        for obs in self._observers:
            hook = getattr(obs, "on_submit", None)
            if hook is not None:
                hook(view, qj)

    def _handle_finish(self, rj: RunningJob) -> None:
        self.running.remove(rj)
        self.pool.release(rj.job.nodes)
        self._records.append(
            JobRecord(
                job_id=rj.job_id,
                submit_time=rj.job.submit_time,
                start_time=rj.start_time,
                finish_time=self.now,
                nodes=rj.job.nodes,
            )
        )
        self._c_finished.value += 1
        self._notify_estimator("on_finish", rj.job)
        view = ReferenceView(self)
        for obs in self._observers:
            hook = getattr(obs, "on_finish", None)
            if hook is not None:
                hook(view, rj.job)

    def _schedule_pass(self) -> None:
        if not self.queued:
            return
        self._c_passes.value += 1
        view = ReferenceView(self)
        for qj in list(self.policy.select(view)):
            self._start(qj)

    def _start(self, qj: QueuedJob) -> None:
        self.pool.allocate(qj.job.nodes)
        self.queued.remove(qj)
        rj = RunningJob(job=qj.job, start_time=self.now)
        self.running.append(rj)
        self._started[qj.job_id] = self.now
        self._push(self.now + max(qj.job.run_time, 0.0), FINISH, rj)
        self._c_started.value += 1
        self._notify_estimator("on_start", qj.job)
        view = ReferenceView(self)
        for obs in self._observers:
            hook = getattr(obs, "on_start", None)
            if hook is not None:
                hook(view, qj.job)

    def _notify_estimator(self, hook_name: str, job: Job) -> None:
        hook = getattr(self.estimator, hook_name, None)
        if hook is not None:
            hook(job, self.now)
