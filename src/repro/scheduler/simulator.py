"""The event-driven scheduling simulator.

One engine serves both of the paper's uses:

- :meth:`Simulator.run` replays a whole trace under a policy and a
  run-time estimator, producing a :class:`~repro.scheduler.metrics.ScheduleResult`;
- :func:`forward_simulate` takes a :class:`SystemSnapshot` (the running
  and queued jobs at some instant), runs every job for a predictor's
  estimate instead of its unknown run time, and plays the schedule
  forward *with no future arrivals* to find when a given job starts —
  the paper's queue wait-time prediction technique (§3).

Estimator protocol
------------------
Any object with ``predict(job, elapsed, now) -> float`` works as an
estimator; ``elapsed`` is how long the job has been running (0.0 for
queued jobs).  Optional lifecycle hooks ``on_submit(job, now)``,
``on_start(job, now)`` and ``on_finish(job, now)`` are called if present
— the historical predictors use ``on_finish`` to grow their category
databases.  The same protocol is shared by observers (used for wait-time
evaluation), whose hooks additionally receive the live view.

Estimate caching
----------------
Estimators may additionally expose an integer ``history_epoch`` that
changes whenever their predictions may have changed (see
:mod:`repro.predictors.base`).  For such estimators the simulator keeps
queued-job estimates in an :class:`EstimateMemo` (the wait-time freezes
and the state-based predictor keep their own) that survives across
scheduling passes and is flushed only when the epoch moves.  Estimators without an epoch get
the historical behaviour: estimates are memoized per pass only.
Running-job ``remaining`` estimates condition on elapsed time and are
always per-pass.

Instrumentation
---------------
Every simulator carries an :class:`repro.obs.Instrumentation`, but the
replay loop itself stays observability-free: job life-cycle counts and
the wait-time histogram are *derived* from state the engine keeps anyway
(``_started``, ``_records``, ``running``) when :meth:`metrics_snapshot`
folds them into the registry.  Each job event handler (submit, start,
finish) ends by calling its kind's subscriber tuple, resolved once in
``__init__`` and again by :meth:`~Simulator.add_observer`, in this
order: the ``job_submitted``/``job_finished`` emitter (tracing); the
estimator's hook (the audited one emits ``runtime_predicted`` on
submit); one view, built whenever any observer (the time series is
one) is attached, handed to each observer's hook; the audit's
``resolve_wait`` (start) / ``resolve_runtime`` (finish); on start, the
backfill-depth tally (detail or tracing), then ``job_started`` /
``job_backfilled`` (tracing).  The scheduling pass runs inside a
``schedule_pass`` span only when pass timing is on.  See the
Observability section of ``docs/architecture.md`` for the event
taxonomy and the overhead budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.obs import (
    BACKFILL_DEPTH_BUCKETS,
    Instrumentation,
    PASS_DURATION_BUCKETS,
    WAIT_TIME_BUCKETS,
)
from repro.scheduler.cluster import NodePool
from repro.scheduler.events import FINISH, RES_END, RES_START, SUBMIT, EventQueue
from repro.scheduler.metrics import JobRecord, ScheduleResult
from repro.scheduler.policies.base import MIN_DURATION, Policy
from repro.scheduler.reservations import Reservation, ReservationRecord
from repro.workloads.job import Job, Trace

__all__ = [
    "QueuedJob",
    "RunningJob",
    "PendingReservation",
    "IndexedJobList",
    "SchedulerView",
    "SystemSnapshot",
    "EstimateMemo",
    "Simulator",
    "FrozenEstimator",
    "forward_simulate",
]


@runtime_checkable
class RuntimeEstimator(Protocol):
    """Structural type for scheduler-side run-time estimators."""

    def predict(self, job: Job, elapsed: float, now: float) -> float: ...


class EstimateMemo:
    """One estimator's elapsed-0 predictions, valid for one history epoch.

    :meth:`sync` clears the memo in place when ``history_epoch`` moved,
    so every holder of the dict sees the flush.  Consumers choose the
    value form they store and evict the jobs they no longer need.
    """

    __slots__ = ("epoch", "memo", "dropped")

    def __init__(self) -> None:
        self.epoch: object = None
        self.memo: dict[int, float] = {}
        #: Entries the last :meth:`sync` cleared (0 if the epoch stood).
        self.dropped = 0

    def sync(self, estimator: RuntimeEstimator) -> dict[int, float] | None:
        """The memo valid for ``estimator`` now, or ``None`` when it has no
        epoch (epochless estimators must be re-predicted)."""
        epoch = getattr(estimator, "history_epoch", None)
        if epoch is None:
            return None
        self.dropped = 0
        if epoch != self.epoch:
            self.epoch, self.dropped = epoch, len(self.memo)
            self.memo.clear()
        return self.memo


@dataclass(frozen=True)
class QueuedJob:
    """A job waiting in the queue."""

    job: Job

    @property
    def job_id(self) -> int:
        return self.job.job_id


@dataclass(frozen=True)
class RunningJob:
    """A job currently holding nodes."""

    job: Job
    start_time: float

    @property
    def job_id(self) -> int:
        return self.job.job_id

    def elapsed(self, now: float) -> float:
        return now - self.start_time


@dataclass(frozen=True)
class ActiveReservation:
    """A reservation currently holding nodes, with its known end time."""

    reservation: Reservation
    end_time: float

    @property
    def nodes(self) -> int:
        return self.reservation.nodes


@dataclass(frozen=True)
class PendingReservation:
    """A not-yet-active reservation as policies see it.

    ``effective_start`` is the promised start for future reservations,
    or *now* for reservations already past their start and waiting for
    nodes (they will claim capacity the instant it frees).
    """

    reservation: Reservation
    effective_start: float

    @property
    def nodes(self) -> int:
        return self.reservation.nodes

    @property
    def duration(self) -> float:
        return self.reservation.duration


class IndexedJobList:
    """Insertion-ordered job collection with O(1) lookup and removal.

    Replaces the plain lists the simulator used for ``queued`` and
    ``running``: iteration preserves insertion (arrival/start) order via
    dict ordering, while ``remove``/``__contains__`` key on ``job_id``
    instead of scanning.  Supports the small list-like surface the rest
    of the codebase (and tests) use: ``append``, ``remove``, iteration
    (``reversed`` too, which reads a queue's newest jobs without copying
    the rest), ``len``, membership, and positional indexing.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: dict[int, Any] = {}

    def append(self, item: Any) -> None:
        jid = item.job_id
        if jid in self._items:
            raise ValueError(f"job {jid} already present")
        self._items[jid] = item

    def remove(self, item: Any) -> None:
        current = self._items.get(item.job_id)
        if current is not item and current != item:
            raise ValueError(f"job {item.job_id} not present")
        del self._items[item.job_id]

    def get(self, job_id: int) -> Any | None:
        """The entry for ``job_id``, or ``None``."""
        return self._items.get(job_id)

    def ids(self) -> Iterable[int]:
        """Job ids in iteration (insertion) order, as a dict keys view.

        Lets bulk consumers (backfill's provenance seeding) pair ids
        with per-job data at C speed instead of attribute-chasing each
        entry in a Python loop.
        """
        return self._items.keys()

    def clear(self) -> None:
        self._items.clear()

    def __contains__(self, item: Any) -> bool:
        current = self._items.get(getattr(item, "job_id", None))
        return current is item or (current is not None and current == item)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items.values())

    def __reversed__(self) -> Iterator[Any]:
        return reversed(self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index):
        return list(self._items.values())[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IndexedJobList({list(self._items.values())!r})"


class SchedulerView:
    """What a policy (or observer) may see of the simulator state.

    Queued-job estimates are served from the simulator's estimate memo
    (cross-pass for epoch-aware estimators, per-view otherwise);
    within one pass each job's estimate is consistent across the
    policy's comparisons, as the paper's algorithms require.  Remaining
    times of running jobs condition on elapsed time and are memoized per
    view only; :meth:`releases` reads them for all running jobs at once.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._cache = sim._estimate_memo()
        self._remaining: dict[int, float] = {}
        self._elapsed_invariant = sim._est_invariant

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
    def queued(self) -> Sequence[QueuedJob]:
        """Waiting jobs in arrival order."""
        return self._sim.queued

    @property
    def running(self) -> Sequence[RunningJob]:
        return self._sim.running

    @property
    def active_reservations(self) -> Sequence[ActiveReservation]:
        """Reservations currently holding nodes (they release at known
        times, which reservation-aware policies fold into their
        availability profiles like running jobs)."""
        return tuple(self._sim.active_reservations)

    @property
    def reservations(self) -> Sequence[PendingReservation]:
        """Advance reservations not yet holding nodes, soonest first.

        Reservation-aware policies (backfill) carve these out of their
        availability profiles; myopic policies ignore them and any
        resulting collision shows up as reservation delay.
        """
        sim = self._sim
        if not sim.waiting_reservations and not sim.pending_reservations:
            return ()
        out = [PendingReservation(r, sim.now) for r in sim.waiting_reservations]
        out.extend(
            PendingReservation(r, r.start_time) for r in sim.pending_reservations
        )
        out.sort(key=lambda p: (p.effective_start, p.reservation.res_id))
        return tuple(out)

    @property
    def tracer(self):
        """The simulator's tracer when tracing is on, else ``None``.

        Policies use this to emit decision events (backfill's
        reservation placed/shifted stream) without paying anything when
        tracing is disabled; reference views simply lack the attribute.
        """
        sim = self._sim
        return sim._tracer if sim._trace_enabled else None

    @property
    def provenance_tracer(self):
        """The tracer when decision provenance is on, else ``None``.

        A second, stricter gate over :attr:`tracer`: the policies' traced
        walks only attribute binding constraints (``start_blocked`` /
        ``reservation_binding`` / ``backfill_hole_used``) when the
        instrumentation's ``provenance`` knob asked for them, so plain
        tracing pays nothing for attribution bookkeeping.
        """
        sim = self._sim
        return sim._tracer if sim._provenance else None

    @property
    def plan_stamp(self) -> tuple | None:
        """What a plan kept from an earlier pass must match to be exact now.

        ``None`` when no plan may be kept: the estimator is not
        elapsed-invariant or has no epoch, or an advance reservation is
        pending or waiting.  Otherwise a pair that changes when the
        simulator processes a finish, adds or ends a reservation (or
        loads a snapshot) and when the estimator's epoch moves; it is
        never equal to another simulator's.  Conservative backfill keeps its
        plan while the stamp stands (see :mod:`repro.scheduler.policies.backfill`).
        """
        sim = self._sim
        if (
            not self._elapsed_invariant
            or self._cache is not sim._estimates.memo
            or sim.pending_reservations
            or sim.waiting_reservations
        ):
            return None
        return sim._plan_key, sim._estimates.epoch

    def note_kept_plan(self) -> None:
        """Count a pass served from a kept plan (``sim.backfill_plans_kept``)."""
        self._sim._n_plans_kept += 1

    def estimate(self, qj: QueuedJob) -> float:
        """Estimated total run time of a queued job (>= tiny epsilon)."""
        est = self._cache.get(qj.job_id)
        if est is None:
            sim = self._sim
            sim._n_est_misses += 1
            est = sim.estimator.predict(qj.job, 0.0, sim.now)
            est = float(est)
            if est < MIN_DURATION:
                est = MIN_DURATION
            self._cache[qj.job_id] = est
        return est

    def remaining(self, rj: RunningJob) -> float:
        """Estimated remaining run time of a running job (>= epsilon).

        The total estimate is conditioned on the elapsed time and clamped
        to at least the elapsed time — a job that has run ``a`` seconds
        cannot finish before ``a`` (§2 corrected semantics).
        """
        sim = self._sim
        elapsed = rj.elapsed(sim.now)
        if self._elapsed_invariant:
            # predict(job, e, t) == max(predict(job, 0, t'), e) at fixed
            # epoch, so the queued-time estimate from the cross-pass
            # cache doubles as the running-job base — no re-prediction.
            base = self._cache.get(rj.job_id)
            if base is None:
                base = float(sim.estimator.predict(rj.job, 0.0, sim.now))
                self._cache[rj.job_id] = base
            est = base if base > elapsed else elapsed
            return max(est - elapsed, MIN_DURATION)
        est = self._remaining.get(rj.job_id)
        if est is None:
            est = float(sim.estimator.predict(rj.job, elapsed, sim.now))
            self._remaining[rj.job_id] = est
        return max(est - elapsed, MIN_DURATION)

    def releases(self) -> list[tuple[float, int]]:
        """``(release, nodes)`` for every running job, in running order,
        computed in one loop — the seed of every backfill pass.

        Under an elapsed-invariant estimator a job started at ``start``
        with elapsed-0 estimate ``est`` releases at ``max(start + est,
        now + MIN_DURATION)``: the instant does not depend on ``now``
        until the job is overdue, so a plan built at one pass is still
        exact at a later one (conservative backfill keeps its plan on
        that).  Otherwise the release is ``now + remaining(rj)``.  Either
        way the memo reads and ``predict`` calls are those of one
        :meth:`remaining` call per job.  The list is fresh; callers may
        extend it.
        """
        sim = self._sim
        now = sim.now
        predict = sim.estimator.predict
        min_duration = MIN_DURATION
        out: list[tuple[float, int]] = []
        append = out.append
        if self._elapsed_invariant:
            cache = self._cache
            floor = now + min_duration
            for rj in sim.running:
                job = rj.job
                jid = job.job_id
                base = cache.get(jid)
                if base is None:
                    base = float(predict(job, 0.0, now))
                    cache[jid] = base
                t = rj.start_time + base
                # max(t, floor), argument order and NaN included.
                append((floor if floor > t else t, job.nodes))
            return out
        memo = self._remaining
        for rj in sim.running:
            job = rj.job
            jid = job.job_id
            elapsed = now - rj.start_time
            est = memo.get(jid)
            if est is None:
                est = float(predict(job, elapsed, now))
                memo[jid] = est
            r = est - elapsed
            append((now + (min_duration if min_duration > r else r), job.nodes))
        return out

    def invalidate(self) -> None:
        self._cache.clear()
        self._remaining.clear()


class InstrumentedSchedulerView(SchedulerView):
    """A :class:`SchedulerView` that also counts estimate-cache hits and,
    when tracing, emits per-estimate ``cache_hit``/``cache_miss`` events.

    Selected by the simulator only in detail mode
    (:class:`repro.obs.Instrumentation` ``detail=True``) so the default
    hot path — the plain view above — stays byte-for-byte unchanged.
    """

    def estimate(self, qj: QueuedJob) -> float:
        sim = self._sim
        est = self._cache.get(qj.job_id)
        if est is not None:
            sim._n_est_hits += 1
            if sim._trace_enabled:
                sim._tracer.emit(
                    "cache_hit",
                    sim_time=sim.now,
                    job_id=qj.job_id,
                    policy=sim._policy_name,
                )
            return est
        est = super().estimate(qj)
        if sim._trace_enabled:
            sim._tracer.emit(
                "cache_miss",
                sim_time=sim.now,
                job_id=qj.job_id,
                policy=sim._policy_name,
            )
        return est


@dataclass(frozen=True)
class SystemSnapshot:
    """The scheduler state at one instant, as wait-time prediction needs it."""

    now: float
    running: tuple[RunningJob, ...]
    queued: tuple[QueuedJob, ...]
    total_nodes: int


class Simulator:
    """Replay a trace under a policy with a pluggable run-time estimator."""

    def __init__(
        self,
        policy: Policy,
        estimator: RuntimeEstimator,
        total_nodes: int,
        *,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.policy = policy
        self.estimator = estimator
        self.pool = NodePool(total_nodes)
        self.now = 0.0
        self.queued: IndexedJobList = IndexedJobList()
        self.running: IndexedJobList = IndexedJobList()
        self._events = EventQueue()
        self._records: list[JobRecord] = []
        self._started: dict[int, float] = {}
        self._observers: list[object] = []
        self.pending_reservations: list[Reservation] = []
        self.waiting_reservations: list[Reservation] = []
        self.active_reservations: list[ActiveReservation] = []
        self.reservation_records: list[ReservationRecord] = []
        #: Queued-job estimates surviving across passes, gated by the
        #: estimator's ``history_epoch`` (see _estimate_memo).
        self._estimates = EstimateMemo()
        self._est_invariant = bool(getattr(estimator, "elapsed_invariant", False))
        #: Replaced at every finish, reservation end, add_reservations
        #: and snapshot load, so a kept backfill plan is stamped with the
        #: state it was built on (see SchedulerView.plan_stamp).  A
        #: reservation's start and activation need no replacement: it is
        #: pending from add_reservations until then, and no plan is kept
        #: while one is pending or waiting.
        self._plan_key = object()
        #: A started job's run time: the trace's, or the believed one (load_snapshot).
        self._run_time = attrgetter("run_time")
        #: Observability wiring (see repro.obs).  The hot loops bump plain
        #: int attributes and append raw samples; metrics_snapshot() folds
        #: them into the registry lazily, so the default replay pays only
        #: integer increments and list appends.  Pass timing, hit counting,
        #: depth tracking and event emission are gated by the knobs below.
        obs = instrumentation if instrumentation is not None else Instrumentation()
        self.obs = obs
        self._tracer = obs.tracer
        self._trace_enabled = obs.tracer.enabled
        self._provenance = bool(obs.provenance) and self._trace_enabled
        self._view_cls = InstrumentedSchedulerView if obs.detail else SchedulerView
        self._policy_name = policy.name
        self._n_events = 0
        self._n_passes = 0
        self._n_backfilled = 0
        self._n_est_hits = 0
        self._n_est_misses = 0
        self._n_est_flushes = 0
        self._n_plans_kept = 0
        self._depth_samples: list[int] = []
        self._depth_folded = 0
        #: Backfill-depth tracking walks the queue once per selecting pass;
        #: the default mode skips it to stay inside the overhead budget.
        self._track_depth = obs.detail or obs.tracer.enabled
        #: job_id -> queue depth of each job the current pass selected.
        self._depths: dict[int, int] = {}
        self._audit = obs.audit
        #: Pass-duration histogram; ``None`` leaves the pass unwrapped.
        self._h_pass = None
        if obs.time_passes:
            self._h_pass = obs.registry.histogram(
                "sim.pass_duration_seconds", PASS_DURATION_BUCKETS
            )
        self._bind_subscribers()
        if obs.timeseries is not None:
            self.add_observer(obs.timeseries)

    def metrics_snapshot(self) -> dict:
        """Fold the hot-path tallies into the registry and snapshot it.

        The engine counts with plain int attributes and collects raw
        wait/depth samples in lists — folding into registry objects
        happens here, not per event, so instrumentation-off replays pay
        almost nothing.  Counter folds are assignments (idempotent);
        histogram folds only observe samples not folded before, so
        repeated snapshots never double-count.  Estimators exposing
        ``obs_stats()`` (see :class:`repro.predictors.base.PointEstimator`)
        get their counters folded in under ``estimator.*``.
        """
        reg = self.obs.registry
        n_started = len(self._started)
        reg.counter("sim.events_processed").value = self._n_events
        reg.counter("sim.schedule_passes").value = self._n_passes
        # Job life-cycle counts are derived, not counted: every admitted
        # job is queued or started, every started job is running or
        # recorded — so the replay loop carries no tallies for them.
        reg.counter("sim.jobs_submitted").value = n_started + len(self.queued)
        reg.counter("sim.jobs_started").value = n_started
        reg.counter("sim.jobs_backfilled").value = self._n_backfilled
        reg.counter("sim.jobs_finished").value = len(self._records)
        reg.counter("sim.estimate_cache_hits").value = self._n_est_hits
        reg.counter("sim.estimate_cache_misses").value = self._n_est_misses
        reg.counter("sim.estimate_cache_flushes").value = self._n_est_flushes
        if self._n_plans_kept:
            # Folded once a plan was kept, so replays that cannot keep one
            # (elapsed-conditioned estimates, tracing) snapshot as before.
            reg.counter("sim.backfill_plans_kept").value = self._n_plans_kept
        h_wait = reg.histogram("sim.wait_time_seconds", WAIT_TIME_BUCKETS)
        h_wait.reset()
        for rec in self._records:
            h_wait.observe(rec.start_time - rec.submit_time)
        for rj in self.running:
            h_wait.observe(rj.start_time - rj.job.submit_time)
        reg.histogram("sim.pass_duration_seconds", PASS_DURATION_BUCKETS)
        h_depth = reg.histogram("sim.backfill_depth", BACKFILL_DEPTH_BUCKETS)
        for value in self._depth_samples[self._depth_folded :]:
            h_depth.observe(value)
        self._depth_folded = len(self._depth_samples)
        snap = reg.snapshot()
        stats = getattr(self.estimator, "obs_stats", None)
        if stats is not None:
            counters = snap["counters"]
            for key, value in stats().items():
                name = f"estimator.{key}"
                counters[name] = counters.get(name, 0) + value
        return snap

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_observer(self, observer: object) -> None:
        """Attach an observer receiving on_submit/on_start/on_finish hooks."""
        self._observers.append(observer)
        self._bind_subscribers()

    def _bind_subscribers(self) -> None:
        """Resolve each event kind's subscribers in the module docstring's
        order.  A subscriber is called as ``fn(sim, payload)``, the payload
        being the :class:`QueuedJob` of a submit or start and the
        :class:`RunningJob` of a finish.  None of the subscribers built
        here refers to the simulator, so no reference cycle keeps a
        finished replay alive."""
        cls = type(self)
        submit, start, finish = [], [], []
        if self._trace_enabled:
            submit.append(cls._emit_submitted)
            finish.append(cls._emit_finished)
        est = self.estimator
        for name, subs in (("on_submit", submit), ("on_start", start), ("on_finish", finish)):
            hook = getattr(est, name, None)
            if hook is not None:
                subs.append(lambda sim, p, hook=hook: hook(p.job, sim.now))
        if self._observers:
            submit.append(self._observer_fan_out("on_submit", False))
            start.append(self._observer_fan_out("on_start", True))
            finish.append(self._observer_fan_out("on_finish", True))
        if self._audit is not None:
            start.append(cls._resolve_wait)
            finish.append(cls._resolve_runtime)
        if self._track_depth:
            start.append(cls._tally_depth)
        if self._trace_enabled:
            start.append(cls._emit_started)
        self._on_submit = tuple(submit)
        self._on_start = tuple(start)
        self._on_finish = tuple(finish)

    def _observer_fan_out(self, name: str, pass_job: bool):
        """A subscriber passing one new view and the payload (or its job)
        to every observer hook called ``name``.  The view is built even
        when no observer has the hook: building it may flush the estimate
        cache."""
        found = (getattr(o, name, None) for o in self._observers)
        hooks = tuple(hook for hook in found if hook is not None)
        view_cls = self._view_cls

        def notify(sim: "Simulator", payload) -> None:
            view = view_cls(sim)
            arg = payload.job if pass_job else payload
            for hook in hooks:
                hook(view, arg)

        return notify

    def load_trace(self, trace: Trace) -> None:
        if self.pool.total != trace.total_nodes:
            raise ValueError(
                f"simulator built for {self.pool.total} nodes but trace "
                f"declares {trace.total_nodes}"
            )
        self._events.extend((job.submit_time, SUBMIT, job) for job in trace)

    def add_reservations(self, reservations: Iterable[Reservation]) -> None:
        """Register advance reservations (before or during :meth:`run`).

        Each reservation claims its nodes at its start time — or, if the
        machine is too busy then, the instant enough nodes free up,
        ahead of any queued job.  Outcomes land in
        :attr:`reservation_records`.
        """
        for res in reservations:
            if res.nodes > self.pool.total:
                raise ValueError(
                    f"reservation {res.res_id} wants {res.nodes} nodes on a "
                    f"{self.pool.total}-node machine"
                )
            if res.start_time < self.now:
                raise ValueError(
                    f"reservation {res.res_id} starts in the past "
                    f"({res.start_time} < {self.now})"
                )
            self.pending_reservations.append(res)
            self._plan_key = object()
            self._events.push(res.start_time, RES_START, res)
            if self._trace_enabled:
                self._tracer.emit(
                    "reservation_placed",
                    sim_time=self.now,
                    policy=self._policy_name,
                    cause="advance_reservation",
                    res_id=res.res_id,
                    start_s=res.start_time,
                    nodes=res.nodes,
                )

    def load_snapshot(self, snapshot: SystemSnapshot, durations: dict[int, float]) -> None:
        """Initialize mid-flight state for a forward simulation.

        The snapshot's own job objects are reused; ``durations`` gives
        each one's believed total run time ``d``.  A running job that has
        run ``e`` seconds finishes at ``now + max(max(d, e + MIN_DURATION)
        - e, MIN_DURATION)``; from here on :meth:`_start` runs a queued job
        for ``max(d, MIN_DURATION)``, not its ``job.run_time``.  Queued
        jobs enter the queue in their original arrival order.  A
        non-finite ``d`` raises :class:`ValueError` naming the job before
        any event is pushed.
        """
        now = self.now = snapshot.now
        self._plan_key = object()
        for item in snapshot.running + snapshot.queued:
            d = durations[item.job.job_id]
            if not -math.inf < d < math.inf:
                raise ValueError(
                    f"job {item.job.job_id}: believed run time must be finite, got {d}"
                )
        for rj in snapshot.running:
            self.pool.allocate(rj.job.nodes)
            self.running.append(rj)
            self._started[rj.job_id] = rj.start_time
            elapsed = rj.elapsed(now)
            run_time = max(durations[rj.job_id], elapsed + MIN_DURATION)
            self._events.push(now + max(run_time - elapsed, MIN_DURATION), FINISH, rj)
        for qj in snapshot.queued:
            self.queued.append(qj)
        self._run_time = lambda job: max(durations[job.job_id], MIN_DURATION)

    def snapshot(self) -> SystemSnapshot:
        """Capture the current running/queued state."""
        return SystemSnapshot(
            now=self.now,
            running=tuple(self.running),
            queued=tuple(self.queued),
            total_nodes=self.pool.total,
        )

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def run(
        self,
        trace: Trace | None = None,
        *,
        until_started: int | None = None,
        until_time: float | None = None,
    ) -> ScheduleResult:
        """Process all events; return the schedule.

        With ``until_started`` the simulation stops as soon as that job id
        begins executing (used by forward simulation, where nothing after
        the target's start matters).  With ``until_time`` it stops before
        processing any event past that instant, leaving live mid-flight
        state (running jobs, a populated queue) — call :meth:`run` again
        to continue.
        """
        if trace is not None:
            self.load_trace(trace)
        events = self._events
        while events:
            t = events.peek_time()
            assert t is not None
            if until_time is not None and t > until_time:
                self.now = max(self.now, until_time)
                return self.result()
            if t < self.now - 1e-9:
                raise RuntimeError(f"time went backwards: {t} < {self.now}")
            self.now = max(self.now, t)
            # Drain every event at this instant (finishes first) so the
            # scheduling pass sees the complete state.
            while events and events.peek_time() == t:
                _, kind, payload = events.pop()
                self._n_events += 1
                if kind == FINISH:
                    self._handle_finish(payload)
                elif kind == RES_END:
                    self._handle_reservation_end(payload)
                elif kind == RES_START:
                    self._handle_reservation_start(payload)
                else:
                    self._handle_submit(payload)
            self._activate_waiting_reservations()
            started = self._schedule_pass()
            if until_started is not None and any(
                qj.job_id == until_started for qj in started
            ):
                return self.result()
        return self.result()

    def schedule_now(self) -> list[QueuedJob]:
        """Run one scheduling pass at the current instant; return starts.

        Public entry point for callers that hold mid-flight state (e.g.
        a freshly loaded snapshot) and need the starts that require no
        event at all — the same activation + pass sequence :meth:`run`
        performs after draining a timestamp.
        """
        self._activate_waiting_reservations()
        return self._schedule_pass()

    def result(self) -> ScheduleResult:
        return ScheduleResult(self._records, total_nodes=self.pool.total)

    @property
    def started_times(self) -> dict[int, float]:
        """job_id -> start time for every job started so far."""
        return dict(self._started)

    # ------------------------------------------------------------------
    # estimate cache
    # ------------------------------------------------------------------
    def _estimate_memo(self) -> dict[int, float]:
        """The queued-estimate cache valid for the estimator's current epoch;
        a fresh dict per view (per-pass memoization) when it has none."""
        memos = self._estimates
        memo = memos.sync(self.estimator)
        if memo is None:
            return {}
        if memos.dropped:
            self._n_est_flushes += 1
            if self._trace_enabled:
                self._tracer.emit(
                    "replan_triggered", sim_time=self.now, policy=self._policy_name,
                    cause="history_epoch_advanced", flushed=memos.dropped,
                )
        return memo

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _handle_submit(self, job: Job) -> None:
        qj = QueuedJob(job)
        self.queued.append(qj)
        for notify in self._on_submit:
            notify(self, qj)

    def _handle_finish(self, rj: RunningJob) -> None:
        try:
            self.running.remove(rj)
        except ValueError:
            raise RuntimeError(f"finish event for job {rj.job_id} not running")
        self.pool.release(rj.job.nodes)
        self._plan_key = object()
        self._records.append(
            JobRecord(
                job_id=rj.job_id,
                submit_time=rj.job.submit_time,
                start_time=rj.start_time,
                finish_time=self.now,
                nodes=rj.job.nodes,
            )
        )
        for notify in self._on_finish:
            notify(self, rj)

    def _handle_reservation_start(self, res: Reservation) -> None:
        self.pending_reservations.remove(res)
        self.waiting_reservations.append(res)

    def _handle_reservation_end(self, active: "ActiveReservation") -> None:
        self.active_reservations.remove(active)
        self.pool.release(active.reservation.nodes)
        self._plan_key = object()

    def _activate_waiting_reservations(self) -> None:
        """Give due reservations first claim on free nodes."""
        if not self.waiting_reservations:
            return
        still_waiting: list[Reservation] = []
        for res in self.waiting_reservations:
            if self.pool.free >= res.nodes:
                self.pool.allocate(res.nodes)
                active = ActiveReservation(res, self.now + res.duration)
                self.active_reservations.append(active)
                self._events.push(active.end_time, RES_END, active)
                self.reservation_records.append(
                    ReservationRecord(
                        res_id=res.res_id,
                        scheduled_start=res.start_time,
                        actual_start=self.now,
                        nodes=res.nodes,
                        duration=res.duration,
                    )
                )
                if self._trace_enabled and self.now > res.start_time:
                    self._tracer.emit(
                        "reservation_shifted",
                        sim_time=self.now,
                        cause="machine_busy",
                        res_id=res.res_id,
                        start_s=self.now,
                        scheduled_start_s=res.start_time,
                        nodes=res.nodes,
                    )
            else:
                still_waiting.append(res)
        self.waiting_reservations = still_waiting

    def _schedule_pass(self) -> list[QueuedJob]:
        if not self.queued or self.pool.free == 0:
            # Every job needs >= 1 node, so no policy can start anything;
            # a pass that only reserved would change no start.
            return []
        if self._h_pass is None:
            return self._select_and_start()
        with self._tracer.span(
            "schedule_pass",
            histogram=self._h_pass,
            sim_time=self.now,
            policy=self._policy_name,
            queued=len(self.queued),
        ) as span:
            selections = self._select_and_start()
            span.annotate(started=len(selections))
        return selections

    def _select_and_start(self) -> list[QueuedJob]:
        self._n_passes += 1
        selections = list(self.policy.select(self._view_cls(self)))
        selected_ids = {qj.job_id for qj in selections}
        if len(selected_ids) != len(selections):
            raise RuntimeError(f"{self.policy.name} selected a job twice")
        if self._track_depth and selections:
            self._depths = self._selection_depths(selected_ids)
        for qj in selections:
            if qj not in self.queued:
                raise RuntimeError(
                    f"{self.policy.name} selected job {qj.job_id} not in queue"
                )
            self._start(qj)
        return selections

    def _selection_depths(self, selected_ids: set[int]) -> dict[int, int]:
        """Queue depth each selected job jumps: the number of *unselected*
        jobs queued ahead of it.  Depth 0 is an in-order start; depth > 0
        means the start leapfrogged earlier arrivals (a backfill)."""
        depths: dict[int, int] = {}
        ahead = 0
        for qj in self.queued:
            if qj.job_id in selected_ids:
                depths[qj.job_id] = ahead
                if len(depths) == len(selected_ids):
                    break
            else:
                ahead += 1
        return depths

    def _start(self, qj: QueuedJob) -> None:
        self.pool.allocate(qj.job.nodes)  # raises if the policy overcommitted
        self.queued.remove(qj)
        if not self._est_invariant:
            # No longer queued; keep the cache small.  Elapsed-invariant
            # estimators keep the entry — it doubles as the running-job
            # base in SchedulerView.remaining.
            self._estimates.memo.pop(qj.job_id, None)
        rj = RunningJob(job=qj.job, start_time=self.now)
        self.running.append(rj)
        self._started[qj.job_id] = self.now
        self._events.push(self.now + max(self._run_time(qj.job), 0.0), FINISH, rj)
        for notify in self._on_start:
            notify(self, qj)

    # ------------------------------------------------------------------
    # instrumentation subscribers (bound by _bind_subscribers)
    # ------------------------------------------------------------------
    def _emit_submitted(self, qj: QueuedJob) -> None:
        self._tracer.emit(
            "job_submitted", sim_time=self.now, job_id=qj.job_id,
            policy=self._policy_name, nodes=qj.job.nodes,
        )

    def _emit_finished(self, rj: RunningJob) -> None:
        self._tracer.emit(
            "job_finished", sim_time=self.now, job_id=rj.job_id,
            policy=self._policy_name, run_s=self.now - rj.start_time,
        )

    def _resolve_wait(self, qj: QueuedJob) -> None:
        self._audit.resolve_wait(
            qj.job_id, self.now, self.now - qj.job.submit_time,
            policy=self._policy_name,
        )

    def _resolve_runtime(self, rj: RunningJob) -> None:
        self._audit.resolve_runtime(
            rj.job_id, self.now, self.now - rj.start_time,
            policy=self._policy_name,
        )

    def _tally_depth(self, qj: QueuedJob) -> None:
        depth = self._depths.get(qj.job_id, 0)
        self._depth_samples.append(depth)
        if depth > 0:
            self._n_backfilled += 1

    def _emit_started(self, qj: QueuedJob) -> None:
        depth = self._depths.get(qj.job_id, 0)
        self._tracer.emit(
            "job_started", sim_time=self.now, job_id=qj.job_id,
            policy=self._policy_name, wait_s=self.now - qj.job.submit_time,
            nodes=qj.job.nodes, depth=depth,
        )
        if depth > 0:
            self._tracer.emit(
                "job_backfilled", sim_time=self.now, job_id=qj.job_id,
                policy=self._policy_name, cause="out_of_order_start",
                depth=depth,
            )


class FrozenEstimator:
    """An estimator that returns a fixed prediction per job id.

    Forward simulations freeze the predictions made at the moment of the
    wait-time query: within the imagined future, the scheduler believes
    exactly those numbers.  The caller's dict is wrapped, not copied, so
    it must not change while the estimator is in use.
    """

    #: Predictions never change, so the estimate cache never flushes.
    history_epoch = 0
    #: ...and ignore elapsed/now entirely, so max(predict(job, e), e)
    #: depends only on the cached elapsed-0 prediction.
    elapsed_invariant = True

    def __init__(self, predictions: dict[int, float]) -> None:
        self._predictions = predictions

    def predict(self, job: Job, elapsed: float, now: float) -> float:
        try:
            return self._predictions[job.job_id]
        except KeyError:
            raise KeyError(f"no frozen prediction for job {job.job_id}") from None


def forward_simulate(
    snapshot: SystemSnapshot,
    policy: Policy,
    durations: dict[int, float],
    target_job_id: int,
    *,
    estimates: dict[int, float] | None = None,
) -> float:
    """Predicted start time of ``target_job_id`` given per-job predictions.

    ``durations`` maps each running/queued job id to a predicted *total*
    run time, used as the jobs' actual durations inside the simulation
    (the paper's "using the predicted run times as the run times of the
    applications", §3).  The snapshot's jobs are not copied:
    :meth:`Simulator.load_snapshot` reads their finish times from
    ``durations`` (running jobs run the prediction minus the time already
    run, queued jobs the full prediction, both floored at
    ``MIN_DURATION``) and rejects a NaN or infinite one.

    ``estimates`` supplies the run-time estimates the *simulated
    scheduler* bases its decisions on — these must mirror what the real
    scheduler uses (user maxima in the paper's §3 setup), not the
    evaluated predictor, or the imagined backfill reservations diverge
    from the real ones even with perfect run-time knowledge.  Defaults to
    ``durations`` (a self-consistent imagined world) when omitted.

    No future arrivals are injected — the paper predicts the wait as of
    submission, accepting the built-in error later arrivals cause for
    LWF (§3, Table 4).
    """
    if target_job_id not in durations:
        raise KeyError(f"no prediction supplied for target job {target_job_id}")
    sim = Simulator(
        policy,
        FrozenEstimator(estimates if estimates is not None else durations),
        snapshot.total_nodes,
    )
    sim.load_snapshot(snapshot, durations)
    # The snapshot state may admit immediate starts (e.g. the brand-new
    # job fits right now); run() performs a pass at the first event, but
    # an explicit pass at t=now catches starts that need no event at all.
    started = sim.schedule_now()
    if any(qj.job_id == target_job_id for qj in started):
        return snapshot.now
    sim.run(until_started=target_job_id)
    start = sim.started_times.get(target_job_id)
    if start is None:
        raise RuntimeError(
            f"forward simulation ended without starting job {target_job_id}"
        )
    return start
