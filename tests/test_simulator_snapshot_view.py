"""Tests for Simulator.snapshot() and SchedulerView details."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.registry import make_predictor
from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy
from repro.scheduler.policies.base import MIN_DURATION
from repro.scheduler.simulator import (
    InstrumentedSchedulerView,
    QueuedJob,
    RunningJob,
    SchedulerView,
    Simulator,
)
from repro.workloads.job import Job, Trace
from tests.conftest import make_job


def mid_flight_sim():
    jobs = [
        make_job(job_id=1, submit_time=0.0, run_time=100.0, nodes=8),
        make_job(job_id=2, submit_time=5.0, run_time=50.0, nodes=8),
        make_job(job_id=3, submit_time=6.0, run_time=20.0, nodes=8),
    ]
    sim = Simulator(FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), 10)
    sim.load_trace(Trace(jobs, total_nodes=10))
    sim.run(until_time=10.0)
    return sim


class TestSnapshot:
    def test_captures_running_and_queued(self):
        sim = mid_flight_sim()
        snap = sim.snapshot()
        assert snap.now == 10.0
        assert [r.job_id for r in snap.running] == [1]
        assert [q.job_id for q in snap.queued] == [2, 3]
        assert snap.total_nodes == 10

    def test_snapshot_is_a_copy(self):
        sim = mid_flight_sim()
        snap = sim.snapshot()
        sim.run()  # finish everything
        # The snapshot still shows the mid-flight state.
        assert len(snap.running) == 1
        assert len(snap.queued) == 2

    def test_running_elapsed(self):
        sim = mid_flight_sim()
        [rj] = sim.snapshot().running
        assert rj.elapsed(10.0) == pytest.approx(10.0)


class TestSchedulerView:
    def test_estimates_memoized_within_pass(self):
        calls = []

        class Counting:
            def predict(self, job, elapsed, now):
                calls.append(job.job_id)
                return job.run_time

        sim = Simulator(FCFSPolicy(), Counting(), 10)
        sim.queued.append(
            __import__("repro.scheduler.simulator", fromlist=["QueuedJob"]).QueuedJob(
                make_job(job_id=7)
            )
        )
        view = SchedulerView(sim)
        qj = sim.queued[0]
        view.estimate(qj)
        view.estimate(qj)
        assert calls == [7]
        view.invalidate()
        view.estimate(qj)
        assert calls == [7, 7]

    def test_estimate_floor(self):
        class Zero:
            def predict(self, job, elapsed, now):
                return -5.0

        sim = Simulator(FCFSPolicy(), Zero(), 10)
        from repro.scheduler.simulator import QueuedJob

        sim.queued.append(QueuedJob(make_job(job_id=1)))
        view = SchedulerView(sim)
        assert view.estimate(sim.queued[0]) > 0.0

    def test_remaining_clamps_overrun(self):
        """A job past its estimate still has positive remaining time."""

        class Short:
            def predict(self, job, elapsed, now):
                return 10.0  # but the job has been running 500 s

        sim = Simulator(FCFSPolicy(), Short(), 10)
        from repro.scheduler.simulator import RunningJob

        sim.now = 500.0
        rj = RunningJob(make_job(job_id=1), start_time=0.0)
        sim.running.append(rj)
        view = SchedulerView(sim)
        assert view.remaining(rj) > 0.0
        assert view.remaining(rj) < 1.0


# Run times and maxima below MIN_DURATION (1e-6) exercise the floor.
_TINY = st.sampled_from([0.0, 1e-9, 5e-7])
_RUN_TIMES = st.one_of(_TINY, st.floats(0.0, 5e4))
_MAXIMA = st.one_of(st.none(), st.sampled_from([1e-9, 5e-7]), st.floats(1e-3, 5e4))
# Half the draws run briefly, so most jobs are still within their estimate.
_ELAPSED = st.one_of(st.floats(0.0, 1e5), st.floats(0.0, 1.0))


@st.composite
def running_states(draw):
    """A running set under user maxima (elapsed-invariant) or Smith
    (elapsed-conditioned), with some jobs overdue (elapsed >= estimate)
    and some estimates already memoized at queue time."""
    kind = draw(st.sampled_from(["max", "smith"]))
    view_cls = draw(st.sampled_from([SchedulerView, InstrumentedSchedulerView]))
    now = draw(st.floats(0.0, 1e6))
    running = []
    for i in range(draw(st.integers(0, 8))):
        job = Job(
            job_id=i + 1,
            submit_time=0.0,
            run_time=draw(_RUN_TIMES),
            nodes=draw(st.integers(1, 4)),
            user=draw(st.sampled_from(["a", "b"])),
            executable="x",
            max_run_time=draw(_MAXIMA),
        )
        running.append((job, now - draw(_ELAPSED)))
    finished = draw(
        st.lists(st.tuples(st.sampled_from(["a", "b"]), _RUN_TIMES), max_size=6)
    )
    history = [
        Job(job_id=100 + k, submit_time=0.0, run_time=rt, nodes=1, user=user, executable="x")
        for k, (user, rt) in enumerate(finished)
    ]
    jobs = [job for job, _ in running]
    warmed = draw(st.lists(st.sampled_from(jobs), unique=True)) if jobs else []
    return kind, view_cls, now, running, history, warmed


def _build(kind, view_cls, now, running, history, warmed):
    jobs = [job for job, _ in running]
    estimator = PointEstimator(make_predictor(kind, Trace(jobs + history, total_nodes=64)))
    for job in history:
        estimator.on_finish(job, 0.0)
    sim = Simulator(BackfillPolicy(), estimator, 64)
    sim.now = now
    for job, start in running:
        sim.running.append(RunningJob(job, start))
    view = view_cls(sim)
    for job in warmed:
        view.estimate(QueuedJob(job))
    return sim, view


def _hex(pairs):
    return [(t.hex(), nodes) for t, nodes in pairs]


def _release(view, rj):
    """The rule ``releases()`` follows, with one ``remaining()`` call's
    memo reads and ``predict`` calls: ``max(start + est, now +
    MIN_DURATION)`` under an elapsed-invariant estimator (``est`` the
    memoized elapsed-0 estimate), else ``now + remaining(rj)``."""
    remaining = view.remaining(rj)
    if view._elapsed_invariant:
        return max(rj.start_time + view._cache[rj.job_id], view.now + MIN_DURATION)
    return view.now + remaining


# now + (base - (now - start)), the rule before releases stopped
# depending on now, rounds differently from start + base here.
_ROUNDING_PROBE = (
    "max",
    SchedulerView,
    0.6423396359627047,
    [(make_job(job_id=1, run_time=1.0, nodes=1, max_run_time=3.3), 0.1)],
    [],
    [],
)


@given(state=running_states())
@example(state=_ROUNDING_PROBE)
@settings(max_examples=200, deadline=None)
def test_property_releases_match_remaining_bit_for_bit(state):
    """``releases()`` pins the release rule bit for bit — ``start +
    est`` while a job under an elapsed-invariant estimator is not
    overdue, ``now + remaining`` under any other — with the memo misses
    and ``predict`` calls of one ``remaining()`` call per job, on a cold
    view and again on the warm one."""
    sim_a, view_a = _build(*state)
    sim_b, view_b = _build(*state)
    for _ in range(2):
        got = view_a.releases()
        want = [(_release(view_b, rj), rj.job.nodes) for rj in view_b.running]
        assert _hex(got) == _hex(want)
        counters_a = sim_a.metrics_snapshot()["counters"]
        counters_b = sim_b.metrics_snapshot()["counters"]
        assert (
            counters_a["sim.estimate_cache_misses"]
            == counters_b["sim.estimate_cache_misses"]
        )
        assert sim_a.estimator.obs_stats() == sim_b.estimator.obs_stats()
