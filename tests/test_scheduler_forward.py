"""Tests for forward simulation (the wait-time prediction engine)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.events import FINISH
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.policies.base import MIN_DURATION
from repro.scheduler.simulator import (
    FrozenEstimator,
    QueuedJob,
    RunningJob,
    Simulator,
    SystemSnapshot,
    forward_simulate,
)
from repro.workloads.job import Job
from tests.conftest import make_job

POLICIES = [FCFSPolicy, LWFPolicy, BackfillPolicy]


def snap(now=0.0, running=(), queued=(), total_nodes=10):
    return SystemSnapshot(
        now=now,
        running=tuple(RunningJob(j, s) for j, s in running),
        queued=tuple(QueuedJob(j) for j in queued),
        total_nodes=total_nodes,
    )


class TestForwardSimulate:
    def test_immediate_start_when_machine_free(self):
        target = make_job(job_id=1, submit_time=0.0, nodes=4, run_time=100.0)
        s = snap(queued=[target])
        start = forward_simulate(s, FCFSPolicy(), {1: 100.0}, 1)
        assert start == 0.0

    def test_waits_for_predicted_completion(self):
        running = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=999.0)
        target = make_job(job_id=2, submit_time=50.0, nodes=10, run_time=10.0)
        s = snap(now=50.0, running=[(running, 0.0)], queued=[target])
        # Predicted total 200 s for the running job, started at 0: ends 200.
        start = forward_simulate(s, FCFSPolicy(), {1: 200.0, 2: 10.0}, 2)
        assert start == pytest.approx(200.0)

    def test_elapsed_subtracted_from_running_prediction(self):
        running = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=999.0)
        target = make_job(job_id=2, submit_time=80.0, nodes=10, run_time=10.0)
        s = snap(now=80.0, running=[(running, 0.0)], queued=[target])
        # 200 s total prediction, 80 already elapsed: 120 remain.
        start = forward_simulate(s, FCFSPolicy(), {1: 200.0, 2: 10.0}, 2)
        assert start == pytest.approx(200.0)

    def test_prediction_shorter_than_elapsed_clamped(self):
        running = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=999.0)
        target = make_job(job_id=2, submit_time=300.0, nodes=10, run_time=10.0)
        s = snap(now=300.0, running=[(running, 0.0)], queued=[target])
        # Predicted 100 s but it has already run 300: treated as ending now.
        start = forward_simulate(s, FCFSPolicy(), {1: 100.0, 2: 10.0}, 2)
        assert start == pytest.approx(300.0, abs=1e-3)

    def test_fcfs_respects_queue_ahead(self):
        ahead = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=500.0)
        target = make_job(job_id=2, submit_time=1.0, nodes=1, run_time=10.0)
        s = snap(now=1.0, queued=[ahead, target])
        start = forward_simulate(s, FCFSPolicy(), {1: 500.0, 2: 10.0}, 2)
        assert start == pytest.approx(501.0)

    def test_lwf_lets_target_jump_ahead(self):
        ahead = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=500.0)
        target = make_job(job_id=2, submit_time=1.0, nodes=10, run_time=10.0)
        s = snap(now=1.0, queued=[ahead, target])
        start = forward_simulate(s, LWFPolicy(), {1: 500.0, 2: 10.0}, 2)
        assert start == pytest.approx(1.0)

    def test_backfill_prediction_uses_scheduler_estimates(self):
        """Durations and scheduler estimates are decoupled.

        The running job truly ends at 100 (duration), but the scheduler
        believes 500 (estimate) and so reserves the 8-wide head at t=500;
        the 4-node target (believed 300 s) backfills at once.
        """
        running = make_job(job_id=1, submit_time=0.0, nodes=6, run_time=100.0)
        head = make_job(job_id=2, submit_time=1.0, nodes=8, run_time=100.0)
        target = make_job(job_id=3, submit_time=2.0, nodes=4, run_time=300.0)
        s = snap(now=2.0, running=[(running, 0.0)], queued=[head, target])
        durations = {1: 100.0, 2: 100.0, 3: 300.0}
        estimates = {1: 500.0, 2: 100.0, 3: 300.0}
        start = forward_simulate(
            s, BackfillPolicy(), durations, 3, estimates=estimates
        )
        assert start == pytest.approx(2.0)
        # With self-consistent estimates the backfill would delay the head
        # (ends 100, target holds 4 nodes to 302), so the target waits.
        start2 = forward_simulate(s, BackfillPolicy(), durations, 3)
        assert start2 > 2.0

    def test_missing_target_prediction_raises(self):
        target = make_job(job_id=1, submit_time=0.0, nodes=4)
        s = snap(queued=[target])
        with pytest.raises(KeyError, match="target"):
            forward_simulate(s, FCFSPolicy(), {}, 1)

    def test_no_future_arrivals_interfere(self):
        # Only snapshot jobs exist; target starts as soon as they clear.
        r1 = make_job(job_id=1, submit_time=0.0, nodes=5, run_time=50.0)
        r2 = make_job(job_id=2, submit_time=0.0, nodes=5, run_time=80.0)
        target = make_job(job_id=3, submit_time=10.0, nodes=10, run_time=5.0)
        s = snap(now=10.0, running=[(r1, 0.0), (r2, 0.0)], queued=[target])
        start = forward_simulate(s, FCFSPolicy(), {1: 50.0, 2: 80.0, 3: 5.0}, 3)
        assert start == pytest.approx(80.0)

    def test_matches_real_simulation_for_fcfs_with_truth(self):
        """With exact durations and no later arrivals, the forward sim
        reproduces the real FCFS start time."""
        from repro.predictors.base import PointEstimator
        from repro.predictors.simple import ActualRuntimePredictor
        from repro.scheduler.simulator import Simulator
        from repro.workloads.job import Trace

        jobs = [
            make_job(job_id=1, submit_time=0.0, run_time=120.0, nodes=7),
            make_job(job_id=2, submit_time=5.0, run_time=60.0, nodes=7),
            make_job(job_id=3, submit_time=6.0, run_time=30.0, nodes=7),
        ]
        trace = Trace(jobs, total_nodes=10)
        sim = Simulator(FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), 10)
        res = sim.run(trace)
        # Reconstruct the snapshot at job 3's submission by hand.
        s = snap(
            now=6.0,
            running=[(jobs[0], 0.0)],
            queued=[jobs[1], jobs[2]],
        )
        start = forward_simulate(
            s, FCFSPolicy(), {1: 120.0, 2: 60.0, 3: 30.0}, 3
        )
        assert start == pytest.approx(res[3].start_time)


@pytest.mark.parametrize("policy_cls", POLICIES)
@pytest.mark.parametrize("where", ["running", "queued"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_duration_is_rejected(bad, where, policy_cls):
    """A NaN or infinite believed run time is refused, naming the job; an
    event at a non-finite time would never drain."""
    running = make_job(job_id=1, submit_time=0.0, nodes=6, run_time=100.0)
    head = make_job(job_id=2, submit_time=1.0, nodes=8, run_time=100.0)
    target = make_job(job_id=3, submit_time=2.0, nodes=8, run_time=100.0)
    s = snap(now=5.0, running=[(running, 0.0)], queued=[head, target])
    bad_id = 1 if where == "running" else 2
    durations = {1: 50.0, 2: 60.0, 3: 70.0, bad_id: bad}
    with pytest.raises(ValueError, match=rf"job {bad_id}\b.*finite"):
        forward_simulate(s, policy_cls(), durations, 3)


def _copying_forward_simulate(snapshot, policy, durations, target_job_id, *, estimates=None):
    """Forward simulation as it was when it copied jobs: every snapshot job
    is rebuilt with its believed run time as ``run_time``, running jobs
    finish at ``now + max(run_time - elapsed, MIN_DURATION)`` and started
    jobs run for their (copied) ``run_time``."""
    now = snapshot.now
    running = [
        RunningJob(
            job=rj.job.with_(
                run_time=max(durations[rj.job_id], rj.elapsed(now) + MIN_DURATION)
            ),
            start_time=rj.start_time,
        )
        for rj in snapshot.running
    ]
    queued = [
        QueuedJob(job=qj.job.with_(run_time=max(durations[qj.job_id], MIN_DURATION)))
        for qj in snapshot.queued
    ]
    frozen = FrozenEstimator(dict(estimates if estimates is not None else durations))
    sim = Simulator(policy, frozen, snapshot.total_nodes)
    sim.now = now
    for rj in running:
        sim.pool.allocate(rj.job.nodes)
        sim.running.append(rj)
        sim._started[rj.job_id] = rj.start_time
        remaining = max(rj.job.run_time - rj.elapsed(now), MIN_DURATION)
        sim._events.push(now + remaining, FINISH, rj)
    for qj in queued:
        sim.queued.append(qj)
    started = sim.schedule_now()
    if any(qj.job_id == target_job_id for qj in started):
        return now
    sim.run(until_started=target_job_id)
    return sim.started_times[target_job_id]


def _believed(elapsed: float):
    """Believed total run times: zero, sub-MIN_DURATION, overdue (shorter
    than ``elapsed``) and ordinary."""
    return st.one_of(
        st.just(0.0),
        st.floats(0.0, MIN_DURATION),
        st.floats(0.0, 1.0).map(lambda f: f * elapsed),
        st.floats(0.0, 600.0),
    )


@st.composite
def forward_cases(draw):
    total = draw(st.integers(1, 12))
    now = draw(st.floats(0.0, 1000.0))
    free, jid = total, 0
    running, queued, durations = [], [], {}
    for _ in range(draw(st.integers(0, 4))):
        if free == 0:
            break
        jid += 1
        nodes = draw(st.integers(1, free))
        free -= nodes
        start = draw(st.floats(0.0, now))
        job = Job(
            job_id=jid, submit_time=draw(st.floats(0.0, start)),
            run_time=draw(st.floats(0.0, 2000.0)), nodes=nodes,
        )
        running.append(RunningJob(job, start))
        durations[jid] = draw(_believed(now - start))
    submits = sorted(draw(st.lists(st.floats(0.0, now), min_size=1, max_size=7)))
    for submit in submits:
        jid += 1
        job = Job(
            job_id=jid, submit_time=submit,
            run_time=draw(st.floats(0.0, 2000.0)), nodes=draw(st.integers(1, total)),
        )
        queued.append(QueuedJob(job))
        durations[jid] = draw(_believed(now - submit))
    estimates = draw(st.one_of(
        st.none(),
        st.fixed_dictionaries({j: _believed(600.0) for j in durations}),
    ))
    snapshot = SystemSnapshot(
        now=now, running=tuple(running), queued=tuple(queued), total_nodes=total,
    )
    target = draw(st.sampled_from([qj.job_id for qj in queued]))
    return snapshot, durations, estimates, target


@given(case=forward_cases(), policy_cls=st.sampled_from(POLICIES))
@settings(max_examples=200)
def test_property_copy_free_matches_copying(case, policy_cls):
    """The copy-free forward simulation starts the target at the same
    float, to the bit, as one that copies every job."""
    snapshot, durations, estimates, target = case
    got = forward_simulate(snapshot, policy_cls(), durations, target, estimates=estimates)
    want = _copying_forward_simulate(
        snapshot, policy_cls(), durations, target, estimates=estimates
    )
    assert float.hex(float(got)) == float.hex(float(want))


@pytest.mark.parametrize("policy_cls", POLICIES)
def test_forward_simulation_builds_no_job(monkeypatch, policy_cls):
    """Forward simulation reuses the snapshot's jobs: with job copying and
    construction made to fail it still answers."""
    r1 = make_job(job_id=1, submit_time=0.0, nodes=4, run_time=900.0)
    r2 = make_job(job_id=2, submit_time=0.0, nodes=4, run_time=900.0)
    queued = [
        make_job(job_id=3, submit_time=1.0, nodes=6, run_time=900.0),
        make_job(job_id=4, submit_time=2.0, nodes=2, run_time=900.0),
        make_job(job_id=5, submit_time=3.0, nodes=8, run_time=900.0),
        make_job(job_id=6, submit_time=4.0, nodes=10, run_time=900.0),
    ]
    s = snap(now=10.0, running=[(r1, 0.0), (r2, 5.0)], queued=queued)
    durations = {1: 100.0, 2: 40.0, 3: 80.0, 4: 30.0, 5: 60.0, 6: 20.0}
    estimates = {1: 300.0, 2: 200.0, 3: 80.0, 4: 500.0, 5: 60.0, 6: 20.0}

    def refuse(*args, **kwargs):
        raise AssertionError("forward simulation built a Job")

    monkeypatch.setattr(Job, "with_", refuse)
    monkeypatch.setattr(Job, "__post_init__", refuse)
    start = forward_simulate(s, policy_cls(), durations, 6, estimates=estimates)
    assert start > s.now
