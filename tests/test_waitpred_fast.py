"""Equivalence tests: analytic wait-prediction shortcuts vs. simulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.policies.base import MIN_DURATION
from repro.scheduler.simulator import (
    QueuedJob,
    RunningJob,
    Simulator,
    SystemSnapshot,
    forward_simulate,
)
from repro.waitpred.fast import (
    UnknownJobError,
    backfill_predicted_start,
    backfill_predicted_starts,
    fcfs_predicted_start,
    fcfs_predicted_starts,
    predict_start_fast,
)
from repro.waitpred.predictor import WaitTimePredictor
from repro.workloads.job import Job
from tests.conftest import make_job

TOTAL = 12


@st.composite
def snapshots(draw):
    """A random consistent snapshot plus per-job durations."""
    now = draw(st.floats(0.0, 100.0))
    durations: dict[int, float] = {}
    running: list[RunningJob] = []
    free = TOTAL
    jid = 1
    for _ in range(draw(st.integers(0, 3))):
        nodes = draw(st.integers(1, 6))
        if nodes > free:
            continue
        free -= nodes
        start = draw(st.floats(0.0, 50.0).map(lambda v: min(v, now)))
        job = Job(job_id=jid, submit_time=0.0, run_time=1.0, nodes=nodes)
        running.append(RunningJob(job, start))
        durations[jid] = draw(st.floats(1.0, 300.0))
        jid += 1
    queued: list[QueuedJob] = []
    for _ in range(draw(st.integers(1, 6))):
        nodes = draw(st.integers(1, TOTAL))
        job = Job(job_id=jid, submit_time=min(now, float(jid)), run_time=1.0,
                  nodes=nodes)
        queued.append(QueuedJob(job))
        durations[jid] = draw(st.floats(0.0, 300.0))
        jid += 1
    snap = SystemSnapshot(
        now=now, running=tuple(running), queued=tuple(queued), total_nodes=TOTAL
    )
    target = draw(st.sampled_from([qj.job_id for qj in queued]))
    return snap, durations, target


@given(case=snapshots())
@settings(max_examples=120, deadline=None)
def test_property_fcfs_shortcut_matches_simulation(case):
    snap, durations, target = case
    fast = fcfs_predicted_start(snap, durations, target)
    ref = forward_simulate(snap, FCFSPolicy(), durations, target)
    assert fast == pytest.approx(ref, rel=1e-9, abs=1e-4)


@given(case=snapshots())
@settings(max_examples=120, deadline=None)
def test_property_backfill_shortcut_matches_simulation(case):
    snap, durations, target = case
    fast = backfill_predicted_start(snap, durations, target)
    ref = forward_simulate(snap, BackfillPolicy(), durations, target)
    assert fast == pytest.approx(ref, rel=1e-9, abs=1e-4)


@given(case=snapshots())
@settings(max_examples=60, deadline=None)
def test_property_dispatcher_matches_reference_for_lwf(case):
    """LWF has no shortcut; the dispatcher must hit the reference path."""
    snap, durations, target = case
    fast = predict_start_fast(snap, LWFPolicy(), durations, target)
    ref = forward_simulate(snap, LWFPolicy(), durations, target)
    assert fast == pytest.approx(ref, rel=1e-9, abs=1e-4)


@given(case=snapshots())
@settings(max_examples=60, deadline=None)
def test_property_dispatcher_backfill_with_distinct_estimates(case):
    """With estimates != durations the dispatcher must not shortcut."""
    snap, durations, target = case
    estimates = {jid: d * 3.0 + 10.0 for jid, d in durations.items()}
    fast = predict_start_fast(
        snap, BackfillPolicy(), durations, target, estimates=estimates
    )
    ref = forward_simulate(
        snap, BackfillPolicy(), durations, target, estimates=estimates
    )
    assert fast == pytest.approx(ref, rel=1e-9, abs=1e-4)


@given(case=snapshots())
@settings(max_examples=80, deadline=None)
def test_property_batch_walks_bit_identical_to_singles(case):
    """The one-walk batch variants equal the per-target calls exactly."""
    snap, durations, _ = case
    fcfs_batch = fcfs_predicted_starts(snap, durations)
    bf_batch = backfill_predicted_starts(snap, durations)
    assert set(fcfs_batch) == {qj.job_id for qj in snap.queued}
    assert set(bf_batch) == {qj.job_id for qj in snap.queued}
    for qj in snap.queued:
        # Bit-identical, not approx: same profile ops in the same order.
        assert fcfs_batch[qj.job_id] == fcfs_predicted_start(
            snap, durations, qj.job_id
        )
        assert bf_batch[qj.job_id] == backfill_predicted_start(
            snap, durations, qj.job_id
        )


def naive_fcfs_starts(snap, durations):
    """FCFS starts by brute force: each job takes the first candidate,
    the floor (the previous start) or any later breakpoint, whose whole
    ``[start, start + duration)`` window has room."""
    now = snap.now
    base = snap.total_nodes - sum(rj.job.nodes for rj in snap.running)
    releases = [
        (max(rj.start_time + durations[rj.job_id], now + MIN_DURATION), rj.job.nodes)
        for rj in snap.running
    ]
    carves: list[tuple[float, float, int]] = []

    def free_at(t):
        return (
            base
            + sum(n for r, n in releases if r <= t)
            - sum(n for a, e, n in carves if a <= t < e)
        )

    floor = now
    out = {}
    for qj in snap.queued:
        duration = max(durations[qj.job_id], MIN_DURATION)
        nodes = qj.job.nodes
        points = sorted({now, *(r for r, _ in releases), *(x for c in carves for x in c[:2])})
        for start in [floor] + [t for t in points if t > floor]:
            end = start + duration
            window = [start] + [t for t in points if start < t < end]
            if all(free_at(t) >= nodes for t in window):
                break
        out[qj.job_id] = start
        carves.append((start, end, nodes))
        floor = start
    return out


@given(case=snapshots())
@settings(max_examples=150, deadline=None)
def test_property_fcfs_walk_matches_naive_floored_scan(case):
    """The FCFS walk, which closes its profile behind each start, gives
    bit-for-bit the starts of a scan floored at the previous start."""
    snap, durations, _ = case
    assert fcfs_predicted_starts(snap, durations) == naive_fcfs_starts(snap, durations)


class TestUnknownJobError:
    def _snap(self):
        queued = (QueuedJob(make_job(job_id=1, nodes=2, run_time=5.0)),)
        return SystemSnapshot(now=0.0, running=(), queued=queued, total_nodes=4)

    def test_target_not_in_queue(self):
        snap = self._snap()
        for fn in (fcfs_predicted_start, backfill_predicted_start):
            with pytest.raises(UnknownJobError) as exc:
                fn(snap, {1: 5.0}, 99)
            assert exc.value.job_id == 99
            assert "99" in str(exc.value)

    def test_missing_duration_names_the_job(self):
        snap = self._snap()
        with pytest.raises(UnknownJobError) as exc:
            fcfs_predicted_start(snap, {}, 1)
        assert exc.value.job_id == 1
        assert "durations" in str(exc.value)

    def test_is_a_keyerror(self):
        # Pre-existing `except KeyError` callers must keep working.
        with pytest.raises(KeyError):
            fcfs_predicted_start(self._snap(), {1: 5.0}, 99)

    def test_predict_wait_rejects_unqueued_target(self):
        from repro.waitpred.predictor import predict_wait

        snap = self._snap()
        estimator = PointEstimator(ActualRuntimePredictor())
        with pytest.raises(UnknownJobError):
            predict_wait(snap, FCFSPolicy(), estimator, 99)


class TestShortcutEdgeCases:
    def test_missing_target_raises(self):
        snap = SystemSnapshot(now=0.0, running=(), queued=(), total_nodes=4)
        with pytest.raises(KeyError):
            fcfs_predicted_start(snap, {}, 1)

    def test_fcfs_monotone_starts(self):
        # Narrow job behind a wide blocked one must NOT start early.
        wide = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=1.0)
        narrow = make_job(job_id=2, submit_time=1.0, nodes=1, run_time=1.0)
        running = make_job(job_id=3, submit_time=0.0, nodes=6, run_time=1.0)
        snap = SystemSnapshot(
            now=1.0,
            running=(RunningJob(running, 0.0),),
            queued=(QueuedJob(wide), QueuedJob(narrow)),
            total_nodes=12,
        )
        durations = {1: 100.0, 2: 5.0, 3: 50.0}
        # Wide starts when the running job's 50 s elapse (t=49 remaining -> 50).
        assert fcfs_predicted_start(snap, durations, 1) == pytest.approx(50.0)
        assert fcfs_predicted_start(snap, durations, 2) == pytest.approx(50.0)

    def test_backfill_lets_narrow_jump(self):
        wide = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=1.0)
        narrow = make_job(job_id=2, submit_time=1.0, nodes=1, run_time=1.0)
        running = make_job(job_id=3, submit_time=0.0, nodes=6, run_time=1.0)
        snap = SystemSnapshot(
            now=1.0,
            running=(RunningJob(running, 0.0),),
            queued=(QueuedJob(wide), QueuedJob(narrow)),
            total_nodes=12,
        )
        durations = {1: 100.0, 2: 5.0, 3: 50.0}
        assert backfill_predicted_start(snap, durations, 2) == pytest.approx(1.0)

    def test_observer_fast_and_slow_agree_end_to_end(self, anl_trace, monkeypatch):
        """Full replay: every observer answer equals
        ``predict_wait(..., fast=False)`` on the same snapshot."""
        from repro.waitpred import predictor as waitpred
        from repro.workloads.transform import head

        predict_wait = waitpred.predict_wait
        answers = {}

        def against_reference(snapshot, policy, estimator, job_id, **kwargs):
            fast = predict_wait(snapshot, policy, estimator, job_id, **kwargs)
            slow = predict_wait(
                snapshot, policy, estimator, job_id, **dict(kwargs, fast=False)
            )
            answers[job_id] = (fast, slow)
            return fast

        monkeypatch.setattr(waitpred, "predict_wait", against_reference)
        trace = head(anl_trace, 150)
        policy = FCFSPolicy()
        estimator = PointEstimator(ActualRuntimePredictor())
        sim = Simulator(policy, estimator, trace.total_nodes)
        obs = WaitTimePredictor(
            policy, ActualRuntimePredictor(), scheduler_estimator=estimator
        )
        sim.add_observer(obs)
        sim.run(trace)
        assert answers.keys() == obs.predicted_waits.keys() == {j.job_id for j in trace}
        for jid, (fast, slow) in answers.items():
            assert obs.predicted_waits[jid] == fast
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-3)


def test_one_duration_floor_serves_both_shortcuts():
    """The shared walk floors durations at backfill's own minimum."""
    from repro.scheduler.policies import backfill
    from repro.waitpred import fast

    assert fast.MIN_DURATION is backfill.MIN_DURATION
