"""Property-based tests of simulator invariants (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor, MaxRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from repro.scheduler.policies import (
    BackfillPolicy,
    EASYBackfillPolicy,
    FCFSPolicy,
    LWFPolicy,
)
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Job, Trace
from tests.fakes import Epochless

TOTAL_NODES = 16


@st.composite
def traces(draw, max_jobs=14):
    n = draw(st.integers(1, max_jobs))
    jobs = []
    for i in range(n):
        submit = draw(st.floats(0.0, 1000.0))
        run = draw(st.floats(0.0, 500.0))
        nodes = draw(st.integers(1, TOTAL_NODES))
        max_rt = draw(
            st.one_of(st.none(), st.floats(1.0, 2000.0).map(lambda v: v + run))
        )
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=submit,
                run_time=run,
                nodes=nodes,
                user=draw(st.sampled_from(["a", "b", "c"])),
                max_run_time=max_rt,
            )
        )
    return Trace(jobs, total_nodes=TOTAL_NODES)


POLICIES = [FCFSPolicy, LWFPolicy, BackfillPolicy, EASYBackfillPolicy]


@pytest.mark.parametrize("policy_cls", POLICIES)
@given(trace=traces())
@settings(max_examples=40, deadline=None)
def test_property_schedule_invariants(policy_cls, trace):
    """Every policy: all jobs run once, capacity and causality hold."""
    sim = Simulator(
        policy_cls(), PointEstimator(ActualRuntimePredictor()), TOTAL_NODES
    )
    res = sim.run(trace)
    assert len(res) == len(trace)
    assert res.max_concurrent_nodes() <= TOTAL_NODES
    for job in trace:
        rec = res[job.job_id]
        assert rec.start_time >= job.submit_time
        assert rec.finish_time == pytest.approx(rec.start_time + job.run_time)


def _smith() -> PointEstimator:
    return PointEstimator(SmithPredictor([Template(), Template(characteristics=("u",))]))


@pytest.mark.parametrize("policy_cls", POLICIES)
@given(trace=traces())
@settings(max_examples=25, deadline=None)
def test_property_epochless_estimator_is_repredicted_every_pass(policy_cls, trace):
    """An estimator with no epoch goes through the per-pass memo: nothing
    survives in the cross-pass memo, and the schedule is the cached one."""
    cached = Simulator(policy_cls(), _smith(), TOTAL_NODES)
    inner = _smith()
    plain = Simulator(policy_cls(), Epochless(inner), TOTAL_NODES)
    assert plain.run(trace).records == cached.run(trace).records
    assert plain._estimates.memo == {}
    assert inner.predict_calls >= cached.estimator.predict_calls


@given(trace=traces())
@settings(max_examples=30, deadline=None)
def test_property_fcfs_start_order_follows_arrival(trace):
    sim = Simulator(FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), TOTAL_NODES)
    res = sim.run(trace)
    recs = sorted(res.records, key=lambda r: (r.submit_time, r.job_id))
    starts = [r.start_time for r in recs]
    assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))


@given(trace=traces())
@settings(max_examples=30, deadline=None)
def test_property_backfill_never_worse_than_fcfs_makespan(trace):
    """Conservative backfill with exact estimates can only tighten the
    schedule relative to FCFS (it starts a job early only when no earlier
    arrival is delayed)."""
    fcfs = Simulator(
        FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), TOTAL_NODES
    ).run(trace)
    bf = Simulator(
        BackfillPolicy(), PointEstimator(ActualRuntimePredictor()), TOTAL_NODES
    ).run(trace)
    assert bf.makespan <= fcfs.makespan + 1e-6


@given(trace=traces())
@settings(max_examples=25, deadline=None)
def test_property_estimator_choice_never_breaks_invariants(trace):
    """Even wildly wrong estimates must never violate capacity."""
    sim = Simulator(
        BackfillPolicy(), PointEstimator(MaxRuntimePredictor()), TOTAL_NODES
    )
    res = sim.run(trace)
    assert res.max_concurrent_nodes() <= TOTAL_NODES
    assert len(res) == len(trace)


@st.composite
def profile_ops(draw):
    total = draw(st.integers(2, 32))
    free = draw(st.integers(0, total))
    releases = draw(
        st.lists(
            st.tuples(st.floats(0.0, 1000.0), st.integers(1, 8)), max_size=6
        )
    )
    return total, free, releases


@given(
    ops=profile_ops(),
    nodes=st.integers(1, 8),
    duration=st.floats(0.0, 500.0),
)
@settings(max_examples=80, deadline=None)
def test_property_profile_earliest_start_is_feasible(ops, nodes, duration):
    total, free, releases = ops
    profile = AvailabilityProfile(0.0, free, total)
    budget = total - free
    for t, n in releases:
        n = min(n, budget)
        if n <= 0:
            continue
        budget -= n
        profile.add_release(t, n)
    if nodes > total:
        return
    # Feasible iff some tail of the profile reaches `nodes` free; inside
    # the backfill policy this always holds (every busy node has a
    # release), but the API must fail loudly otherwise.
    if max(profile.free) < nodes:
        with pytest.raises(RuntimeError, match="no feasible start"):
            profile.earliest_start(nodes, duration)
        return
    start = profile.earliest_start(nodes, duration)
    # Feasibility: enough free nodes across the whole window.
    for t in np.linspace(start, start + max(duration - 1e-9, 0.0), 7):
        assert profile.free_at(float(t)) >= nodes
    # Carving the result must not overcommit.
    profile.carve(start, duration, nodes)
