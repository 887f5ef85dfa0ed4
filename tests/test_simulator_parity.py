"""Golden parity: the optimized engine must reproduce the reference engine.

The hot-path overhaul (cross-pass estimate caching, O(1) bookkeeping,
batch-built availability profiles, early-exit scheduling passes) claims
to change *nothing* about the schedules produced.  These tests replay
each paper workload — at a reduced job count — through both the
optimized :class:`repro.scheduler.Simulator` and the naive
:class:`repro.scheduler.reference.ReferenceSimulator` under FCFS, LWF
and conservative backfill, and assert the results are **bit-identical**:
same records in the same order, same start/finish floats, and same
per-job predicted waits when a wait-time observer rides along.

Property tests at the bottom pin the rebuilt
:class:`AvailabilityProfile` operations (``rebuild``/``from_releases``,
fused ``reserve``) to the primitive ``add_release`` +
``earliest_start`` + ``carve`` semantics on random sequences.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import make_predictor
from repro.obs import (
    PROVENANCE_EVENT_TYPES,
    Instrumentation,
    ListSink,
    Tracer,
    validate_event,
)
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import (
    BackfillPolicy,
    EASYBackfillPolicy,
    FCFSPolicy,
    LWFPolicy,
)
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.reference import (
    ReferenceBackfillPolicy,
    ReferenceFCFSPolicy,
    ReferenceLWFPolicy,
    ReferenceSimulator,
)
from repro.scheduler.simulator import Simulator
from repro.waitpred.predictor import WaitTimePredictor
from repro.workloads.archive import PAPER_WORKLOADS, load_paper_workload
from repro.workloads.job import Job, Trace

#: Reduced replay length per workload; override to widen the net.
PARITY_JOBS = int(os.environ.get("REPRO_PARITY_JOBS", "300"))

POLICY_PAIRS = {
    "FCFS": (FCFSPolicy, ReferenceFCFSPolicy),
    "LWF": (LWFPolicy, ReferenceLWFPolicy),
    "Backfill": (BackfillPolicy, ReferenceBackfillPolicy),
}

_TRACES: dict[str, Trace] = {}


def parity_trace(workload: str) -> Trace:
    trace = _TRACES.get(workload)
    if trace is None:
        trace = _TRACES[workload] = load_paper_workload(
            workload, n_jobs=PARITY_JOBS
        )
    return trace


def assert_identical_results(res_opt, res_ref) -> None:
    assert len(res_opt.records) == len(res_ref.records)
    # JobRecord is a frozen dataclass: equality is exact float equality
    # on submit/start/finish — no tolerances anywhere in this file.
    assert res_opt.records == res_ref.records


@pytest.mark.parametrize("workload", sorted(PAPER_WORKLOADS))
@pytest.mark.parametrize("policy_name", sorted(POLICY_PAIRS))
def test_schedule_parity_smith_estimator(workload, policy_name):
    """Optimized vs. reference replay with a history-growing estimator.

    The Smith predictor's history grows at every completion, exercising
    the estimate cache's epoch invalidation; identical records prove the
    cache never serves a stale estimate to a scheduling decision.
    """
    trace = parity_trace(workload)
    opt_cls, ref_cls = POLICY_PAIRS[policy_name]

    sim_opt = Simulator(
        opt_cls(),
        PointEstimator(make_predictor("smith", trace)),
        trace.total_nodes,
    )
    res_opt = sim_opt.run(trace)

    sim_ref = ReferenceSimulator(
        ref_cls(),
        PointEstimator(make_predictor("smith", trace)),
        trace.total_nodes,
    )
    res_ref = sim_ref.run(trace)

    assert_identical_results(res_opt, res_ref)
    assert sim_opt.started_times == sim_ref.started_times


@pytest.mark.parametrize("policy_name", sorted(POLICY_PAIRS))
def test_schedule_parity_max_estimator(policy_name):
    """Same gate under the paper's §3 scheduler setup (user maxima)."""
    trace = parity_trace("ANL")
    opt_cls, ref_cls = POLICY_PAIRS[policy_name]
    res_opt = Simulator(
        opt_cls(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
    ).run(trace)
    res_ref = ReferenceSimulator(
        ref_cls(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
    ).run(trace)
    assert_identical_results(res_opt, res_ref)


@pytest.mark.parametrize("workload", sorted(PAPER_WORKLOADS))
@pytest.mark.parametrize("policy_name", sorted(POLICY_PAIRS))
def test_predicted_waits_parity(workload, policy_name):
    """The wait-time observer sees identical state in both engines.

    Scheduler on user maxima, observer predicting waits with the Smith
    predictor via forward simulation — the paper's Tables 4-9 pipeline.
    Predicted waits must match float-for-float.
    """
    trace = load_paper_workload(workload, n_jobs=min(PARITY_JOBS, 150))
    opt_cls, ref_cls = POLICY_PAIRS[policy_name]

    def run_engine(engine_cls, policy_cls):
        sim = engine_cls(
            policy_cls(),
            PointEstimator(make_predictor("max", trace)),
            trace.total_nodes,
        )
        observer = WaitTimePredictor(opt_cls(), make_predictor("smith", trace))
        sim.add_observer(observer)
        res = sim.run(trace)
        return res, observer.predicted_waits

    res_opt, waits_opt = run_engine(Simulator, opt_cls)
    res_ref, waits_ref = run_engine(ReferenceSimulator, ref_cls)

    assert_identical_results(res_opt, res_ref)
    assert waits_opt == waits_ref


@pytest.mark.parametrize("policy_name", sorted(POLICY_PAIRS))
def test_counter_parity(policy_name):
    """The registry counters agree between the engines.

    Events and job life-cycle counts are invariants of the replay, so
    they must match exactly.  ``schedule_passes`` is *not* an invariant:
    the optimized engine's zero-free-nodes early exit skips passes the
    reference engine counts (and the skipped passes provably start
    nothing), so the only sound assertion is optimized <= reference.
    """
    trace = parity_trace("ANL")
    opt_cls, ref_cls = POLICY_PAIRS[policy_name]
    sim_opt = Simulator(
        opt_cls(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
    )
    sim_opt.run(trace)
    sim_ref = ReferenceSimulator(
        ref_cls(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
    )
    sim_ref.run(trace)

    snap_opt = sim_opt.metrics_snapshot()["counters"]
    snap_ref = sim_ref.metrics_snapshot()["counters"]
    for name in (
        "sim.events_processed",
        "sim.jobs_submitted",
        "sim.jobs_started",
        "sim.jobs_finished",
    ):
        assert snap_opt[name] == snap_ref[name], name
    assert snap_opt["sim.schedule_passes"] <= snap_ref["sim.schedule_passes"]


# ----------------------------------------------------------------------
# instrumentation gating parity: tracing / provenance must not touch
# the schedule, and the disabled path must never reach a sink
# ----------------------------------------------------------------------
ALL_POLICIES = {
    "FCFS": FCFSPolicy,
    "LWF": LWFPolicy,
    "Backfill": BackfillPolicy,
    "EASY": EASYBackfillPolicy,
}


class SpySink:
    """A *disabled* sink that still counts ``emit`` calls: any call at
    all means the supposedly zero-cost disabled path did work."""

    enabled = False

    def __init__(self) -> None:
        self.calls = 0

    def emit(self, event: dict) -> None:  # pragma: no cover - must not run
        self.calls += 1

    def close(self) -> None:
        pass


def _replay(policy_cls, trace, inst=None):
    sim = Simulator(
        policy_cls(),
        PointEstimator(make_predictor("max", trace), instrumentation=inst),
        trace.total_nodes,
        instrumentation=inst if inst is not None else Instrumentation(),
    )
    return sim.run(trace)


@pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
def test_provenance_replay_schedule_identical(policy_name):
    """Plain, traced, and traced+provenance replays are bit-identical.

    Provenance mode makes the policies' walks do extra
    (value-deterministic) estimate lookups and origin bookkeeping;
    the schedules must not move by a single float.
    """
    trace = parity_trace("ANL")
    policy_cls = ALL_POLICIES[policy_name]

    res_plain = _replay(policy_cls, trace)
    plain_sink = ListSink()
    res_traced = _replay(
        policy_cls, trace, Instrumentation(tracer=Tracer(plain_sink))
    )
    detail_sink = ListSink()
    res_detail = _replay(
        policy_cls, trace,
        Instrumentation(tracer=Tracer(detail_sink), detail=True),
    )

    assert res_plain.records == res_traced.records
    assert res_plain.records == res_detail.records

    # Provenance events appear only in detail (provenance) mode...
    assert not [
        e for e in plain_sink.events if e["type"] in PROVENANCE_EVENT_TYPES
    ]
    provenance = [
        e for e in detail_sink.events if e["type"] in PROVENANCE_EVENT_TYPES
    ]
    # ...where every policy finds contention to attribute on this trace,
    # and every emitted event passes the schema (blocker kinds included).
    assert provenance
    for event in provenance:
        validate_event(event)


@pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
def test_disabled_instrumentation_never_reaches_sink(policy_name):
    """With a disabled sink the replay makes zero ``emit`` calls and the
    schedule matches an uninstrumented run exactly — the off path costs
    one attribute check, nothing more."""
    trace = parity_trace("ANL")
    policy_cls = ALL_POLICIES[policy_name]
    spy = SpySink()
    res_spy = _replay(
        policy_cls, trace,
        Instrumentation(tracer=Tracer(spy), detail=True),
    )
    res_plain = _replay(policy_cls, trace)
    assert spy.calls == 0
    assert res_spy.records == res_plain.records


# ----------------------------------------------------------------------
# property parity of the rebuilt profile operations
# ----------------------------------------------------------------------
TOTAL_NODES = 16


@st.composite
def release_sets(draw):
    total = draw(st.integers(2, 32))
    free = draw(st.integers(0, total))
    budget = total - free
    raw = draw(
        st.lists(st.tuples(st.floats(0.0, 1000.0), st.integers(1, 8)), max_size=8)
    )
    releases = []
    for t, n in raw:
        n = min(n, budget)
        if n <= 0:
            continue
        budget -= n
        releases.append((t, n))
    return total, free, releases


@given(ops=release_sets())
@settings(max_examples=150, deadline=None)
def test_property_rebuild_matches_add_release(ops):
    """Batch construction == one add_release per pair, any input order."""
    total, free, releases = ops
    reference = AvailabilityProfile(0.0, free, total)
    for t, n in releases:
        reference.add_release(t, n)
    batch = AvailabilityProfile.from_releases(0.0, free, total, releases)
    assert batch.times == reference.times
    assert batch.free == reference.free
    # Rebuild of a dirty profile resets completely.
    batch.rebuild(0.0, free, releases)
    assert batch.times == reference.times
    assert batch.free == reference.free


@st.composite
def reserve_sequences(draw):
    total, free, releases = draw(release_sets())
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(1, 8),
                st.floats(0.0, 400.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return total, free, releases, requests


@given(ops=reserve_sequences())
@settings(max_examples=150, deadline=None)
def test_property_reserve_matches_earliest_start_plus_carve(ops):
    """Fused reserve == earliest_start followed by carve, step for step,
    with either profile optionally closed at the previous anchor first
    (in-order planning)."""
    total, free, releases, requests = ops
    a = AvailabilityProfile.from_releases(0.0, free, total, releases)
    b = AvailabilityProfile.from_releases(0.0, free, total, releases)
    last = 0.0
    for nodes, duration, close in requests:
        if close:
            a.close_before(last)
            b.close_before(last)
        if nodes > max(a.free):
            continue  # would never clear; the policy never issues these
        start_a = a.earliest_start(nodes, duration)
        a.carve(start_a, duration, nodes)
        start_b = b.reserve(nodes, duration)
        assert start_b == start_a
        last = start_a
        assert b.times == a.times
        assert b.free == a.free


@st.composite
def parity_traces(draw, max_jobs=14):
    n = draw(st.integers(1, max_jobs))
    jobs = []
    for i in range(n):
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=draw(st.floats(0.0, 1000.0)),
                run_time=draw(st.floats(0.0, 500.0)),
                nodes=draw(st.integers(1, TOTAL_NODES)),
                user=draw(st.sampled_from(["a", "b", "c"])),
                max_run_time=draw(
                    st.one_of(st.none(), st.floats(1.0, 2000.0))
                ),
            )
        )
    return Trace(jobs, total_nodes=TOTAL_NODES)


@pytest.mark.parametrize("policy_name", sorted(POLICY_PAIRS))
@given(trace=parity_traces())
@settings(max_examples=30, deadline=None)
def test_property_engine_parity_random_traces(policy_name, trace):
    """Random adversarial traces (zero run times, equal submits, full-width
    jobs) produce identical schedules in both engines."""
    opt_cls, ref_cls = POLICY_PAIRS[policy_name]
    res_opt = Simulator(
        opt_cls(), PointEstimator(make_predictor("max", trace)), TOTAL_NODES
    ).run(trace)
    res_ref = ReferenceSimulator(
        ref_cls(), PointEstimator(make_predictor("max", trace)), TOTAL_NODES
    ).run(trace)
    assert_identical_results(res_opt, res_ref)
