"""Instrumentation wired through the replay engine.

The contract under test: tracing and metrics never change the schedule,
every scheduler decision shows up as an event, and the registry counters
agree with the result records.
"""

import gc
import weakref

import pytest

from repro.core.registry import make_predictor
from repro.obs import Instrumentation, ListSink, Tracer, validate_events
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.simulator import Simulator
from repro.waitpred.statebased import StateBasedWaitPredictor
from repro.workloads.archive import load_paper_workload

JOBS = 150


@pytest.fixture(scope="module")
def trace():
    return load_paper_workload("ANL", n_jobs=JOBS)


def _replay(trace, policy_cls, predictor="max", instrumentation=None):
    sim = Simulator(
        policy_cls(),
        PointEstimator(make_predictor(predictor, trace)),
        trace.total_nodes,
        instrumentation=instrumentation,
    )
    return sim.run(trace), sim


@pytest.mark.parametrize("policy_cls", [FCFSPolicy, LWFPolicy, BackfillPolicy])
def test_tracing_preserves_schedule_and_counts_decisions(trace, policy_cls):
    res_plain, _ = _replay(trace, policy_cls)
    sink = ListSink()
    res_traced, sim = _replay(
        trace, policy_cls, instrumentation=Instrumentation(tracer=Tracer(sink))
    )
    assert res_traced.records == res_plain.records

    validate_events(sink.events)
    by_type = {}
    for e in sink.events:
        by_type[e["type"]] = by_type.get(e["type"], 0) + 1
    assert by_type["job_submitted"] == JOBS
    assert by_type["job_started"] == JOBS
    assert by_type["job_finished"] == JOBS
    # every pass was timed into a span (time_passes defaults on while tracing)
    snap = sim.metrics_snapshot()
    passes = snap["counters"]["sim.schedule_passes"]
    assert by_type["span"] == passes
    assert snap["histograms"]["sim.pass_duration_seconds"]["count"] == passes


def test_registry_counters_match_records(trace):
    res, sim = _replay(trace, BackfillPolicy)
    counters = sim.metrics_snapshot()["counters"]
    assert counters["sim.jobs_submitted"] == JOBS
    assert counters["sim.jobs_started"] == JOBS
    assert counters["sim.jobs_finished"] == len(res.records) == JOBS
    hists = sim.metrics_snapshot()["histograms"]
    # the wait histogram saw every start; depth tracking (a queue walk
    # per selecting pass) is a detail/tracing feature and stays off here
    assert hists["sim.wait_time_seconds"]["count"] == JOBS
    assert hists["sim.backfill_depth"]["count"] == 0
    assert counters["sim.jobs_backfilled"] == 0


def test_detail_mode_tracks_backfill_depth(trace):
    _, sim = _replay(
        trace, BackfillPolicy, instrumentation=Instrumentation(detail=True)
    )
    snap = sim.metrics_snapshot()
    hists = snap["histograms"]
    assert hists["sim.backfill_depth"]["count"] == JOBS
    # jobs_backfilled counts exactly the starts with depth > 0
    depth_counts = hists["sim.backfill_depth"]["counts"]
    assert snap["counters"]["sim.jobs_backfilled"] == JOBS - depth_counts[0]


def test_backfill_emits_reservation_events(trace):
    sink = ListSink()
    _replay(
        trace, BackfillPolicy, instrumentation=Instrumentation(tracer=Tracer(sink))
    )
    placed = [e for e in sink.events if e["type"] == "reservation_placed"]
    shifted = [e for e in sink.events if e["type"] == "reservation_shifted"]
    assert placed, "backfill under load must place reservations"
    assert all(e["start_s"] > e["sim_time"] for e in placed)
    assert all(e["cause"] == "backfill_replan" for e in placed)
    # replans move reservations on this workload
    assert shifted
    assert all(e["start_s"] != e["previous_start_s"] for e in shifted)
    # backfilled jobs carry their queue depth
    backfilled = [e for e in sink.events if e["type"] == "job_backfilled"]
    assert backfilled
    assert all(e["depth"] > 0 for e in backfilled)


def test_epoch_flush_emits_replan_triggered(trace):
    """A history-growing estimator flushes the cache; detail+trace records it."""
    sink = ListSink()
    _, sim = _replay(
        trace,
        BackfillPolicy,
        predictor="smith",
        instrumentation=Instrumentation(tracer=Tracer(sink), detail=True),
    )
    counters = sim.metrics_snapshot()["counters"]
    assert counters["sim.estimate_cache_flushes"] > 0
    replans = [e for e in sink.events if e["type"] == "replan_triggered"]
    assert len(replans) == counters["sim.estimate_cache_flushes"]
    assert all(e["cause"] == "history_epoch_advanced" for e in replans)


def test_detail_mode_counts_cache_hits(trace):
    _, sim = _replay(
        trace, BackfillPolicy, instrumentation=Instrumentation(detail=True)
    )
    counters = sim.metrics_snapshot()["counters"]
    assert counters["sim.estimate_cache_hits"] > 0
    assert counters["sim.estimate_cache_misses"] > 0
    # every estimate the policy consumed was either a hit or a miss, and
    # every miss called through to the estimator adapter
    assert counters["estimator.predict_calls"] >= counters[
        "sim.estimate_cache_misses"
    ]


def test_default_mode_counts_misses_only(trace):
    _, sim = _replay(trace, BackfillPolicy)
    counters = sim.metrics_snapshot()["counters"]
    # misses coincide with predictor calls (already expensive); hits are
    # only counted in detail mode to keep the hot path clean
    assert counters["sim.estimate_cache_misses"] > 0
    assert counters["sim.estimate_cache_hits"] == 0


def test_statebased_observer_metrics_and_events(trace):
    sink = ListSink()
    obs = Instrumentation(tracer=Tracer(sink))
    estimator = PointEstimator(make_predictor("max", trace))
    sim = Simulator(
        BackfillPolicy(), estimator, trace.total_nodes, instrumentation=obs
    )
    predictor = StateBasedWaitPredictor(
        PointEstimator(make_predictor("max", trace)), instrumentation=obs
    )
    sim.add_observer(predictor)
    sim.run(trace)

    counters = sim.metrics_snapshot()["counters"]
    assert counters["statebased.predictions"] == JOBS
    assert counters["statebased.observations"] == JOBS
    assert counters["statebased.rampup_fallbacks"] >= 1
    assert sim.metrics_snapshot()["gauges"]["statebased.categories"] >= 1
    predicted = [e for e in sink.events if e["type"] == "wait_predicted"]
    assert len(predicted) == JOBS
    validate_events(predicted)


def test_instrumented_replay_freed_by_reference_counting(trace):
    """No event subscriber holds the simulator, so dropping the last
    reference frees a fully instrumented replay without the cycle
    collector."""
    inst = Instrumentation(
        tracer=Tracer(ListSink()), detail=True, audit=True, timeseries=True
    )
    gc.disable()
    try:
        _, sim = _replay(trace, BackfillPolicy, instrumentation=inst)
        sim.add_observer(StateBasedWaitPredictor(PointEstimator(make_predictor("max", trace))))
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()
