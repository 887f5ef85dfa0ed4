"""Pins the simulator's full event stream, counters and state series.

A fully instrumented replay (tracing, detail, audit, provenance, time
series) with three observers attached passes through every event hook
the simulator has: the trace emitters, the estimator's life-cycle hooks
(the audited estimator emits ``runtime_predicted`` from ``on_submit``),
the observers, the audit's resolutions and the backfill-depth tally.
Every constant below was recorded from the engine as it stood before
its event hooks were unified behind per-kind subscriber tuples, so any
reordering of those hooks, or any change in when an observer view is
built (each view build can flush the estimate cache and emit
``replan_triggered``), shows up here as a digest mismatch.

The observers are a Smith :class:`WaitTimePredictor` sharing the
instrumentation (``on_submit``/``on_finish``), a
:class:`StateBasedWaitPredictor` (all three hooks) and a bare
``on_submit``-only observer, which pins that a view is still built on
start and finish events when no observer handles them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.registry import make_predictor
from repro.obs import Instrumentation, ListSink, Tracer
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import (
    BackfillPolicy,
    EASYBackfillPolicy,
    FCFSPolicy,
    LWFPolicy,
)
from repro.scheduler.simulator import Simulator
from repro.waitpred.predictor import WaitTimePredictor
from repro.waitpred.statebased import StateBasedWaitPredictor
from repro.workloads.archive import load_paper_workload

N_JOBS = 300

POLICIES = {
    "FCFS": FCFSPolicy,
    "LWF": LWFPolicy,
    "Backfill": BackfillPolicy,
    "EASY": EASYBackfillPolicy,
}

#: Wall-clock fields: the only parts of an event that vary run to run.
_CLOCK_FIELDS = ("wall_time", "duration_s")

#: policy -> (event count, SHA-256 of the event stream, SHA-256 of the
#: time-series points), recorded from the pre-refactor engine.
EXPECTED_STREAMS = {
    "FCFS": (
        4680,
        "9b0284bc76fe9e3dedd981bdf5450b0d73ad97f6c8b60ffc46282418ad15873a",
        "5f4e8753ab964221783543f874413397de3096cb24aae2c6d969bc39535e8583",
    ),
    "LWF": (
        6311,
        "63bf07fc8c08e427b4e8264444d76a8220fe09ba73e696b7cafa76f04f1a7b13",
        "8ec10bb084041a8530e7a3a61c626e389a841bd2ab98a4d8e0260e119a723fbe",
    ),
    "Backfill": (
        7086,
        "a4ae6dc4840117d06007f01c042057270ba0f2ed479bddd776929dd78fc8fa94",
        "50d148fb3997c68c8b37f35b58c2db0c90ea6aec1224d41f75942c435b584c5b",
    ),
    "EASY": (
        5926,
        "526382673e69a3795433128ceaafca01b61343f5fe06635a94cde79bd2b4c3f1",
        "425e60f1c3d9cbfea6f2a1242bad31096301a893f87e01831b8d10f61efcd80b",
    ),
}

#: policy -> (event count, SHA-256 of the event stream) of the
#: ``full=False`` replay, recorded alongside.
EXPECTED_BARE_STREAMS = {
    "FCFS": (
        2880,
        "1c630bca36a24c4767794cf2f5fc9868d19a1f5817e1865533a9ad90ea45f31b",
    ),
    "LWF": (
        4511,
        "6c484f9b16ac02750e044d2456b722c3e85c0897d5df4a55da59a3fb7ad797de",
    ),
    "Backfill": (
        5286,
        "aad4ec0acbcb7840eb3b099027d0ae9a258c97a477ec3013f70cb3d071145746",
    ),
    "EASY": (
        4126,
        "9a35a7da5c8fa21ed9fc1f1955cb469707170ba5e510089ca98f62f520450263",
    ),
}

_SIM_COUNTS = {
    "sim.events_processed": 600,
    "sim.jobs_finished": 300,
    "sim.jobs_started": 300,
    "sim.jobs_submitted": 300,
}
_STATEBASED_COUNTS = {
    "statebased.observations": 300,
    "statebased.predictions": 300,
    "statebased.rampup_fallbacks": 2,
}
_ESTIMATOR_COUNTS = {
    "estimator.fallback_mean": 0,
    "estimator.fallback_default": 0,
    "estimator.history_epoch_bumps": 300,
}


def _counters(flushes, hits, misses, backfilled, passes, calls, predicted,
              fallback_max, memo_hits, memo_misses, scanned, pruned, *,
              statebased=True):
    return {
        **_SIM_COUNTS,
        **(_STATEBASED_COUNTS if statebased else {}),
        **_ESTIMATOR_COUNTS,
        "sim.estimate_cache_flushes": flushes,
        "sim.estimate_cache_hits": hits,
        "sim.estimate_cache_misses": misses,
        "sim.jobs_backfilled": backfilled,
        "sim.schedule_passes": passes,
        "estimator.predict_calls": calls,
        "estimator.predicted": predicted,
        "estimator.fallback_max": fallback_max,
        "estimator.predictor.memo_hits": memo_hits,
        "estimator.predictor.memo_misses": memo_misses,
        "estimator.predictor.points_scanned": scanned,
        "estimator.predictor.bound_pruned": pruned,
    }


#: policy -> metrics_snapshot()["counters"] of the full replay.
EXPECTED_COUNTERS = {
    "FCFS": _counters(0, 0, 163, 0, 409, 2129, 1911, 218, 2666, 1247, 115242, 6387),
    "LWF": _counters(
        279, 975, 1200, 272, 559, 5048, 4661, 387, 4485, 3010, 318209, 11849
    ),
    "Backfill": _counters(
        278, 854, 1179, 270, 574, 4941, 4551, 390, 3338, 2931, 313375, 11417
    ),
    "EASY": _counters(
        191, 872, 883, 270, 573, 3190, 2976, 214, 1875, 2048, 215353, 7896
    ),
}


class SubmitOnly:
    """An observer with only ``on_submit``."""

    def __init__(self) -> None:
        self.seen = 0

    def on_submit(self, view, qj) -> None:
        self.seen += 1


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def replay(policy_name: str, *, full: bool = True):
    """Replay the ANL prefix under Smith estimates, fully instrumented.

    ``full=False`` keeps only tracing in detail mode and the bare
    observer: no other observer (the time series is one) handles start
    or finish, so only the view built for the bare observer can flush
    the estimate cache on those events.
    """
    trace = load_paper_workload("ANL", n_jobs=N_JOBS)
    sink = ListSink()
    inst = Instrumentation(
        tracer=Tracer(sink),
        detail=True,
        audit=full,
        provenance=True,
        timeseries=full,
    )
    policy_cls = POLICIES[policy_name]
    sim = Simulator(
        policy_cls(),
        PointEstimator(make_predictor("smith", trace), instrumentation=inst),
        trace.total_nodes,
        instrumentation=inst,
    )
    if full:
        sim.add_observer(
            WaitTimePredictor(
                policy_cls(), make_predictor("smith", trace), instrumentation=inst
            )
        )
        sim.add_observer(
            StateBasedWaitPredictor(
                PointEstimator(make_predictor("smith", trace)), instrumentation=inst
            )
        )
    bare = SubmitOnly()
    sim.add_observer(bare)
    result = sim.run(trace)
    events = [
        {k: v for k, v in e.items() if k not in _CLOCK_FIELDS} for e in sink.events
    ]
    return sim, inst, events, result, bare


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_event_stream_pinned(policy_name):
    sim, inst, events, result, bare = replay(policy_name)
    assert len(result.records) == N_JOBS
    assert bare.seen == N_JOBS
    assert (
        len(events),
        _digest(events),
        _digest(inst.timeseries.points),
    ) == EXPECTED_STREAMS[policy_name]
    assert sim.metrics_snapshot()["counters"] == EXPECTED_COUNTERS[policy_name]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_bare_observer_event_stream_pinned(policy_name):
    _sim, _inst, events, result, bare = replay(policy_name, full=False)
    assert len(result.records) == N_JOBS
    assert bare.seen == N_JOBS
    assert (len(events), _digest(events)) == EXPECTED_BARE_STREAMS[policy_name]



def replay_one_knob(policy_name: str, inst: Instrumentation):
    """Replay the ANL prefix under Smith estimates with ``inst`` alone.

    No observers, audit or time series: the only instrumentation is the
    one knob under test, so the policies' untraced early exits (tracing
    off) or their traced, provenance-free walks (provenance off) are
    what the pins below see.
    """
    trace = load_paper_workload("ANL", n_jobs=N_JOBS)
    sim = Simulator(
        POLICIES[policy_name](),
        PointEstimator(make_predictor("smith", trace), instrumentation=inst),
        trace.total_nodes,
        instrumentation=inst,
    )
    result = sim.run(trace)
    assert len(result.records) == N_JOBS
    return sim


#: policy -> (event count, SHA-256 of the event stream) of a replay
#: with tracing on and provenance off, recorded before the policies'
#: traced walks were folded into their plain ones.
EXPECTED_TRACING_ONLY_STREAMS = {
    "FCFS": (
        1309,
        "9b5d2e8f5db3e0867ca1d5344cbe1cb332677c0cde6eaacc93be81a578838963",
    ),
    "LWF": (
        1895,
        "cfb6a42290835f09e0ac1fdbbd65f808c6077f50347246e389b31dcc59b4bf8d",
    ),
    "Backfill": (
        2766,
        "101e4b1ecd4a9184263090bb34e5dad8e02f726714803204fa3dbccc0a18d6d5",
    ),
    "EASY": (
        1934,
        "0b38239e780784e6705c10144281bfcf0bc7216f2d83b0157cbed7fc60f36d41",
    ),
}


#: policy -> metrics_snapshot()["counters"] of a detail-mode replay with
#: tracing off, recorded alongside.  The estimate-cache hit and miss
#: counts see every estimate a walk asks for, so they change if an
#: untraced walk loses an early exit.
EXPECTED_DETAIL_ONLY_COUNTERS = {
    name: _counters(*args, statebased=False)
    for name, args in {
        "FCFS": (0, 0, 0, 0, 409, 0, 0, 0, 0, 0, 0, 0),
        "LWF": (164, 219, 854, 272, 559, 854, 850, 4, 0, 0, 0, 0),
        "Backfill": (
            203, 432, 917, 270, 574, 3194, 2967, 227, 1826, 2055, 214361, 7087
        ),
        "EASY": (
            191, 872, 883, 270, 573, 3190, 2976, 214, 1875, 2048, 215353, 7896
        ),
    }.items()
}


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_tracing_only_event_stream_pinned(policy_name):
    sink = ListSink()
    replay_one_knob(
        policy_name, Instrumentation(tracer=Tracer(sink), provenance=False)
    )
    events = [
        {k: v for k, v in e.items() if k not in _CLOCK_FIELDS} for e in sink.events
    ]
    assert (len(events), _digest(events)) == EXPECTED_TRACING_ONLY_STREAMS[
        policy_name
    ]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_detail_only_counters_pinned(policy_name):
    inst = Instrumentation(detail=True)
    assert not inst.tracer.enabled
    sim = replay_one_knob(policy_name, inst)
    assert (
        sim.metrics_snapshot()["counters"]
        == EXPECTED_DETAIL_ONLY_COUNTERS[policy_name]
    )
