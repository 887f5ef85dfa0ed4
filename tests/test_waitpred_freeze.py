"""Tests for the epoch-keyed freeze cache (repro.waitpred.predictor)."""

from __future__ import annotations

import struct

from repro.predictors.base import PointEstimator
from repro.predictors.simple import MaxRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy
from repro.scheduler.simulator import EstimateMemo, Simulator, SystemSnapshot
from repro.service import PredictionService, SimulatorFeed
from repro.waitpred.predictor import _freeze, predict_wait
from repro.workloads.archive import load_paper_workload


def _smith() -> PointEstimator:
    return PointEstimator(
        SmithPredictor([Template(characteristics=("u",)), Template(characteristics=())])
    )


def _bits(frozen: dict[int, float]) -> list[tuple[int, bytes]]:
    return [(jid, struct.pack("<d", value)) for jid, value in frozen.items()]


class _FreezeChecker:
    """At every submission, the cached freeze against an uncached one."""

    def __init__(self, estimator: PointEstimator) -> None:
        self.estimator = estimator
        self.cache = EstimateMemo()
        self.checked = 0
        self.epochs: set[object] = set()

    def on_submit(self, view, qj) -> None:
        snap = SystemSnapshot(
            now=view.now,
            running=tuple(view.running),
            queued=tuple(view.queued),
            total_nodes=view.total_nodes,
        )
        cached = _freeze(snap, self.estimator, self.cache)
        fresh = _freeze(snap, self.estimator)
        assert _bits(cached) == _bits(fresh)
        self.checked += 1
        self.epochs.add(self.estimator.history_epoch)

    def on_finish(self, view, job) -> None:
        self.estimator.on_finish(job, view.now)


def test_cached_freeze_equals_uncached_across_finishes():
    trace = load_paper_workload("SDSC96", n_jobs=250)
    estimator = _smith()
    checker = _FreezeChecker(estimator)
    sim = Simulator(
        BackfillPolicy(), PointEstimator(MaxRuntimePredictor()), trace.total_nodes
    )
    sim.add_observer(checker)
    sim.run(trace)
    assert checker.checked == len(trace)
    assert len(checker.epochs) > 50  # finishes moved the epoch many times


def _snapshot_with_queue():
    trace = load_paper_workload("ANL", n_jobs=120)
    sim = Simulator(FCFSPolicy(), PointEstimator(MaxRuntimePredictor()), trace.total_nodes)
    sim.run(trace, until_time=list(trace)[60].submit_time)
    snap = sim.snapshot()
    assert snap.queued and snap.running
    return snap


def test_queued_jobs_predicted_once_per_epoch():
    snap = _snapshot_with_queue()
    estimator = PointEstimator(MaxRuntimePredictor())
    cache = EstimateMemo()
    first = _freeze(snap, estimator, cache)
    calls = estimator.predict_calls
    assert _freeze(snap, estimator, cache) == first
    # Only the running jobs (conditioned on age) were predicted again.
    assert estimator.predict_calls - calls == len(snap.running)


def test_volatile_estimator_is_repredicted_on_every_call():
    snap = _snapshot_with_queue()
    estimator = PointEstimator(MaxRuntimePredictor(), volatile=True)
    cache = EstimateMemo()
    first = _freeze(snap, estimator, cache)
    calls = estimator.predict_calls
    assert _freeze(snap, estimator, cache) == first
    assert estimator.predict_calls - calls == len(snap.running) + len(snap.queued)


class _ServiceChecker:
    """Every queued job's service answer against an uncached predict_wait."""

    def __init__(self, svc: PredictionService) -> None:
        self.svc = svc
        self.checked = 0

    def on_submit(self, view, qj) -> None:
        svc = self.svc
        snap = svc.snapshot()
        for jid in svc.queued_ids:
            fresh = predict_wait(snap, svc.policy, svc.estimator, jid)
            assert svc.predict(jid) == fresh  # bit-identical, not approx
            self.checked += 1


def test_service_answers_with_carried_freezes_equal_predict_wait():
    trace = load_paper_workload("SDSC96", n_jobs=200)
    sim = Simulator(
        BackfillPolicy(), PointEstimator(MaxRuntimePredictor()), trace.total_nodes
    )
    svc = PredictionService(BackfillPolicy(), _smith(), trace.total_nodes)
    sim.add_observer(SimulatorFeed(svc))
    checker = _ServiceChecker(svc)
    sim.add_observer(checker)
    sim.run(trace)
    assert checker.checked > len(trace)
