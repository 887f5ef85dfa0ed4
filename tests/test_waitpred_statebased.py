"""Tests for the state-based wait predictor (paper §5 future work)."""

from __future__ import annotations

import pytest

from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor
from repro.scheduler.policies import LWFPolicy
from repro.scheduler.simulator import Simulator
from repro.waitpred.evaluation import evaluate_wait_predictions
from repro.waitpred.statebased import (
    StateBasedWaitPredictor,
    StateFeatures,
    StateTemplate,
    _log2_bin,
    _log10_bin,
)
from tests.conftest import make_job
from tests.fakes import Epochless


def estimator():
    return PointEstimator(ActualRuntimePredictor())


class TestStateFeatures:
    def test_extract_bins(self):
        f = StateFeatures.extract(
            now=7 * 3600.0,  # 07:00 on day 0 (a weekday)
            queued_count=5,
            queued_work=12_345.0,
            free_nodes=30,
            total_nodes=40,
            job_nodes=8,
            job_runtime_estimate=900.0,
        )
        assert f.qlen == 3  # log2(5)=2 -> +1
        assert f.qwork == 5  # log10(12345)=4 -> +1
        assert f.free == 3  # 75% free -> top quartile
        assert f.nodes == 4  # log2(8)=3 -> +1
        assert f.rt == 3  # log10(900)=2 -> +1
        assert f.tod == 1  # 06:00-12:00
        assert f.dow == 0

    def test_weekend_flag(self):
        f = StateFeatures.extract(
            now=5.5 * 86400.0,
            queued_count=0,
            queued_work=0.0,
            free_nodes=0,
            total_nodes=4,
            job_nodes=1,
            job_runtime_estimate=1.0,
        )
        assert f.dow == 1

    def test_zero_bins(self):
        f = StateFeatures.extract(
            now=0.0,
            queued_count=0,
            queued_work=0.0,
            free_nodes=0,
            total_nodes=4,
            job_nodes=1,
            job_runtime_estimate=0.0,
        )
        assert f.qlen == 0 and f.qwork == 0 and f.rt == 0

    def test_key_projection(self):
        f = StateFeatures(qlen=1, qwork=2, free=3, nodes=4, rt=5, tod=6, dow=0)
        assert f.key(("qlen", "rt")) == (1, 5)
        assert f.key(()) == ()


class TestBinBoundaries:
    """Exact powers must land in their own bin on every platform.

    ``int(math.log2/log10(value))`` is one libm rounding away from
    binning ``2**29`` or ``10**3`` into the previous magnitude; the
    binning now uses exact integer arithmetic, so every boundary is
    checked exhaustively across the feature ranges.
    """

    def test_log2_every_power_to_2_40(self):
        for k in range(41):
            v = float(2**k)
            assert _log2_bin(v) == k + 1, f"2**{k}"
            # Just below the boundary falls in the previous bin.
            if k >= 1:
                assert _log2_bin(v - 1.0) == k, f"2**{k} - 1"
            # Just above stays in the same bin.
            assert _log2_bin(v + 1.0) == k + 1 + (1 if k == 0 else 0)

    def test_log10_every_power_to_10_12(self):
        for k in range(13):
            v = float(10**k)
            assert _log10_bin(v) == k + 1, f"10**{k}"
            if k >= 1:
                assert _log10_bin(v - 1.0) == k, f"10**{k} - 1"
                assert _log10_bin(v * 0.999999) == k, f"10**{k} * 0.999999"

    def test_sub_unit_values_bin_zero(self):
        for fn in (_log2_bin, _log10_bin):
            assert fn(0.0) == 0
            assert fn(0.5) == 0
            assert fn(0.999999) == 0
            assert fn(-3.0) == 0

    def test_non_power_values(self):
        assert _log2_bin(3.0) == 2
        assert _log2_bin(5.0) == 3
        assert _log10_bin(12_345.0) == 5
        assert _log10_bin(999.0) == 3


class TestStateTemplate:
    def test_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown state feature"):
            StateTemplate(("queue_depth",))

    def test_duplicate_feature(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateTemplate(("qlen", "qlen"))

    def test_describe(self):
        assert StateTemplate(("qlen", "tod")).describe() == "(qlen, tod)"


class TestPredictor:
    def test_ramp_up_uses_running_mean(self):
        p = StateBasedWaitPredictor(estimator())
        # No observations at all: predicts 0.
        f = StateFeatures(0, 0, 0, 1, 1, 0, 0)
        assert p.predict_from_features(f) is None

    def test_learns_congestion_signal(self):
        """Jobs submitted into a long queue must inherit long waits."""
        p = StateBasedWaitPredictor(estimator())

        class ViewStub:
            def __init__(self, now, queued, free):
                self.now = now
                self.queued = queued
                self.free_nodes = free
                self.total_nodes = 10

        from repro.scheduler.simulator import QueuedJob

        # Train: two epochs of "empty queue -> short wait" and
        # "8-deep queue -> long wait".
        for i in range(4):
            short_job = make_job(job_id=100 + i, run_time=60.0)
            p.on_submit(ViewStub(0.0, [QueuedJob(short_job)], 10), QueuedJob(short_job))
            p.on_start(ViewStub(10.0, [], 10), short_job)  # 10 s wait
            long_job = make_job(job_id=200 + i, run_time=60.0)
            deep = [QueuedJob(make_job(job_id=300 + 10 * i + k)) for k in range(8)]
            p.on_submit(
                ViewStub(0.0, deep + [QueuedJob(long_job)], 0), QueuedJob(long_job)
            )
            p.on_start(ViewStub(5000.0, [], 10), long_job)  # 5000 s wait

        probe_short = p.predict_from_features(
            StateFeatures(qlen=0, qwork=0, free=3, nodes=1, rt=1, tod=0, dow=0)
        )
        probe_long = p.predict_from_features(
            StateFeatures(qlen=4, qwork=0, free=0, nodes=1, rt=1, tod=0, dow=0)
        )
        assert probe_short == pytest.approx(10.0)
        assert probe_long == pytest.approx(5000.0)

    def test_end_to_end_on_trace(self, anl_trace):
        """Full replay: produces a prediction for every job and a sane error."""
        from repro.workloads.transform import head

        trace = head(anl_trace, 300)
        policy = LWFPolicy()
        sched_est = estimator()
        sim = Simulator(policy, sched_est, trace.total_nodes)
        obs = StateBasedWaitPredictor(estimator())
        sim.add_observer(obs)
        result = sim.run(trace)
        report = evaluate_wait_predictions(result, obs.predicted_waits)
        assert report.n_jobs == len(trace)
        assert report.mean_abs_error >= 0.0
        assert obs.category_count > 0

    def test_unseen_job_start_ignored(self):
        p = StateBasedWaitPredictor(estimator())

        class ViewStub:
            now = 50.0

        p.on_start(ViewStub(), make_job(job_id=999))  # must not raise
        assert p.predicted_waits == {}


class TestEstimateMemoization:
    """The per-epoch estimate memo must change nothing but the call count."""

    def _replay(self, trace, *, epochless: bool):
        policy = LWFPolicy()
        sim = Simulator(policy, estimator(), trace.total_nodes)
        # An epochless estimator (history_epoch=None) disables the memo
        # while leaving every individual prediction identical.
        obs_est = PointEstimator(ActualRuntimePredictor())
        obs = StateBasedWaitPredictor(Epochless(obs_est) if epochless else obs_est)
        sim.add_observer(obs)
        sim.run(trace)
        return obs.predicted_waits, obs_est.predict_calls

    def test_features_identical_with_and_without_memo(self, anl_trace):
        from repro.workloads.transform import head

        trace = head(anl_trace, 200)
        memo_waits, memo_calls = self._replay(trace, epochless=False)
        plain_waits, plain_calls = self._replay(trace, epochless=True)
        # Bit-identical predictions: the memo stores raw estimates and
        # reuses them through the exact same float operations.
        assert memo_waits == plain_waits
        # And it actually memoizes: far fewer estimator invocations.
        assert memo_calls < plain_calls

    def test_started_jobs_evicted_from_memo(self):
        p = StateBasedWaitPredictor(estimator())

        class ViewStub:
            def __init__(self, now, queued, free):
                self.now = now
                self.queued = queued
                self.free_nodes = free
                self.total_nodes = 10

        from repro.scheduler.simulator import QueuedJob

        first = make_job(job_id=1, run_time=60.0)
        p.on_submit(ViewStub(0.0, [QueuedJob(first)], 10), QueuedJob(first))
        assert 1 in p._estimates.memo
        p.on_start(ViewStub(5.0, [], 10), first)
        assert 1 not in p._estimates.memo
