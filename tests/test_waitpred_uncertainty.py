"""Tests for Monte-Carlo wait-prediction intervals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predictors.base import PointEstimator, warm_start
from repro.predictors.simple import ActualRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from repro.scheduler.policies import (
    BackfillPolicy,
    EASYBackfillPolicy,
    FCFSPolicy,
    LWFPolicy,
)
from repro.scheduler.simulator import QueuedJob, RunningJob, SystemSnapshot
from repro.utils.rng import rng_from_seed
from repro.waitpred.fast import UnknownJobError
from repro.waitpred.manyworlds import sweep_estimates
from repro.waitpred.predictor import predict_wait
from repro.waitpred.uncertainty import WaitInterval, predict_wait_interval
from tests.conftest import make_job


def snapshot_with_queue():
    running = make_job(job_id=1, submit_time=0.0, nodes=10, run_time=999.0,
                       user="bob", executable="long")
    target = make_job(job_id=2, submit_time=100.0, nodes=10, run_time=10.0,
                      user="bob", executable="long")
    return SystemSnapshot(
        now=100.0,
        running=(RunningJob(running, 0.0),),
        queued=(QueuedJob(target),),
        total_nodes=10,
    )


class TestPredictWaitInterval:
    def test_oracle_degenerate_interval(self):
        """Zero run-time uncertainty => zero-width wait interval."""
        snap = snapshot_with_queue()
        est = PointEstimator(ActualRuntimePredictor())
        iv = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=10)
        assert iv.width == pytest.approx(0.0)
        assert iv.median == pytest.approx(999.0 - 100.0)

    def test_uncertain_history_widens_interval(self):
        snap = snapshot_with_queue()
        # Train a Smith predictor with scattered run times for the
        # running job's identity -> wide prediction interval.
        smith = SmithPredictor([Template(characteristics=("u", "e"))])
        warm_start(
            smith,
            [
                make_job(job_id=100 + i, user="bob", executable="long",
                         run_time=rt)
                for i, rt in enumerate((200.0, 800.0, 1400.0, 2600.0))
            ],
        )
        est = PointEstimator(smith)
        iv = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=60, seed=3)
        assert iv.width > 0.0
        assert iv.lo <= iv.median <= iv.hi
        # The point prediction (mean 1250 total, 100 elapsed) sits inside.
        assert iv.lo <= 1250.0 - 100.0 <= iv.hi + 1e-6

    def test_deterministic_given_seed(self):
        snap = snapshot_with_queue()
        smith = SmithPredictor([Template(characteristics=("u", "e"))])
        warm_start(
            smith,
            [
                make_job(job_id=100 + i, user="bob", executable="long",
                         run_time=rt)
                for i, rt in enumerate((500.0, 900.0, 1500.0))
            ],
        )
        est = PointEstimator(smith)
        a = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=20, seed=7)
        b = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=20, seed=7)
        assert a == b

    def test_confidence_controls_width(self):
        snap = snapshot_with_queue()
        smith = SmithPredictor([Template(characteristics=("u", "e"))])
        warm_start(
            smith,
            [
                make_job(job_id=100 + i, user="bob", executable="long",
                         run_time=rt)
                for i, rt in enumerate((300.0, 900.0, 2100.0, 3000.0))
            ],
        )
        est = PointEstimator(smith)
        narrow = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=80, confidence=0.5, seed=1
        )
        wide = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=80, confidence=0.95, seed=1
        )
        assert wide.width >= narrow.width

    def test_backfill_policy_supported(self):
        snap = snapshot_with_queue()
        est = PointEstimator(ActualRuntimePredictor())
        iv = predict_wait_interval(snap, BackfillPolicy(), est, 2, samples=5)
        assert iv.median >= 0.0

    @pytest.mark.parametrize(
        "policy_cls", [FCFSPolicy, LWFPolicy, BackfillPolicy, EASYBackfillPolicy]
    )
    @pytest.mark.parametrize("job_id", [1, 99])  # running, never submitted
    def test_unqueued_target_raises_typed_error(self, policy_cls, job_id):
        """Interval and sweep queries fail like ``predict_wait`` does."""
        snap = snapshot_with_queue()
        est = PointEstimator(ActualRuntimePredictor())
        for query in (
            lambda: predict_wait(snap, policy_cls(), est, job_id),
            lambda: predict_wait_interval(snap, policy_cls(), est, job_id, samples=4),
            lambda: sweep_estimates(snap, policy_cls(), est, job_id, samples=4),
        ):
            with pytest.raises(UnknownJobError) as info:
                query()
            assert info.value.job_id == job_id
            assert str(info.value) == f"job {job_id} not in snapshot queue"

    def test_validation(self):
        snap = snapshot_with_queue()
        est = PointEstimator(ActualRuntimePredictor())
        with pytest.raises(ValueError):
            predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=1)
        with pytest.raises(ValueError):
            predict_wait_interval(snap, FCFSPolicy(), est, 2, confidence=1.0)


def _uncertain_estimator():
    smith = SmithPredictor([Template(characteristics=("u", "e"))])
    warm_start(
        smith,
        [
            make_job(job_id=100 + i, user="bob", executable="long", run_time=rt)
            for i, rt in enumerate((200.0, 800.0, 1400.0, 2600.0))
        ],
    )
    return PointEstimator(smith)


class TestWaitIntervalAccessors:
    def test_samples_are_retained(self):
        snap = snapshot_with_queue()
        iv = predict_wait_interval(
            snap, FCFSPolicy(), _uncertain_estimator(), 2, samples=25, seed=4
        )
        assert len(iv.wait_samples) == 25

    def test_mean_and_percentile_come_from_the_sample_vector(self):
        snap = snapshot_with_queue()
        iv = predict_wait_interval(
            snap, FCFSPolicy(), _uncertain_estimator(), 2, samples=40, seed=4
        )
        waits = np.asarray(iv.wait_samples)
        assert iv.mean == pytest.approx(float(np.mean(waits)))
        assert iv.percentile(50.0) == pytest.approx(iv.median)
        assert iv.percentile(10.0) == pytest.approx(float(np.percentile(waits, 10.0)))
        assert iv.percentile(0.0) == pytest.approx(float(waits.min()))
        assert iv.percentile(100.0) == pytest.approx(float(waits.max()))

    def test_percentile_range_validated(self):
        snap = snapshot_with_queue()
        iv = predict_wait_interval(
            snap, FCFSPolicy(), _uncertain_estimator(), 2, samples=5, seed=0
        )
        with pytest.raises(ValueError):
            iv.percentile(-0.1)
        with pytest.raises(ValueError):
            iv.percentile(100.1)

    def test_accessors_require_retained_samples(self):
        bare = WaitInterval(median=5.0, lo=1.0, hi=9.0, confidence=0.8, samples=3)
        with pytest.raises(ValueError):
            bare.mean
        with pytest.raises(ValueError):
            bare.percentile(50.0)


class TestGeneratorSeedPassThrough:
    def test_generator_seed_matches_integer_seed(self):
        snap = snapshot_with_queue()
        est = _uncertain_estimator()
        from_int = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=20, seed=7
        )
        from_gen = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=20, seed=rng_from_seed(7)
        )
        assert from_int == from_gen

    def test_threaded_generator_advances_and_is_reproducible(self):
        """One generator threaded through two queries draws two disjoint
        chunks of a single stream — repeatable from the same seed."""
        snap = snapshot_with_queue()
        est = _uncertain_estimator()
        rng = rng_from_seed(11)
        first = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=15, seed=rng)
        second = predict_wait_interval(snap, FCFSPolicy(), est, 2, samples=15, seed=rng)
        assert first.wait_samples != second.wait_samples  # the stream moved
        rng2 = rng_from_seed(11)
        again_first = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=15, seed=rng2
        )
        again_second = predict_wait_interval(
            snap, FCFSPolicy(), est, 2, samples=15, seed=rng2
        )
        assert (first, second) == (again_first, again_second)
