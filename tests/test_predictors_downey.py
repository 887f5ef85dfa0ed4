"""Tests for the Downey log-uniform predictor."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.predictors.downey import DowneyPredictor, fit_log_uniform
from tests.conftest import make_job


def feed(p, jobs):
    for j in jobs:
        p.on_finish(j, 0.0)


class TestFit:
    def test_log_uniform_sample_recovers_bounds(self):
        """Samples from a true log-uniform distribution fit cleanly."""
        rng = np.random.default_rng(0)
        t_min, t_max = 10.0, 10_000.0
        ts = np.exp(rng.uniform(math.log(t_min), math.log(t_max), size=2000))
        fit = fit_log_uniform(list(ts))
        assert fit is not None
        assert fit.t_max == pytest.approx(t_max, rel=0.25)
        assert fit.beta1 == pytest.approx(1.0 / math.log(t_max / t_min), rel=0.15)

    def test_too_few_points(self):
        assert fit_log_uniform([100.0]) is None

    def test_no_spread(self):
        assert fit_log_uniform([100.0, 100.0, 100.0]) is None

    def test_two_points_fit(self):
        fit = fit_log_uniform([10.0, 1000.0])
        assert fit is not None
        assert fit.beta1 > 0

    def test_conditional_median_formula(self):
        """median(a) = sqrt(a * tmax), the paper's formula."""
        fit = fit_log_uniform([10.0, 100.0, 1000.0, 10000.0])
        a = 50.0
        assert fit.conditional_median(a) == pytest.approx(
            math.sqrt(a * fit.t_max)
        )

    def test_conditional_average_formula(self):
        fit = fit_log_uniform([10.0, 100.0, 1000.0, 10000.0])
        a = 50.0
        expected = (fit.t_max - a) / (math.log(fit.t_max) - math.log(a))
        assert fit.conditional_average(a) == pytest.approx(expected)

    def test_age_floored_at_t_min(self):
        fit = fit_log_uniform([10.0, 100.0, 1000.0])
        # a=0 would degenerate; the floor makes it the unconditional value.
        assert fit.conditional_median(0.0) == pytest.approx(
            math.sqrt(fit.t_min * fit.t_max)
        )

    def test_average_of_nearly_done_job(self):
        fit = fit_log_uniform([10.0, 100.0, 1000.0])
        a = fit.t_max * 2  # older than the model's upper end
        assert fit.conditional_average(a) == pytest.approx(a)

    def test_median_grows_with_age(self):
        fit = fit_log_uniform([10.0, 100.0, 1000.0, 10000.0])
        assert fit.conditional_median(500.0) > fit.conditional_median(50.0)


class TestPredictor:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DowneyPredictor("mode")

    def test_no_history_no_prediction(self):
        assert DowneyPredictor().predict(make_job()) is None

    def test_categorizes_by_queue(self):
        p = DowneyPredictor("median")
        feed(p, [make_job(queue="short", run_time=rt) for rt in (10.0, 100.0)])
        feed(p, [make_job(queue="long", run_time=rt) for rt in (1e4, 1e5)])
        short = p.predict(make_job(queue="short"))
        long_ = p.predict(make_job(queue="long"))
        assert short.estimate < long_.estimate

    def test_global_category_without_queues(self):
        p = DowneyPredictor("median")
        feed(p, [make_job(queue=None, run_time=rt) for rt in (10.0, 1000.0)])
        pred = p.predict(make_job(queue=None))
        assert pred is not None
        assert pred.source.endswith("()")

    def test_average_exceeds_median_for_heavy_tail(self):
        runs = [10.0, 20.0, 40.0, 80.0, 10000.0]
        pa = DowneyPredictor("average")
        pm = DowneyPredictor("median")
        feed(pa, [make_job(run_time=rt, queue="q") for rt in runs])
        feed(pm, [make_job(run_time=rt, queue="q") for rt in runs])
        avg = pa.predict(make_job(queue="q"))
        med = pm.predict(make_job(queue="q"))
        assert avg.estimate > med.estimate

    def test_estimate_at_least_elapsed(self):
        p = DowneyPredictor("median")
        feed(p, [make_job(queue="q", run_time=rt) for rt in (10.0, 50.0, 100.0)])
        pred = p.predict(make_job(queue="q"), elapsed=95.0)
        assert pred.estimate >= 95.0

    def test_fit_cache_invalidated_on_insert(self):
        p = DowneyPredictor("median")
        feed(p, [make_job(queue="q", run_time=rt) for rt in (10.0, 100.0)])
        before = p.predict(make_job(queue="q")).estimate
        feed(p, [make_job(queue="q", run_time=1e6)])
        after = p.predict(make_job(queue="q")).estimate
        assert after > before

    def test_name_reflects_kind(self):
        assert DowneyPredictor("average").name == "downey-average"
