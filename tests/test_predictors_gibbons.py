"""Tests for the Gibbons fixed-hierarchy predictor."""

from __future__ import annotations

import pytest

from repro.predictors.gibbons import GibbonsPredictor, exponential_node_bin
from tests.conftest import make_job


def feed(p, jobs):
    for j in jobs:
        p.on_finish(j, 0.0)


class TestExponentialBins:
    def test_paper_ranges(self):
        """1 | 2-3 | 4-7 | 8-15 | ... (§2.2)."""
        assert exponential_node_bin(1) == 0
        assert exponential_node_bin(2) == exponential_node_bin(3) == 1
        assert exponential_node_bin(4) == exponential_node_bin(7) == 2
        assert exponential_node_bin(8) == exponential_node_bin(15) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            exponential_node_bin(0)


class TestTemplateOrdering:
    def test_most_specific_first(self):
        """(u,e,n,rtime) mean wins when its subcategory has data."""
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=4, run_time=rt)
                for rt in (100.0, 120.0)
            ],
        )
        pred = p.predict(make_job(user="a", executable="x", nodes=5))
        assert pred is not None
        assert pred.estimate == pytest.approx(110.0)
        assert pred.source == "gibbons:ue:mean"

    def test_falls_to_ue_regression_on_node_mismatch(self):
        p = GibbonsPredictor()
        # Two subcategories of (a, x) with different node bins.
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=1, run_time=100.0),
                make_job(user="a", executable="x", nodes=1, run_time=110.0),
                make_job(user="a", executable="x", nodes=8, run_time=800.0),
                make_job(user="a", executable="x", nodes=8, run_time=820.0),
            ],
        )
        # Nodes=4 hits an empty subcategory -> weighted LR across bins.
        pred = p.predict(make_job(user="a", executable="x", nodes=4))
        assert pred is not None
        assert pred.source == "gibbons:ue:regression"
        assert 100.0 < pred.estimate < 820.0

    def test_falls_to_e_level_for_new_user(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=4, run_time=rt)
                for rt in (200.0, 220.0)
            ],
        )
        pred = p.predict(make_job(user="newbie", executable="x", nodes=4))
        assert pred is not None
        assert pred.source == "gibbons:e:mean"
        assert pred.estimate == pytest.approx(210.0)

    def test_falls_to_global_for_unknown_everything(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=4, run_time=rt)
                for rt in (300.0, 330.0)
            ],
        )
        pred = p.predict(make_job(user="b", executable="y", nodes=4))
        assert pred is not None
        assert pred.source == "gibbons:():mean"  # global (n, rtime) mean

    def test_no_history_no_prediction(self):
        assert GibbonsPredictor().predict(make_job()) is None


class TestRtimeConditioning:
    def test_elapsed_filters_short_runs(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=4, run_time=rt)
                for rt in (10.0, 1000.0, 1200.0)
            ],
        )
        pred = p.predict(make_job(user="a", executable="x", nodes=4), elapsed=500.0)
        assert pred.estimate == pytest.approx(1100.0)

    def test_estimate_never_below_elapsed(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=4, run_time=rt)
                for rt in (100.0, 120.0)
            ],
        )
        pred = p.predict(make_job(user="a", executable="x", nodes=4), elapsed=115.0)
        assert pred is None or pred.estimate >= 115.0


class TestExecutableResolution:
    def test_auto_uses_script_when_no_executable(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(
                    user="a", executable=None, script="job.ll", nodes=4, run_time=rt
                )
                for rt in (100.0, 120.0)
            ],
        )
        pred = p.predict(
            make_job(user="a", executable=None, script="job.ll", nodes=4)
        )
        assert pred is not None
        assert pred.estimate == pytest.approx(110.0)

    def test_auto_uses_queue_as_last_resort(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable=None, queue="q16m", nodes=4, run_time=rt)
                for rt in (50.0, 70.0)
            ],
        )
        pred = p.predict(make_job(user="a", executable=None, queue="q16m", nodes=4))
        assert pred is not None
        assert pred.estimate == pytest.approx(60.0)

    def test_executable_wins_over_script(self):
        p = GibbonsPredictor()
        feed(
            p,
            [
                make_job(user="a", executable=e, script="s.ll", nodes=4, run_time=rt)
                for e, rt in (("x", 80.0), ("x", 100.0), ("y", 500.0), ("y", 700.0))
            ],
        )
        pred = p.predict(make_job(user="a", executable="x", script="s.ll", nodes=4))
        assert pred.estimate == pytest.approx(90.0)


class TestWeightedRegression:
    def test_low_variance_bins_dominate(self):
        p = GibbonsPredictor()
        # Three tight bins on the exact line rt = 100 * nodes, plus one
        # wildly noisy off-line bin at nodes=32 whose tiny weight must not
        # bend the fit.
        jobs = []
        for nodes in (1, 4, 16):
            jobs += [
                make_job(user="a", executable="x", nodes=nodes, run_time=rt)
                for rt in (100.0 * nodes - 1.0, 100.0 * nodes + 1.0)
            ]
        jobs += [
            make_job(user="a", executable="x", nodes=32, run_time=rt)
            for rt in (1.0, 50_000.0)
        ]
        feed(p, jobs)
        # nodes=2 falls in an empty bin (2-3), forcing the regression.
        pred = p.predict(make_job(user="a", executable="x", nodes=2))
        assert pred is not None
        assert pred.source == "gibbons:ue:regression"
        assert pred.estimate == pytest.approx(200.0, rel=0.25)

    def test_nonpositive_regression_estimate_rejected(self):
        p = GibbonsPredictor()
        # Steeply decreasing: extrapolation to high nodes goes negative.
        feed(
            p,
            [
                make_job(user="a", executable="x", nodes=1, run_time=1000.0),
                make_job(user="a", executable="x", nodes=1, run_time=1000.0),
                make_job(user="a", executable="x", nodes=2, run_time=10.0),
                make_job(user="a", executable="x", nodes=2, run_time=10.0),
            ],
        )
        pred = p.predict(make_job(user="a", executable="x", nodes=512))
        # Falls through (u,e) regression to (e)... all levels share the same
        # degenerate data, so the result is either None or positive.
        assert pred is None or pred.estimate > 0
