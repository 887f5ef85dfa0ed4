"""Tests for repro.predictors.category."""

from __future__ import annotations

from collections import deque

import pytest

from repro.predictors.category import Category
from repro.predictors.templates import Template
from repro.stats.ci import RunningMoments
from tests.conftest import make_job


def filled(template=None, run_times=(100.0, 110.0, 120.0), **job_kw):
    cat = Category(template or Template(characteristics=("u",)))
    for rt in run_times:
        cat.add(make_job(run_time=rt, **job_kw))
    return cat


class TestInsertion:
    def test_counts(self):
        cat = filled()
        assert len(cat) == 3

    def test_max_history_evicts_oldest(self):
        t = Template(characteristics=("u",), max_history=2)
        cat = Category(t)
        for rt in (10.0, 20.0, 30.0):
            cat.add(make_job(run_time=rt))
        assert len(cat) == 2
        assert [p.run_time for p in cat.points] == [20.0, 30.0]

    def test_mean_tracks_window(self):
        t = Template(characteristics=("u",), max_history=2)
        cat = Category(t)
        for rt in (10.0, 20.0, 30.0):
            cat.add(make_job(run_time=rt))
        est, _ = cat.predict(make_job())
        assert est == pytest.approx(25.0)

    def test_relative_stores_ratio(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        assert cat.points[0].value == pytest.approx(0.5)

    def test_relative_insert_without_max_raises(self):
        t = Template(characteristics=("u",), relative=True)
        with pytest.raises(ValueError, match="max run time"):
            Category(t).add(make_job(max_run_time=None))


class TestMeanPrediction:
    def test_mean_estimate(self):
        cat = filled()
        est, hw = cat.predict(make_job())
        assert est == pytest.approx(110.0)
        assert hw > 0.0

    def test_single_point_invalid(self):
        cat = filled(run_times=(100.0,))
        assert cat.predict(make_job()) is None

    def test_empty_invalid(self):
        cat = Category(Template(characteristics=("u",)))
        assert cat.predict(make_job()) is None

    def test_tighter_data_tighter_interval(self):
        loose = filled(run_times=(10.0, 500.0, 1000.0))
        tight = filled(run_times=(400.0, 410.0, 420.0))
        _, hw_loose = loose.predict(make_job())
        _, hw_tight = tight.predict(make_job())
        assert hw_tight < hw_loose

    def test_relative_prediction_scales_by_job_max(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        cat.add(make_job(run_time=30.0, max_run_time=60.0))
        est, _ = cat.predict(make_job(max_run_time=1000.0))
        assert est == pytest.approx(500.0)  # mean ratio 0.5 * 1000

    def test_relative_prediction_without_max_invalid(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        cat.add(make_job(run_time=60.0, max_run_time=100.0))
        assert cat.predict(make_job(max_run_time=None)) is None


    def test_repeated_lookups_answer_as_fresh_moments(self):
        """The kept elapsed-0 interval is dropped at every add."""
        cat = Category(Template(characteristics=("u",), max_history=4))
        ref, window = RunningMoments(), deque()
        for rt in (100.0, 130.0, 90.0, 300.0, 120.0, 110.0, 95.0):
            cat.add(make_job(run_time=rt))
            if len(window) == 4:
                ref.remove(window.popleft())
            ref.add(rt)
            window.append(rt)
            for _ in range(3):
                got = cat.predict(make_job(), 0.0)
                if ref.count < 2:
                    assert got is None
                else:
                    assert got == ref.interval()
        assert cat.memo_hits == cat.memo_misses == 0


class TestElapsedConditioning:
    def test_filters_shorter_runs(self):
        cat = filled(run_times=(10.0, 1000.0, 2000.0))
        est, _ = cat.predict(make_job(), elapsed=500.0)
        assert est == pytest.approx(1500.0)  # the 10 s point is excluded

    def test_too_few_surviving_points_invalid(self):
        cat = filled(run_times=(10.0, 20.0, 2000.0))
        assert cat.predict(make_job(), elapsed=500.0) is None

    def test_estimate_at_least_elapsed(self):
        cat = filled(run_times=(100.0, 116.0, 120.0))
        est, _ = cat.predict(make_job(), elapsed=115.0)
        assert est >= 115.0

    def test_regression_estimate_floored_at_elapsed(self):
        # A negative-slope regression can predict below the elapsed time;
        # the floor must clamp it.
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for nodes, rt in [(1, 800.0), (2, 700.0), (4, 500.0), (8, 460.0)]:
            cat.add(make_job(nodes=nodes, run_time=rt))
        est, _ = cat.predict(make_job(nodes=16), elapsed=450.0)
        assert est >= 450.0


class TestRegressionPrediction:
    def test_linear_tracks_nodes(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for nodes, rt in [(1, 100.0), (2, 200.0), (4, 400.0), (8, 800.0)]:
            cat.add(make_job(nodes=nodes, run_time=rt))
        est, hw = cat.predict(make_job(nodes=6))
        assert est == pytest.approx(600.0)
        assert hw >= 0.0

    def test_regression_needs_three_points(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        cat.add(make_job(nodes=1, run_time=10.0))
        cat.add(make_job(nodes=2, run_time=20.0))
        assert cat.predict(make_job(nodes=4)) is None

    def test_inverse_estimator(self):
        t = Template(characteristics=("u",), estimator="inverse")
        cat = Category(t)
        # run_time = 50 + 100/n
        for n in (1, 2, 4, 5):
            cat.add(make_job(nodes=n, run_time=50.0 + 100.0 / n))
        est, _ = cat.predict(make_job(nodes=10))
        assert est == pytest.approx(60.0)

    def test_log_estimator(self):
        import math

        t = Template(characteristics=("u",), estimator="log")
        cat = Category(t)
        for n in (1, 2, 4, 8):
            cat.add(make_job(nodes=n, run_time=10.0 + 5.0 * math.log(n)))
        est, _ = cat.predict(make_job(nodes=16))
        assert est == pytest.approx(10.0 + 5.0 * math.log(16))

    def test_relative_regression_scales_by_job_max(self):
        # Ratios fall on ratio = 0.1 * nodes; prediction at nodes=5 is a
        # ratio of 0.5, scaled by the queried job's own maximum.
        t = Template(characteristics=("u",), relative=True, estimator="linear")
        cat = Category(t)
        for nodes in (1, 2, 4, 8):
            cat.add(
                make_job(nodes=nodes, run_time=0.1 * nodes * 1000.0,
                         max_run_time=1000.0)
            )
        est, _ = cat.predict(make_job(nodes=5, max_run_time=2000.0))
        assert est == pytest.approx(0.5 * 2000.0)

    def test_constant_nodes_degenerates_to_mean(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for rt in (100.0, 120.0, 140.0):
            cat.add(make_job(nodes=4, run_time=rt))
        est, _ = cat.predict(make_job(nodes=32))
        assert est == pytest.approx(120.0)
