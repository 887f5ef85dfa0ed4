"""Tests for repro.stats.regression."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.regression import (
    fit_inverse,
    fit_linear,
    fit_logarithmic,
    fit_weighted_linear,
)


class TestLinear:
    def test_exact_line(self):
        fit = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])  # y = 1 + 2x
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_residual_variance_zero_on_exact_fit(self):
        fit = fit_linear([1, 2, 3], [2, 4, 6])
        assert fit.residual_variance == pytest.approx(0.0)

    def test_noisy_fit_close(self):
        rng = np.random.default_rng(3)
        x = np.linspace(1, 100, 200)
        y = 5.0 + 0.5 * x + rng.normal(0, 1, size=200)
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert fit.intercept == pytest.approx(5.0, abs=2.0)

    def test_degenerate_design_falls_back_to_mean(self):
        fit = fit_linear([4, 4, 4], [1.0, 2.0, 3.0])
        assert fit.slope == 0.0
        assert fit.predict(4) == pytest.approx(2.0)
        assert fit.predict(100) == pytest.approx(2.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1, 2, 3])

    def test_prediction_interval_contains_truth_mostly(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1, 50, 100)
        y = 2.0 + 3.0 * x + rng.normal(0, 2.0, size=100)
        fit = fit_linear(x, y)
        hits = 0
        for xq in np.linspace(2, 48, 40):
            est, hw = fit.prediction_interval(xq)
            draw = 2.0 + 3.0 * xq  # noise-free truth is well inside
            if abs(draw - est) <= hw:
                hits += 1
        assert hits >= 36

    def test_prediction_interval_needs_three_points(self):
        fit = fit_linear([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit.prediction_interval(1.5)

    def test_interval_widens_away_from_mean(self):
        rng = np.random.default_rng(2)
        x = np.linspace(10, 20, 30)
        y = x + rng.normal(0, 1, 30)
        fit = fit_linear(x, y)
        _, hw_center = fit.prediction_interval(15.0)
        _, hw_far = fit.prediction_interval(100.0)
        assert hw_far > hw_center


class TestInverseAndLog:
    def test_inverse_exact(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 + 10.0 / x
        fit = fit_inverse(x, y)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.slope == pytest.approx(10.0)
        assert fit.predict(5.0) == pytest.approx(5.0)

    def test_log_exact(self):
        x = np.array([1.0, math.e, math.e**2])
        y = 1.0 + 4.0 * np.log(x)
        fit = fit_logarithmic(x, y)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(4.0)

    def test_inverse_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            fit_inverse([0.0, 1.0], [1.0, 2.0])

    def test_log_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            fit_logarithmic([-1.0, 1.0], [1.0, 2.0])


class TestWeightedLinear:
    def test_equal_weights_match_ols(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2.0, 3.0, 5.0, 6.0]
        b0w, b1w = fit_weighted_linear(x, y, [1.0] * 4)
        fit = fit_linear(x, y)
        assert b0w == pytest.approx(fit.intercept)
        assert b1w == pytest.approx(fit.slope)

    def test_heavy_weight_dominates(self):
        # Points on y=x except one outlier with negligible weight.
        x = [1.0, 2.0, 3.0, 10.0]
        y = [1.0, 2.0, 3.0, 100.0]
        b0, b1 = fit_weighted_linear(x, y, [1e6, 1e6, 1e6, 1e-9])
        assert b1 == pytest.approx(1.0, abs=1e-3)
        assert b0 == pytest.approx(0.0, abs=1e-2)

    def test_degenerate_collapses_to_weighted_mean(self):
        b0, b1 = fit_weighted_linear([5.0, 5.0], [2.0, 4.0], [1.0, 3.0])
        assert b1 == 0.0
        assert b0 == pytest.approx((2.0 + 12.0) / 4.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            fit_weighted_linear([1, 2], [1, 2], [1.0, -1.0])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            fit_weighted_linear([1, 2], [1, 2], [0.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_weighted_linear([], [], [])


@given(
    b0=st.floats(-100, 100),
    b1=st.floats(-10, 10),
    xs=st.lists(st.floats(1.0, 500.0), min_size=3, max_size=20, unique=True),
)
@settings(max_examples=80)
def test_property_linear_recovers_noiseless_line(b0, b1, xs):
    ys = [b0 + b1 * x for x in xs]
    fit = fit_linear(xs, ys)
    # Prediction must reproduce the line at any in-range point.
    xq = sum(xs) / len(xs)
    assert fit.predict(xq) == pytest.approx(b0 + b1 * xq, rel=1e-5, abs=1e-4)


@given(
    xs=st.lists(st.floats(1.0, 100.0), min_size=3, max_size=15),
    ys=st.lists(st.floats(0.0, 1e4), min_size=3, max_size=15),
)
@settings(max_examples=80)
def test_property_prediction_interval_nonnegative(xs, ys):
    n = min(len(xs), len(ys))
    fit = fit_linear(xs[:n], ys[:n])
    _, hw = fit.prediction_interval(xs[0])
    assert hw >= 0.0
    assert math.isfinite(hw)
