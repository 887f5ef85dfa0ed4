"""Least-squares regressions with prediction confidence intervals.

The paper's earlier work [Smith/Foster/Taylor 1998] considered four
category estimators: the mean and three simple regressions of run time
against the requested number of nodes —

- *linear*:       t = b0 + b1 * n
- *inverse*:      t = b0 + b1 / n
- *logarithmic*:  t = b0 + b1 * ln(n)

All three are ordinary least squares in a transformed regressor x = f(n),
so one implementation serves all.  ``fit_weighted_linear`` additionally
implements the variance-weighted regression Gibbons performs across
subcategory means (§2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.stats.ci import CONFIDENCE, t_quantile

__all__ = [
    "RegressionResult",
    "fit_linear",
    "fit_inverse",
    "fit_logarithmic",
    "fit_weighted_linear",
]


@dataclass(frozen=True)
class RegressionResult:
    """A fitted one-regressor least squares model ``y = b0 + b1 * f(x)``."""

    intercept: float
    slope: float
    n: int
    x_mean: float
    sxx: float
    residual_variance: float
    transform: Callable[[float], float]

    def predict(self, x: float) -> float:
        """Point prediction at raw regressor value ``x``."""
        return self.intercept + self.slope * self.transform(x)

    def prediction_interval(self, x: float) -> tuple[float, float]:
        """``(prediction, half_width)`` of the
        :data:`~repro.stats.ci.CONFIDENCE` prediction interval at ``x``.

        The half-width uses the standard OLS prediction-variance formula
        ``s^2 * (1 + 1/n + (x - xbar)^2 / Sxx)``.  Degenerate designs
        (``Sxx == 0``, i.e. all observations at one regressor value) fall
        back to treating the fit as a plain mean.
        """
        xf = self.transform(x)
        if self.n < 3:
            raise ValueError("prediction interval requires at least 3 points")
        s2 = self.residual_variance
        if self.sxx > 0.0:
            var = s2 * (1.0 + 1.0 / self.n + (xf - self.x_mean) ** 2 / self.sxx)
            df = self.n - 2
        else:
            var = s2 * (1.0 + 1.0 / self.n)
            df = self.n - 1
        t = t_quantile(max(df, 1), 0.5 + CONFIDENCE / 2.0)
        return self.predict(x), t * math.sqrt(max(var, 0.0))


def _fit(
    x: np.ndarray, y: np.ndarray, transform: Callable[[float], float]
) -> RegressionResult:
    xf = np.array([transform(v) for v in np.asarray(x, dtype=float)])
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 2:
        raise ValueError("regression requires at least 2 points")
    if xf.size != n:
        raise ValueError("x and y must have the same length")
    x_mean = float(xf.mean())
    sxx = float(((xf - x_mean) ** 2).sum())
    if sxx > 0.0:
        slope = float(((xf - x_mean) * (y - y.mean())).sum() / sxx)
        intercept = float(y.mean() - slope * x_mean)
        resid = y - (intercept + slope * xf)
        df = n - 2
        residual_variance = float((resid**2).sum() / df) if df > 0 else 0.0
    else:
        # Degenerate design: every point has the same regressor value.  The
        # best fit is the sample mean with zero slope.
        slope = 0.0
        intercept = float(y.mean())
        resid = y - intercept
        df = n - 1
        residual_variance = float((resid**2).sum() / df) if df > 0 else 0.0
    return RegressionResult(
        intercept=intercept,
        slope=slope,
        n=n,
        x_mean=x_mean,
        sxx=sxx,
        residual_variance=residual_variance,
        transform=transform,
    )


def _identity(v: float) -> float:
    return v


def _reciprocal(v: float) -> float:
    if v <= 0:
        raise ValueError(f"inverse regression requires positive x, got {v}")
    return 1.0 / v


def _log(v: float) -> float:
    if v <= 0:
        raise ValueError(f"logarithmic regression requires positive x, got {v}")
    return math.log(v)


def fit_linear(x, y) -> RegressionResult:
    """OLS fit of ``y = b0 + b1 * x``."""
    return _fit(np.asarray(x), np.asarray(y), _identity)


def fit_inverse(x, y) -> RegressionResult:
    """OLS fit of ``y = b0 + b1 / x`` (x must be positive)."""
    return _fit(np.asarray(x), np.asarray(y), _reciprocal)


def fit_logarithmic(x, y) -> RegressionResult:
    """OLS fit of ``y = b0 + b1 * ln x`` (x must be positive)."""
    return _fit(np.asarray(x), np.asarray(y), _log)


def fit_weighted_linear(
    x, y, weights
) -> tuple[float, float]:
    """Weighted least squares fit of ``y = b0 + b1 * x``.

    Returns ``(intercept, slope)``.  Gibbons' predictor regresses the mean
    run time of each subcategory on its mean node count, weighting each
    point by the inverse of the run-time variance within the subcategory
    (§2.2).  Zero-variance subcategories should be given some large finite
    weight by the caller.  A degenerate design again collapses to the
    weighted mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (x.size == y.size == w.size):
        raise ValueError("x, y, weights must have the same length")
    if x.size == 0:
        raise ValueError("weighted regression requires at least 1 point")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    wsum = float(w.sum())
    if wsum <= 0:
        raise ValueError("weights must not all be zero")
    xbar = float((w * x).sum() / wsum)
    ybar = float((w * y).sum() / wsum)
    sxx = float((w * (x - xbar) ** 2).sum())
    if sxx > 0.0:
        slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    else:
        slope = 0.0
    intercept = ybar - slope * xbar
    return intercept, slope
