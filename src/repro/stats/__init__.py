"""Statistics substrate: confidence intervals and regression estimators.

The run-time predictors of the paper (Section 2.1) rate each candidate
category by the width of the confidence interval around its estimate and
select the tightest one.  This package implements the required machinery
from first principles on top of NumPy:

- :mod:`repro.stats.ci` — running sample moments and Student-t confidence
  intervals for a sample mean;
- :mod:`repro.stats.regression` — linear, inverse, and logarithmic least
  squares regressions with prediction confidence intervals, plus the
  variance-weighted linear regression used by Gibbons' predictor.
"""

from repro._lazy import lazy_exports

__all__ = [
    "RunningMoments",
    "mean_confidence_interval",
    "t_quantile",
    "RegressionResult",
    "fit_linear",
    "fit_inverse",
    "fit_logarithmic",
    "fit_weighted_linear",
    "BootstrapInterval",
    "bootstrap_mean",
    "bootstrap_mean_difference",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.ci": ("RunningMoments", "mean_confidence_interval", "t_quantile"),
    "repro.stats.regression": (
        "RegressionResult", "fit_inverse", "fit_linear", "fit_logarithmic", "fit_weighted_linear",
    ),
    "repro.stats.bootstrap": ("BootstrapInterval", "bootstrap_mean", "bootstrap_mean_difference"),
})
