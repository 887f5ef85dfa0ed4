"""Downey's run-time predictor (paper §2.2).

Downey models the cumulative distribution of run times within a category
(he categorizes by submission queue) as log-uniform:

    F(t) = beta0 + beta1 * ln t

fit by least squares over the empirical CDF.  Writing
``tmax = e^{(1.0 - beta0)/beta1}`` for the distribution's upper end, the
two predictors for a job that has already run ``a`` are

- **conditional median**:   sqrt(a * tmax)
- **conditional average**:  (tmax - a) / (ln tmax - ln a)

Both degenerate at ``a = 0`` (a queued job), so ``a`` is floored at the
smallest run time observed in the category — the natural lower end of a
log-uniform model; with that floor the unconditional median becomes the
geometric mean of the distribution's ends, as in Downey's own paper.

For traces without queues (ANL, CTC) all jobs share one global category,
per Downey's remark that any characteristic (or none) can be used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.predictors.base import Prediction, RuntimePredictor
from repro.workloads.job import Job

__all__ = ["DowneyPredictor", "LogUniformFit", "fit_log_uniform"]


@dataclass(frozen=True)
class LogUniformFit:
    """A fitted F(t) = beta0 + beta1 ln t model."""

    beta0: float
    beta1: float
    t_min: float
    n: int

    @property
    def t_max(self) -> float:
        """Run time at which the fitted CDF reaches 1."""
        return math.exp((1.0 - self.beta0) / self.beta1)

    def conditional_median(self, age: float) -> float:
        a = max(age, self.t_min, 1e-9)
        return math.sqrt(a * self.t_max)

    def conditional_average(self, age: float) -> float:
        a = max(age, self.t_min, 1e-9)
        tmax = self.t_max
        if tmax <= a * (1.0 + 1e-12):
            return a
        return (tmax - a) / (math.log(tmax) - math.log(a))


def fit_log_uniform(run_times: list[float]) -> LogUniformFit | None:
    """Least-squares fit of the empirical CDF to ``beta0 + beta1 ln t``.

    Returns ``None`` when the sample cannot support the model: fewer than
    two points, no spread in ``ln t``, or a non-increasing fit
    (``beta1 <= 0``).
    """
    n = len(run_times)
    if n < 2:
        return None
    ts = np.sort(np.asarray(run_times, dtype=float))
    if ts[0] <= 0:
        ts = np.clip(ts, 1e-9, None)
    x = np.log(ts)
    if float(x.max() - x.min()) <= 0.0:
        return None
    # Hazen plotting positions avoid F=0 and F=1 exactly.
    f = (np.arange(1, n + 1) - 0.5) / n
    x_mean = float(x.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    beta1 = float(((x - x_mean) * (f - f.mean())).sum() / sxx)
    if beta1 <= 0.0:
        return None
    beta0 = float(f.mean() - beta1 * x_mean)
    return LogUniformFit(beta0=beta0, beta1=beta1, t_min=float(ts[0]), n=n)


class DowneyPredictor(RuntimePredictor):
    """Log-uniform conditional median / average predictor."""

    KINDS = ("median", "average")

    def __init__(self, kind: str = "median") -> None:
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        self.kind = kind
        self.name = f"downey-{kind}"
        self._samples: dict[str, list[float]] = {}
        self._fits: dict[str, LogUniformFit | None] = {}

    @staticmethod
    def _category(job: Job) -> str:
        return job.queue if job.queue is not None else "()"

    def on_finish(self, job: Job, now: float) -> None:
        key = self._category(job)
        self._samples.setdefault(key, []).append(job.run_time)
        self._fits.pop(key, None)  # invalidate the cached fit

    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        key = self._category(job)
        if key not in self._fits:
            self._fits[key] = fit_log_uniform(self._samples.get(key, []))
        fit = self._fits[key]
        if fit is None:
            return None
        if self.kind == "median":
            est = fit.conditional_median(elapsed)
        else:
            est = fit.conditional_average(elapsed)
        if not math.isfinite(est) or est <= 0.0:
            return None
        return Prediction(
            estimate=max(est, elapsed),
            interval=0.0,
            source=f"downey-{self.kind}:{key}",
        )
