"""Sample moments and Student-t confidence intervals.

A *prediction* in this library is always an estimate plus a confidence
interval half-width; the Smith predictor picks, among all categories that
match a job, the category whose interval is tightest (paper §2.1, step
2(d)).  The interval for a category mean over ``n`` points with sample
standard deviation ``s`` is the classic

    mean ± t_{n-1, (1+conf)/2} * s * sqrt(1 + 1/n)

i.e. a *prediction* interval for the next draw rather than a confidence
interval for the mean itself — the quantity of interest is the run time of
the new job, not the category average.  (Using the mean-CI instead only
rescales all widths by roughly ``sqrt(n)`` and does not change which
category wins for same-size categories; the prediction interval is what
makes small, tight categories beat huge, diffuse ones.)

:func:`mean_confidence_interval` is called on every miss of a category's
memo, mostly on a few hundred points, where NumPy's Python-level
``mean``/``std`` wrappers cost more than the arithmetic.  It calls the
ufuncs those wrappers call, in the same order — the same pairwise sums,
the same single divisions and an IEEE square root — so it returns the
same bits as ``x.mean()`` and ``x.std(ddof=1)``
(``tests/test_stats_ci.py`` pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["t_quantile", "mean_confidence_interval", "RunningMoments"]

_T_CACHE: dict[tuple[int, float], float] = {}


def _t_quantile_uncached(df: int, p: float) -> float:
    # Inverse CDF of Student's t via the inverse incomplete beta function.
    # Uses scipy when available; otherwise falls back to the Cornish-Fisher
    # expansion around the normal quantile, which is accurate to ~1e-3 for
    # df >= 3 and adequate for ranking interval widths.
    try:  # pragma: no cover - exercised when scipy is installed
        from scipy.stats import t as _t

        return float(_t.ppf(p, df))
    except Exception:  # pragma: no cover - scipy always present in CI
        z = _normal_quantile(p)
        g1 = (z**3 + z) / 4.0
        g2 = (5 * z**5 + 16 * z**3 + 3 * z) / 96.0
        g3 = (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / 384.0
        g4 = (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / 92160.0
        return float(z + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4)


def _normal_quantile(p: float) -> float:
    # Acklam's rational approximation to the inverse normal CDF.
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


def t_quantile(df: int, p: float) -> float:
    """Quantile function of Student's t with ``df`` degrees of freedom.

    Results are memoized — predictors call this with a handful of distinct
    ``(df, p)`` pairs millions of times during a trace replay.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    key = (df, p)
    v = _T_CACHE.get(key)
    if v is None:
        v = _t_quantile_uncached(df, p)
        _T_CACHE[key] = v
    return v


def mean_confidence_interval(
    values: np.ndarray | list[float],
    confidence: float = 0.90,
    *,
    prediction: bool = True,
) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of the confidence interval for a sample.

    With ``prediction=True`` (default) the half-width is for a *prediction*
    interval on the next observation; with ``False`` it is the interval for
    the mean.  Requires at least two values (otherwise the variance, and
    hence the interval, is undefined); raises :class:`ValueError` below that.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("confidence interval requires at least 2 values")
    # x.mean() and x.std(ddof=1) without their wrappers: the same bits.
    total = np.add.reduce(x)
    m = float(total) / n
    d = x - total / n
    s = math.sqrt(np.add.reduce(d * d) / (n - 1))
    t = t_quantile(n - 1, 0.5 + confidence / 2.0)
    scale = math.sqrt(1.0 + 1.0 / n) if prediction else math.sqrt(1.0 / n)
    return m, t * s * scale


@dataclass
class RunningMoments:
    """Incrementally maintained count / mean / M2 (Welford's algorithm).

    Supports ``remove`` so bounded-history categories can retire their
    oldest observation in O(1) without rescanning.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)

    def remove(self, x: float) -> None:
        """Remove a previously added value (inverse Welford update)."""
        if self.count <= 0:
            raise ValueError("cannot remove from an empty RunningMoments")
        if self.count == 1:
            self.count = 0
            self.mean = 0.0
            self._m2 = 0.0
            return
        old_mean = (self.count * self.mean - x) / (self.count - 1)
        self._m2 -= (x - self.mean) * (x - old_mean)
        # Guard against tiny negative residue from floating point cancellation.
        if self._m2 < 0.0:
            self._m2 = 0.0
        self.count -= 1
        self.mean = old_mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 when fewer than two points."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def interval(self, confidence: float = 0.90, *, prediction: bool = True) -> tuple[float, float]:
        """``(mean, half_width)`` as in :func:`mean_confidence_interval`."""
        if self.count < 2:
            raise ValueError("confidence interval requires at least 2 values")
        t = t_quantile(self.count - 1, 0.5 + confidence / 2.0)
        scale = math.sqrt(1.0 + 1.0 / self.count) if prediction else math.sqrt(1.0 / self.count)
        return self.mean, t * self.std * scale
