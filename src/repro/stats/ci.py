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

Because the tightest interval picks the template, the bits of the t
quantile decide which category predicts, and with it the printed cells of
Tables 5-9 and 11-15.  :func:`t_quantile` therefore has one kernel on
every host, ``scipy.special.stdtrit``, and no approximate fallback.  At
the paper's 90% confidence (``p = 0.95``) its bits come from a committed
table of that kernel's output for ``df = 1..32,768``
(``t_quantile_p95.npy``, written by ``scripts/gen_t_table.py``), so a
Smith replay never loads SciPy; any other ``(df, p)`` calls SciPy, a
required dependency.

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
from pathlib import Path

import numpy as np

__all__ = ["t_quantile", "mean_confidence_interval", "RunningMoments"]

_T_CACHE: dict[tuple[int, float], float] = {}

#: The quantile level of the paper's 90% intervals, the one level tabled.
_TABLED_P = 0.5 + 0.90 / 2.0
_TABLE_PATH = Path(__file__).with_name("t_quantile_p95.npy")
#: ``stdtrit(df, _TABLED_P)`` at index ``df - 1``; read on first use.
_table: np.ndarray | None = None


def _stdtrit(df: int, p: float) -> float:
    """``scipy.special.stdtrit(df, p)``, from the table where it has the answer."""
    global _table
    if p == _TABLED_P:
        if _table is None:
            _table = np.load(_TABLE_PATH, allow_pickle=False)
        # NaN and infinite df fail the bound; fractional df the equality.
        if df <= _table.size and df == int(df):
            return float(_table[int(df) - 1])
    # Imported on the first untabled miss: scipy.special costs ~19 MB.
    from scipy.special import stdtrit

    return float(stdtrit(df, p))


def t_quantile(df: int, p: float) -> float:
    """Quantile function of Student's t with ``df`` degrees of freedom.

    The bits are ``scipy.special.stdtrit``'s, the kernel SciPy's
    ``t.ppf`` calls: read from the committed table at ``p = 0.95`` and
    ``df <= 32,768``, computed by SciPy otherwise.  Results are memoized
    — predictors call this with a handful of distinct ``(df, p)`` pairs
    millions of times during a trace replay.  Raises :class:`ValueError`
    unless ``df >= 1`` and ``0 < p < 1``.
    """
    key = (df, p)
    v = _T_CACHE.get(key)
    if v is None:
        # Only valid arguments enter the cache, so a hit needs no check.
        if df < 1:
            raise ValueError(f"df must be >= 1, got {df}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        v = _T_CACHE[key] = _stdtrit(df, p)
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
