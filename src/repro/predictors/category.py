"""Categories: the per-template history buckets predictions come from.

A :class:`Category` accumulates observations from completed jobs that
matched one template's key, bounded by the template's maximum history
(oldest evicted first, §2.1 step 3(b)ii).  Each point's run time, value
and node count sit in three insertion-order ``array('d')`` columns:
:meth:`Category.add` appends to them and eviction deletes their front,
and :attr:`Category.points` builds :class:`DataPoint` records on demand.
Predictions come from the template's estimator:

- ``mean`` — sample mean of the stored datum with a Student-t prediction
  interval (incremental moments serve the common elapsed==0 case, their
  interval kept per confidence until the next add; the conditioned case
  filters points whose total run time is at least the elapsed time);
- ``linear`` / ``inverse`` / ``log`` — least squares of the datum against
  the (transformed) node count, evaluated at the queried job's nodes,
  with the OLS prediction interval.

For *relative* templates the stored datum is ``run_time / max_run_time``
and predictions are scaled back by the queried job's own maximum.

Elapsed-conditioned statistics are memoised.  At a fixed history the
points with ``run_time >= elapsed`` are determined by their count ``k``
(ties enter or leave together), and they are always the same subset in
the same insertion order.  A sorted side list of run times gives ``k`` by
bisection; the unscaled statistic — ``(mean, half_width)`` for the mean,
the :class:`~repro.stats.regression.RegressionResult` for regressions —
is computed once per ``(k, confidence)`` and the memo is cleared on every
:meth:`Category.add`.  A miss reads the columns in place through
``np.frombuffer`` and gathers ``values[run_times >= elapsed]``; no view
outlives the call, since an exported buffer would block the next append.
It fits the same values, in the same order, with the same arithmetic as
a filter over the history would, so the memoised answer is the same to
the bit: the regressions make the same NumPy calls, and the mean's kernel
(:func:`~repro.stats.ci.mean_confidence_interval`) makes the same
pairwise sums as NumPy's ``mean``/``std``, without their Python-level
wrappers.  A mean miss gathers only the values; node counts are
gathered for the regressions alone.  Scaling, the regression's
evaluation at the queried job's nodes and the floor at ``elapsed`` are
applied per call.  :class:`~repro.predictors.smith.SmithPredictor`
reads the sorted run times, the memo and the bounds in place, so that
its contest answers a memo hit with one bisection and one read.

:meth:`Category.half_width_bound` lets the Smith contest skip a ``mean``
miss that cannot win.  Given the qualifying count ``k`` of an
elapsed-conditioned lookup that would miss the memo, it returns a lower
bound on the unscaled half-width the miss would compute
(:meth:`Category.miss_bound` answers the same for a job and an elapsed
time, scaled), read from the suffix sums ``S1 = Σv`` and ``S2 = Σv²`` of
the ``k`` qualifying values.  A side array ``_sorted_values`` is kept aligned with
``_sorted_run_times``, so the qualifying values are its last ``k``
entries.  The first bound after a mutation takes ``np.cumsum`` of the
reversed array and of its squares, without copying it out of Python
(``np.frombuffer`` over an ``array('d')``); every suffix is then one
lookup.  Bounds are memoised per ``(k, confidence)``, and sums and
bounds are dropped with the statistics on :meth:`Category.add`.  The
bound never exceeds the computed half-width:

- values are non-negative (run times, or ratios to positive maxima), so
  a sequential sum of ``k`` of them (each ``v*v`` rounded once) is
  within ``γ_k = k·u/(1 − k·u)`` of the exact sum, ``u = 2⁻⁵³``; the
  reversed cumulative sum adds no subtraction.  Inflating
  ``S1`` and deflating ``S2`` by ``c = 4(k+2)u`` (twice that error,
  plus the roundings of the expression itself) makes
  ``num = S2(1 − c) − (S1(1 + c))²/k`` at most the exact
  ``N = Σ(x − m)² = (k − 1)·V``.  When ``num`` is not a finite number
  above ``2⁻⁹⁰⁰`` (near-zero variance, cancellation, overflow, or
  squares so small that underflow, not ``u``, sets their error) the
  bound is 0.0 and the category is computed;
- the two-pass kernel sums ``d = fl(x − m̂)`` squared, and
  ``Σ(x − m̂)² = N + k(m − m̂)² ≥ N`` for the float ``m̂`` it subtracts.
  Each ``d²`` is within ``3u`` of ``(x − m̂)²`` and NumPy's pairwise sum
  of non-negative terms is within its tree depth (under 64) times ``u``,
  so the computed sum is at least ``N(1 − 70u)``;
- the bound takes ``t`` and ``√(1 + 1/k)`` from the same expressions as
  the kernel and multiplies by ``1 − 1e-9``, which absorbs the few
  remaining roundings (each ``≤ u``) of both sides;
- relative templates scale by the job's maximum with a further
  ``1 − 1e-12``: both sides round that product once.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.stats.ci import RunningMoments, mean_confidence_interval, t_quantile
from repro.stats.regression import fit_inverse, fit_linear, fit_logarithmic
from repro.predictors.templates import Template
from repro.workloads.job import Job

__all__ = ["DataPoint", "Category"]

_FITTERS = {
    "linear": fit_linear,
    "inverse": fit_inverse,
    "log": fit_logarithmic,
}

#: Minimum points for a valid prediction: 2 gives a defined variance for
#: the mean; regressions need 3 for a prediction interval.
_MIN_POINTS_MEAN = 2
_MIN_POINTS_REGRESSION = 3

_UNSET = object()

#: Unit roundoff of a double.
_U = 2.0**-53
#: Below this variance numerator subnormal squares could break the
#: relative error argument of Category.miss_bound; such a category is
#: computed.
_TINY = 2.0**-900


@dataclass(frozen=True)
class DataPoint:
    """One completed job's contribution to a category."""

    run_time: float
    nodes: int
    value: float  # run_time, or run_time / max_run_time for relative templates


class Category:
    """Bounded history of similar jobs with an attached estimator."""

    def __init__(self, template: Template) -> None:
        self.template = template
        # Insertion-order columns: each point's run time, value and node
        # count.  Misses read them in place through np.frombuffer; no
        # view outlives the call, since an exported buffer blocks the
        # next append.
        self._run_times = array("d")
        self._values = array("d")
        self._nodes = array("d")
        self._moments = RunningMoments()
        # Run times in ascending order: the count of points qualifying
        # for an elapsed time is one bisection away.
        self._sorted_run_times: list[float] = []
        # Each point's value, aligned with _sorted_run_times.
        self._sorted_values = array("d")
        # Cumulative sums of the reversed values and of their squares:
        # entry k-1 sums the k values with the longest run times.  Built
        # on the first bound after a mutation.
        self._suffix_sums: tuple[np.ndarray, np.ndarray] | None = None
        # (qualifying count, confidence) -> unscaled statistic, or None
        # for a failed fit.  Valid until the next add.
        self._memo: dict[tuple[int, float], object] = {}
        # (qualifying count, confidence) -> unscaled half-width lower
        # bound of a mean miss.  Valid until the next add.
        self._bounds: dict[tuple[int, float], float] = {}
        # confidence -> the unscaled (mean, half_width) of the running
        # moments, for a mean lookup at elapsed 0.  Kept apart from
        # _memo: Welford's bits differ from the two-pass statistic's at
        # the same count.  Valid until the next add.
        self._moments_interval: dict[float, tuple[float, float]] = {}
        #: Elapsed-conditioned memo hits and misses, and the history
        #: points those misses scanned; plain ints, folded by
        #: SmithPredictor.obs_stats().  Unconditioned lookups (the
        #: regressions at elapsed 0, which the audit re-derives) are not
        #: counted, so auditing leaves the tallies unchanged.
        self.memo_hits = 0
        self.memo_misses = 0
        self.points_scanned = 0

    def __len__(self) -> int:
        return len(self._run_times)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        return tuple(
            DataPoint(run_time=rt, nodes=int(n), value=v)
            for rt, n, v in zip(self._run_times, self._nodes, self._values)
        )

    def add(self, job: Job) -> None:
        """Insert a completed job, evicting the oldest at capacity."""
        if self.template.relative:
            if job.max_run_time is None:
                raise ValueError(
                    f"relative template {self.template.describe()} cannot store "
                    f"job {job.job_id} without a max run time"
                )
            value = job.run_time / job.max_run_time
        else:
            value = job.run_time
        limit = self.template.max_history
        sorted_run_times = self._sorted_run_times
        sorted_values = self._sorted_values
        if limit is not None and len(self._run_times) >= limit:
            old_run_time = self._run_times[0]
            self._moments.remove(self._values[0])
            del self._run_times[0], self._values[0], self._nodes[0]
            # Inserting after equal run times keeps each tie group in
            # arrival order, so the oldest point is its group's first
            # entry and both sides lose the same (run time, value).
            i = bisect_left(sorted_run_times, old_run_time)
            del sorted_run_times[i], sorted_values[i]
        self._run_times.append(job.run_time)
        self._values.append(value)
        self._nodes.append(job.nodes)
        i = bisect_right(sorted_run_times, job.run_time)
        sorted_run_times.insert(i, job.run_time)
        sorted_values.insert(i, value)
        self._moments.add(value)
        self._memo.clear()
        self._bounds.clear()
        self._moments_interval.clear()
        self._suffix_sums = None

    def predict(
        self, job: Job, elapsed: float = 0.0, confidence: float = 0.90
    ) -> tuple[float, float] | None:
        """``(estimate, interval_half_width)`` for ``job`` or ``None``.

        ``elapsed`` conditions the prediction on the job having already
        run that long: only historical points whose total run time is at
        least ``elapsed`` participate (corrected §2.1 semantics), and the
        estimate is floored at ``elapsed``.
        """
        template = self.template
        if template.relative and job.max_run_time is None:
            return None
        kind = template.estimator
        conditioned = elapsed > 0.0
        if kind == "mean" and not conditioned:
            if self._moments.count < _MIN_POINTS_MEAN:
                return None
            stat = self._moments_interval.get(confidence)
            if stat is None:
                stat = self._moments.interval(confidence)
                self._moments_interval[confidence] = stat
            est, hw = stat
        else:
            run_times = self._sorted_run_times
            k = len(run_times)
            if conditioned:
                k -= bisect_left(run_times, elapsed)
            if k < (_MIN_POINTS_MEAN if kind == "mean" else _MIN_POINTS_REGRESSION):
                return None
            key = (k, confidence)
            stat = self._memo.get(key, _UNSET)
            if stat is _UNSET:
                stat = self._memo[key] = self._statistic(elapsed, confidence)
                self.memo_misses += conditioned
            else:
                self.memo_hits += conditioned
            if stat is None:
                return None
            if kind == "mean":
                est, hw = stat
            else:
                est, hw = stat.prediction_interval(job.nodes, confidence)

        if template.relative:
            assert job.max_run_time is not None
            est *= job.max_run_time
            hw *= job.max_run_time
        est = max(est, elapsed)
        return est, max(hw, 0.0)

    def miss_bound(self, job: Job, elapsed: float, confidence: float) -> float | None:
        """A lower bound on the half-width :meth:`predict` would compute.

        Only for an elapsed-conditioned ``mean`` lookup that would miss
        the memo; ``None`` otherwise (a hit, an unconditioned or
        regression lookup, too few qualifying points, or a relative
        template without the job's maximum), and :meth:`predict` then
        answers at the cost it always had.  The module docstring argues
        the bound.
        """
        template = self.template
        if template.estimator != "mean" or elapsed <= 0.0:
            return None
        if template.relative and job.max_run_time is None:
            return None
        run_times = self._sorted_run_times
        k = len(run_times) - bisect_left(run_times, elapsed)
        if k < _MIN_POINTS_MEAN:
            return None
        if (k, confidence) in self._memo:
            return None
        bound = self.half_width_bound(k, confidence)
        if template.relative:
            return bound * job.max_run_time * (1.0 - 1e-12)
        return bound

    def half_width_bound(self, k: int, confidence: float) -> float:
        """Unscaled half-width lower bound over the last ``k`` sorted
        points, memoised until the next add."""
        key = (k, confidence)
        bound = self._bounds.get(key)
        if bound is not None:
            return bound
        sums = self._suffix_sums
        if sums is None:
            # A view, not a copy; dropped on return.
            reversed_values = np.frombuffer(self._sorted_values)[::-1]
            sums = self._suffix_sums = (
                np.cumsum(reversed_values),
                np.cumsum(reversed_values * reversed_values),
            )
        s1 = sums[0].item(k - 1)
        s2 = sums[1].item(k - 1)
        c = 4 * (k + 2) * _U
        high = s1 * (1.0 + c)
        num = s2 * (1.0 - c) - high * high / k
        if not _TINY < num < math.inf:
            bound = 0.0
        else:
            t = t_quantile(k - 1, 0.5 + confidence / 2.0)
            bound = t * math.sqrt(num / (k - 1)) * math.sqrt(1.0 + 1.0 / k) * (1.0 - 1e-9)
        self._bounds[key] = bound
        return bound

    def _statistic(self, elapsed: float, confidence: float):
        """The unscaled statistic over the points qualifying for ``elapsed``.

        ``values[run_times >= elapsed]``, gathered from views of the
        insertion-order columns, is the contiguous float64 array
        ``np.asarray`` builds from the filtered points, so the fit sees
        exactly the operands a per-call filter would.
        """
        kind = self.template.estimator
        if elapsed > 0.0:
            self.points_scanned += len(self._run_times)
            mask = np.frombuffer(self._run_times) >= elapsed
            values = np.frombuffer(self._values)[mask]
            if kind != "mean":  # only the regressions read node counts
                nodes = np.frombuffer(self._nodes)[mask]
        else:
            # Fresh arrays, as the masked gathers are: the regression
            # sees the operands a copy of the history would give it.
            values = np.array(self._values)
            nodes = np.array(self._nodes)
        if kind == "mean":
            return mean_confidence_interval(values, confidence)
        try:
            return _FITTERS[kind](nodes, values)
        except ValueError:
            return None
