"""Categories: the per-template history buckets predictions come from.

A :class:`Category` accumulates :class:`DataPoint` observations from
completed jobs that matched one template's key, bounded by the template's
maximum history (oldest evicted first, §2.1 step 3(b)ii).  Predictions
come from the template's estimator:

- ``mean`` — sample mean of the stored datum with a Student-t prediction
  interval (incremental moments serve the common elapsed==0 case; the
  conditioned case filters points whose total run time is at least the
  elapsed time);
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
:meth:`Category.add`.  A miss fits the same values, in the same order,
with the same arithmetic as a filter over the history would, so the
memoised answer is the same to the bit: the regressions make the same
NumPy calls, and the mean's kernel
(:func:`~repro.stats.ci.mean_confidence_interval`) makes the same
pairwise sums as NumPy's ``mean``/``std``, without their Python-level
wrappers.  A mean miss gathers only the values; node counts are
gathered for the regressions alone.  Scaling, the regression's
evaluation at the queried job's nodes and the floor at ``elapsed`` are
applied per call.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.stats.ci import RunningMoments, mean_confidence_interval
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
        self._points: deque[DataPoint] = deque()
        self._moments = RunningMoments()
        # Run times in ascending order: the count of points qualifying
        # for an elapsed time is one bisection away.
        self._sorted_run_times: list[float] = []
        # (qualifying count, confidence) -> unscaled statistic, or None
        # for a failed fit.  Valid until the next add.
        self._memo: dict[tuple[int, float], object] = {}
        # (run_time, value, nodes) columns in insertion order, built on
        # the first memo miss after a mutation.
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Elapsed-conditioned memo hits and misses, and the history
        #: points those misses scanned; plain ints, folded by
        #: SmithPredictor.obs_stats().  Unconditioned lookups (the
        #: regressions at elapsed 0, which the audit re-derives) are not
        #: counted, so auditing leaves the tallies unchanged.
        self.memo_hits = 0
        self.memo_misses = 0
        self.points_scanned = 0

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        return tuple(self._points)

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
        run_times = self._sorted_run_times
        if limit is not None and len(self._points) >= limit:
            old = self._points.popleft()
            self._moments.remove(old.value)
            del run_times[bisect_left(run_times, old.run_time)]
        self._points.append(DataPoint(run_time=job.run_time, nodes=job.nodes, value=value))
        insort(run_times, job.run_time)
        self._moments.add(value)
        self._memo.clear()
        self._columns = None

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
            est, hw = self._moments.interval(confidence)
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

    def _statistic(self, elapsed: float, confidence: float):
        """The unscaled statistic over the points qualifying for ``elapsed``.

        ``values[run_times >= elapsed]`` is the contiguous float64 array
        ``np.asarray`` builds from the filtered points, so the fit sees
        exactly the operands a per-call filter would.
        """
        columns = self._columns
        if columns is None:
            pts = self._points
            columns = self._columns = (
                np.array([p.run_time for p in pts], dtype=float),
                np.array([p.value for p in pts], dtype=float),
                np.array([p.nodes for p in pts], dtype=float),
            )
        run_times, values, nodes = columns
        kind = self.template.estimator
        if elapsed > 0.0:
            self.points_scanned += len(run_times)
            mask = run_times >= elapsed
            values = values[mask]
            if kind != "mean":  # only the regressions read node counts
                nodes = nodes[mask]
        if kind == "mean":
            return mean_confidence_interval(values, confidence)
        try:
            return _FITTERS[kind](nodes, values)
        except ValueError:
            return None
