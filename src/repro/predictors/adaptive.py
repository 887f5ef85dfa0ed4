"""Online-learning run-time predictors.

The historical predictors of this package (Smith, Gibbons, Downey) keep
a *static* model shape — a fixed template set or parametric family — and
append completed jobs to stored per-category histories.  The predictors
here treat every completion as an O(1) **model update** over the same
template structure: an incremental mean, a recursive least-squares
regression, or an exponentially decayed mean whose recent completions
dominate.  No per-job history is retained — state per category is a
handful of floats — and jobs no template covers are served from a global
pool instead of punting to the fallback chain (whose user-maximum link
overestimates by an order of magnitude during ramp-up).

They are the learning side of the misprediction-cost loop
(:mod:`repro.experiments.misprediction`): the harness measures what
prediction error costs the scheduler, these predictors are how the error
is driven down online.

All three honor the epoch contract of :mod:`repro.predictors.base`:

- ``predict`` is a pure function of ``(job, elapsed)`` at fixed history
  (the ``elapsed`` dependence is delegated to
  :class:`~repro.predictors.base.PointEstimator`'s final clamp, so
  ``elapsed_invariant`` is ``True``);
- every :meth:`on_finish` that changes prediction-visible state bumps
  ``history_epoch``, which is exactly when the simulator's cross-pass
  estimate cache must flush.

The contract is enforced for any conforming predictor by the property
suite in ``tests/test_properties_epoch_contract.py``.

Every interval is built at the paper's 90%,
:data:`~repro.stats.ci.CONFIDENCE`.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.predictors.base import Prediction, RuntimePredictor
from repro.predictors.templates import Template, default_templates
from repro.stats.ci import CONFIDENCE, RunningMoments, t_quantile
from repro.workloads.job import Job, Trace

__all__ = [
    "OnlineMeanPredictor",
    "OnlineRegressionPredictor",
    "DecayedMeanPredictor",
]

#: Minimum observations before a group serves a prediction (a variance,
#: and hence an interval, needs two points).
_MIN_POINTS = 2
#: Seed of the recursive least squares' inverse Gram matrix: ``P``
#: starts at ``(1/_RIDGE) · I``.
_RIDGE = 1e-4
#: The decayed mean's per-completion weight multiplier (≈ a 20-job
#: memory).
_DECAY = 0.95


class _GroupedOnlinePredictor(RuntimePredictor):
    """Shared plumbing: per-(template, category) state + a global pool.

    Subclasses implement :meth:`_new_group` (fresh per-category state),
    :meth:`_ingest` (fold one completed job's datum into a group) and
    :meth:`_estimate` (turn a group's state into ``(estimate,
    half_width)`` or ``None``).  Prediction follows Smith's rule — every
    matching category offers an interval, the tightest wins — but over
    streaming state instead of stored points.  Jobs no category covers
    fall to the global pool, so an adaptive predictor serves *some*
    prediction as soon as two jobs have completed.

    Relative templates store the ``run_time / max_run_time`` ratio and
    scale predictions back by the queried job's own maximum, exactly as
    :class:`repro.predictors.category.Category` does.
    """

    def __init__(self, templates: Iterable[Template] | None = None) -> None:
        tpl = list(templates) if templates is not None else default_templates(None)
        if not tpl:
            raise ValueError(f"{type(self).__name__} requires at least one template")
        self.templates: tuple[Template, ...] = tuple(tpl)
        self.history_epoch = 0
        self.updates = 0
        self._groups: dict[tuple[int, tuple], object] = {}
        self._global: object = self._new_group()

    @classmethod
    def for_trace(cls, trace: Trace) -> "_GroupedOnlinePredictor":
        """A predictor with the curated default templates for a trace."""
        has_max = any(j.max_run_time is not None for j in trace)
        return cls(default_templates(trace.available_fields, has_max_run_time=has_max))

    # -- subclass surface ----------------------------------------------
    def _new_group(self) -> object:
        raise NotImplementedError

    def _ingest(self, group: object, value: float, job: Job) -> None:
        raise NotImplementedError

    def _estimate(self, group: object, job: Job) -> tuple[float, float] | None:
        raise NotImplementedError

    # -- RuntimePredictor protocol -------------------------------------
    elapsed_invariant = True

    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        best: tuple[float, float, int] | None = None  # (half_width, estimate, idx)
        for idx, template in enumerate(self.templates):
            key = template.category_key(job)
            if key is None:
                continue
            group = self._groups.get((idx, key))
            if group is None:
                continue
            result = self._estimate(group, job)
            if result is None:
                continue
            est, hw = result
            if template.relative:
                # category_key returned non-None, so max_run_time is set.
                est *= job.max_run_time
                hw *= job.max_run_time
            if best is None or hw < best[0]:
                best = (hw, est, idx)
        if best is not None:
            hw, est, idx = best
            return Prediction(
                estimate=max(est, 0.0),
                interval=max(hw, 0.0),
                source=f"{self.name}:{self.templates[idx].describe()}",
            )
        result = self._estimate(self._global, job)
        if result is None:
            return None
        est, hw = result
        return Prediction(
            estimate=max(est, 0.0),
            interval=max(hw, 0.0),
            source=f"{self.name}:global",
        )

    def on_finish(self, job: Job, now: float) -> None:
        for idx, template in enumerate(self.templates):
            key = template.category_key(job)
            if key is None:
                continue
            group = self._groups.get((idx, key))
            if group is None:
                group = self._groups[(idx, key)] = self._new_group()
            value = (
                job.run_time / job.max_run_time if template.relative else job.run_time
            )
            self._ingest(group, value, job)
        self._ingest(self._global, job.run_time, job)
        self.updates += 1
        # Every completion moves the global pool, hence some prediction.
        self.history_epoch += 1

    @property
    def group_count(self) -> int:
        return len(self._groups)


class OnlineMeanPredictor(_GroupedOnlinePredictor):
    """Streaming Smith: per-category Welford means, smallest-CI selection.

    For unbounded mean templates and queued jobs (``elapsed == 0``) the
    served estimates match :class:`~repro.predictors.smith.SmithPredictor`
    over the same template set bit-for-bit — the moments are the same
    arithmetic — while storing no points and additionally covering the
    ramp-up jobs Smith cannot (global pool instead of the fallback
    chain).
    """

    name = "online-mean"

    def _new_group(self) -> RunningMoments:
        return RunningMoments()

    def _ingest(self, group: RunningMoments, value: float, job: Job) -> None:
        group.add(value)

    def _estimate(self, group: RunningMoments, job: Job) -> tuple[float, float] | None:
        if group.count < _MIN_POINTS:
            return None
        return group.interval()


class _RLSState:
    """Recursive least squares of the datum on ``[1, log1p(nodes)]``.

    Sherman-Morrison updates of the inverse Gram matrix ``P`` keep each
    completion O(d²) with d = 2; ``P`` starts at ``(1/_RIDGE) · I``,
    i.e. a ridge-seeded regression that stays defined before the design
    matrix has full rank.  The accumulated *a priori* residuals feed the
    prediction interval — out-of-sample error is what the next job sees.
    """

    __slots__ = ("p00", "p01", "p11", "t0", "t1", "n", "rss")

    def __init__(self) -> None:
        self.p00 = 1.0 / _RIDGE
        self.p01 = 0.0
        self.p11 = 1.0 / _RIDGE
        self.t0 = 0.0  # theta (coefficients)
        self.t1 = 0.0
        self.n = 0
        self.rss = 0.0

    @staticmethod
    def features(job: Job) -> tuple[float, float]:
        return 1.0, math.log1p(job.nodes)

    def update(self, value: float, job: Job) -> None:
        x0, x1 = self.features(job)
        # k = P x / (1 + x' P x)
        px0 = self.p00 * x0 + self.p01 * x1
        px1 = self.p01 * x0 + self.p11 * x1
        denom = 1.0 + x0 * px0 + x1 * px1
        k0 = px0 / denom
        k1 = px1 / denom
        err = value - (self.t0 * x0 + self.t1 * x1)
        self.rss += err * err / denom
        self.t0 += k0 * err
        self.t1 += k1 * err
        # P <- P - k (x' P)
        self.p00 -= k0 * px0
        self.p01 -= k0 * px1
        self.p11 -= k1 * px1
        self.n += 1

    def estimate(self, job: Job) -> tuple[float, float] | None:
        if self.n < 3:  # 2 coefficients + 1 residual degree of freedom
            return None
        x0, x1 = self.features(job)
        est = self.t0 * x0 + self.t1 * x1
        df = self.n - 2
        sigma2 = self.rss / df
        # x' P x approximates the leverage term of the OLS interval.
        px0 = self.p00 * x0 + self.p01 * x1
        px1 = self.p01 * x0 + self.p11 * x1
        leverage = max(x0 * px0 + x1 * px1, 0.0)
        hw = t_quantile(df, 0.5 + CONFIDENCE / 2.0) * math.sqrt(sigma2 * (1.0 + leverage))
        return est, hw


class OnlineRegressionPredictor(_GroupedOnlinePredictor):
    """Per-category recursive least squares over template features.

    The streaming counterpart of Smith's ``linear``/``log`` template
    estimators: within each category the datum is regressed on
    ``log1p(nodes)`` and updated per completion in O(1) — no refit, no
    stored points — so node-count trends inside a category (bigger jobs
    run longer/shorter) sharpen the plain category mean.
    """

    name = "online-rls"

    def _new_group(self) -> _RLSState:
        return _RLSState()

    def _ingest(self, group: _RLSState, value: float, job: Job) -> None:
        group.update(value, job)

    def _estimate(self, group: _RLSState, job: Job) -> tuple[float, float] | None:
        return group.estimate(job)


class _DecayedMoments:
    """Exponentially decayed weighted mean / variance.

    Every new observation multiplies all previous weights by ``_DECAY``;
    the effective sample size ``(Σw)² / Σw²`` replaces ``n`` in the
    t-interval, so a group whose history has decayed to ~k jobs is as
    uncertain as one that only ever saw k.
    """

    __slots__ = ("w_sum", "w2_sum", "mean", "s")

    def __init__(self) -> None:
        self.w_sum = 0.0
        self.w2_sum = 0.0
        self.mean = 0.0
        self.s = 0.0  # weighted sum of squared deviations

    def add(self, x: float) -> None:
        self.w_sum *= _DECAY
        self.w2_sum *= _DECAY * _DECAY
        self.s *= _DECAY
        self.w_sum += 1.0
        self.w2_sum += 1.0
        delta = x - self.mean
        self.mean += delta / self.w_sum
        self.s += delta * (x - self.mean)

    @property
    def n_eff(self) -> float:
        if self.w2_sum <= 0.0:
            return 0.0
        return self.w_sum * self.w_sum / self.w2_sum

    def interval(self) -> tuple[float, float] | None:
        n_eff = self.n_eff
        if n_eff < _MIN_POINTS:
            return None
        var = max(self.s / self.w_sum, 0.0) * n_eff / (n_eff - 1.0)
        df = max(int(n_eff) - 1, 1)
        hw = (
            t_quantile(df, 0.5 + CONFIDENCE / 2.0)
            * math.sqrt(var)
            * math.sqrt(1.0 + 1.0 / n_eff)
        )
        return self.mean, hw


class DecayedMeanPredictor(_GroupedOnlinePredictor):
    """Recency-weighted category means: recent completions dominate.

    Each completion multiplies the weights of the earlier ones by
    ``_DECAY`` (0.95 ≈ a ~20-job memory).  This is the variant that
    tracks workload drift — the regime ``AccuracyMonitor``'s
    ``drift_ratio`` flags on frozen predictors.
    """

    name = "decayed-mean"

    def _new_group(self) -> _DecayedMoments:
        return _DecayedMoments()

    def _ingest(self, group: _DecayedMoments, value: float, job: Job) -> None:
        group.add(value)

    def _estimate(self, group: _DecayedMoments, job: Job) -> tuple[float, float] | None:
        return group.interval()
