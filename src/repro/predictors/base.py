"""Predictor protocol and the scheduler-facing point-estimate adapter.

A :class:`RuntimePredictor` produces a rich :class:`Prediction` (estimate
plus confidence-interval half-width) or ``None`` when it has no basis for
one — e.g. the Smith predictor during its ramp-up, before any similar job
has completed (paper §2.1).  The scheduler, by contrast, always needs *a*
number.  :class:`PointEstimator` bridges the two with the fallback chain
the experiments use:

    predictor → user-supplied max run time → running mean of all
    completed jobs → a fixed default

and clamps every estimate to at least the elapsed run time, since a job
that has already run ``a`` seconds cannot finish sooner.

Estimate epochs
---------------
Predictors are pure functions of ``(job, elapsed)`` given a fixed
history; only the lifecycle hooks change history.  :class:`PointEstimator`
therefore exposes a ``history_epoch`` counter that it bumps whenever the
wrapped predictor's history (or its own fallback statistics) may have
changed.  :class:`repro.scheduler.simulator.EstimateMemo` keys queued-job
(elapsed-0) estimates on the epoch, so the simulator, the wait-time
freezes and the state-based predictor recompute a queue only when the
epoch moves — which is exact precisely because of that purity.
An estimator whose predictions vary with wall-clock time or call count
must not advertise an epoch: one whose ``history_epoch`` is ``None`` or
absent is re-predicted on every pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from repro.workloads.job import Job

__all__ = ["Prediction", "RuntimePredictor", "PointEstimator", "warm_start"]

#: The fallback chain's links, in the order they are tried.
LINKS = ("predicted", "fallback_max", "fallback_mean", "fallback_default")
#: Links that consume the running mean (the default gives way to it at
#: the first completion, so it counts too).
_MEAN_LINKS = frozenset(LINKS[2:])


def warm_start(predictor: RuntimePredictor, jobs) -> RuntimePredictor:
    """Pre-load a predictor's history from a training set.

    The paper notes (§2.1) that the initial ramp-up — no predictions
    until similar jobs have completed — "could be corrected by using a
    training set to initialize C".  This feeds every job of ``jobs``
    (e.g. a prefix trace) to the predictor's completion hook, in order,
    and returns the predictor for chaining.
    """
    for job in jobs:
        predictor.on_finish(job, job.submit_time + job.run_time)
    return predictor


class _PredictionFields(NamedTuple):
    estimate: float
    interval: float
    source: str = ""


class Prediction(_PredictionFields):
    """A run-time estimate with its confidence interval half-width.

    An immutable named tuple, equal by value, whose constructor checks
    the interval; a tuple because Smith builds one per contest.
    """

    __slots__ = ()

    def __new__(cls, estimate: float, interval: float, source: str = "") -> Prediction:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        return tuple.__new__(cls, (estimate, interval, source))


class RuntimePredictor(ABC):
    """Interface all run-time predictors implement.

    ``elapsed`` is how long the job has been executing when the prediction
    is requested (0.0 for queued jobs); history-based predictors condition
    on it.  Lifecycle hooks mirror the simulator's estimator protocol;
    only :meth:`on_finish` matters to the historical predictors, which
    insert a data point as soon as a job completes (§2.1 step 3).
    """

    name: str = "predictor"

    #: Monotone counter of prediction-visible history changes, or ``None``
    #: when the predictor does not track one.  A predictor that returns an
    #: int here promises its ``predict`` output for any fixed
    #: ``(job, elapsed)`` is unchanged while the value is unchanged;
    #: :class:`PointEstimator` then keys its cache-invalidation epoch on
    #: it instead of pessimistically bumping whenever a lifecycle hook is
    #: overridden.
    history_epoch: int | None = None

    #: ``True`` promises ``predict``'s output ignores ``elapsed`` and
    #: ``now`` entirely (given fixed history): the prediction for a
    #: running job equals the prediction made while it was queued.  The
    #: simulator then serves running-job remaining times from its
    #: cross-pass cache instead of re-predicting each pass.  Predictors
    #: that condition on elapsed run time (Smith/category, Downey,
    #: Gibbons) must leave this ``False``.
    elapsed_invariant: bool = False

    @abstractmethod
    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        """Predict the job's total run time, or ``None`` if impossible."""

    # Lifecycle hooks are deliberate no-ops here, NOT excluded from
    # coverage: adaptive predictors override them, and the signature
    # tests in tests/test_predictors_simple_base.py pin their shape so
    # an override that drifts (extra argument, renamed parameter) fails
    # loudly instead of silently never being called.
    def on_submit(self, job: Job, now: float) -> None:
        pass

    def on_start(self, job: Job, now: float) -> None:
        pass

    def on_finish(self, job: Job, now: float) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PointEstimator:
    """Adapt a :class:`RuntimePredictor` into a scheduler estimator.

    Implements the ``predict(job, elapsed, now) -> float`` protocol of
    :mod:`repro.scheduler.simulator` plus the lifecycle hooks, forwarding
    them to the wrapped predictor so its history stays current.
    :meth:`resolve` is the one place the fallback chain is walked;
    ``predict``, the prediction audit and the many-worlds encoder all
    go through it.
    """

    def __init__(
        self,
        predictor: RuntimePredictor,
        *,
        default: float = 600.0,
        instrumentation=None,
    ) -> None:
        if default <= 0:
            raise ValueError(f"default must be positive, got {default}")
        self.predictor = predictor
        self.default = default
        self._completed_sum = 0.0
        self._completed_count = 0
        self._epoch = 0
        # Fallback-chain tallies, one per link, exported via obs_stats()
        # for the metrics snapshot.
        self.predict_calls = 0
        self.link_counts = dict.fromkeys(LINKS, 0)
        # Submit/start hooks are no-ops on the RuntimePredictor base; only
        # bump the epoch for predictors that actually override them, so a
        # start does not needlessly flush the simulator's estimate cache.
        ptype = type(predictor)
        # A predictor with its own history_epoch is trusted to report its
        # changes; otherwise assume any overridden lifecycle hook mutates
        # prediction-visible state and bump pessimistically.
        self._pred_tracks_epoch = (
            getattr(predictor, "history_epoch", None) is not None
        )
        self._bump_on_submit = not self._pred_tracks_epoch and (
            getattr(ptype, "on_submit", None) is not RuntimePredictor.on_submit
        )
        self._bump_on_start = not self._pred_tracks_epoch and (
            getattr(ptype, "on_start", None) is not RuntimePredictor.on_start
        )
        self._bump_on_finish = not self._pred_tracks_epoch and (
            getattr(ptype, "on_finish", None) is not RuntimePredictor.on_finish
        )
        # A completion always moves the running-mean fallback, but that
        # only invalidates cached estimates if some prediction since the
        # last bump actually consumed the mean; track consumption so
        # static predictors (user maxima, actual run times) keep a
        # permanently valid cache.
        self._mean_used = False
        self._audit = getattr(instrumentation, "audit", None)

    @property
    def name(self) -> str:
        return self.predictor.name

    @property
    def history_epoch(self) -> object | None:
        """Monotone marker; unchanged value means unchanged predictions.

        When the wrapped predictor tracks its own epoch the marker
        combines it with the adapter's fallback epoch, and is ``None``
        (no cross-pass caching) while the predictor's is.
        """
        if self._pred_tracks_epoch:
            pred_epoch = self.predictor.history_epoch
            if pred_epoch is None:
                return None
            return (self._epoch, pred_epoch)
        return self._epoch

    def resolve(
        self, job: Job, elapsed: float, now: float
    ) -> tuple[float, str, Prediction | None]:
        """``(estimate, link, rich)``: the fallback chain, side-effect free.

        ``link`` names the chain link that produced the estimate (one of
        :data:`LINKS`) and ``rich`` is the predictor's own
        :class:`Prediction`, ``None`` when it abstained.  The estimate
        is clamped to ``elapsed``.  No tally, epoch or cache signal
        moves, so the audit and the many-worlds engine can ask freely.
        """
        rich = self.predictor.predict(job, elapsed, now)
        if rich is not None:
            est, link = rich.estimate, "predicted"
        elif job.max_run_time is not None:
            est, link = job.max_run_time, "fallback_max"
        elif self._completed_count > 0:
            est, link = self._completed_sum / self._completed_count, "fallback_mean"
        else:
            est, link = self.default, "fallback_default"
        return max(est, elapsed), link, rich

    def predict(self, job: Job, elapsed: float, now: float) -> float:
        """:meth:`resolve`'s estimate, tallied under its link."""
        est, link, _ = self.resolve(job, elapsed, now)
        self.predict_calls += 1
        self.link_counts[link] += 1
        if link in _MEAN_LINKS:
            self._mean_used = True
        return est

    def obs_stats(self) -> dict[str, int]:
        """Fallback-chain counters, keyed for the metrics snapshot.

        A wrapped predictor defining ``obs_stats()`` (the Smith
        predictor's elapsed-memo tallies) contributes its counters under
        ``predictor.*``.
        """
        stats = {
            "predict_calls": self.predict_calls,
            **self.link_counts,
            "history_epoch_bumps": self._epoch,
        }
        inner = getattr(self.predictor, "obs_stats", None)
        if inner is not None:
            for key, value in inner().items():
                stats[f"predictor.{key}"] = value
        return stats

    @property
    def elapsed_invariant(self) -> bool:
        """``predict(job, e, t)`` equals ``max(predict(job, 0, t'), e)``.

        Holds at fixed epoch when the wrapped predictor ignores elapsed
        and now: the fallback chain doesn't consult them, leaving
        the final ``max(est, elapsed)`` clamp as the only dependence.
        """
        return self.predictor.elapsed_invariant

    def on_submit(self, job: Job, now: float) -> None:
        if self._bump_on_submit:
            self._epoch += 1
        self.predictor.on_submit(job, now)
        if self._audit is not None:
            # resolve() leaves tallies and the cache signal alone, so
            # obs_stats() and the epoch sequence ignore the audit.
            est, link, rich = self.resolve(job, 0.0, now)
            source = rich.source if rich is not None else ""
            self._audit.record_runtime(
                job.job_id, now, est, predictor=self.name, source=source or link
            )

    def on_start(self, job: Job, now: float) -> None:
        if self._bump_on_start:
            self._epoch += 1
        self.predictor.on_start(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        if self._bump_on_finish or self._mean_used:
            self._epoch += 1
            self._mean_used = False
        self._completed_sum += job.run_time
        self._completed_count += 1
        self.predictor.on_finish(job, now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointEstimator({self.predictor!r})"
