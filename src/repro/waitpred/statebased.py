"""State-based queue wait-time prediction (the paper's §5 future work).

The paper closes by proposing an alternative to forward simulation:

    "This method will use the current state of the scheduling system
    (number of applications in each queue, time of day, etc.) and
    historical information on queue wait times during similar past
    states to predict queue wait times.  We hope this technique will
    improve wait-time prediction error, particularly for the LWF
    algorithm, which has a large built-in error using the technique
    presented here."

This module implements that method with the same machinery as the
run-time predictor: *state templates* name the features of the
(scheduler state, job) pair that make two submission instants similar;
observed waits accumulate in per-template categories; the prediction is
the mean of the category with the smallest confidence interval.

Features (all discretized):

- ``qlen``  — number of queued jobs, log2-binned;
- ``qwork`` — total queued estimated work (node-seconds), log10-binned;
- ``free``  — free-node fraction, quartile-binned;
- ``nodes`` — the submitted job's node request, exponentially binned;
- ``rt``    — the submitted job's estimated run time, log10-binned;
- ``tod``   — time of day, 6-hour bins;
- ``dow``   — weekday vs. weekend.

Because a job's wait is only known when it starts, insertion happens at
start time; like the run-time predictor, the technique has a ramp-up
phase during which a fallback (the running mean of observed waits) is
used.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs import Instrumentation
from repro.predictors.base import PointEstimator
from repro.scheduler.simulator import EstimateMemo
from repro.stats.ci import RunningMoments
from repro.utils.timeutils import DAY, HOUR
from repro.workloads.job import Job

__all__ = [
    "StateFeatures",
    "StateTemplate",
    "DEFAULT_STATE_TEMPLATES",
    "StateBasedWaitPredictor",
]

_FEATURE_NAMES = ("qlen", "qwork", "free", "nodes", "rt", "tod", "dow")


@dataclass(frozen=True)
class StateFeatures:
    """Discretized features of one submission instant."""

    qlen: int
    qwork: int
    free: int
    nodes: int
    rt: int
    tod: int
    dow: int

    @classmethod
    def extract(
        cls,
        *,
        now: float,
        queued_count: int,
        queued_work: float,
        free_nodes: int,
        total_nodes: int,
        job_nodes: int,
        job_runtime_estimate: float,
    ) -> "StateFeatures":
        return cls(
            qlen=_log2_bin(queued_count),
            qwork=_log10_bin(queued_work),
            free=min(int(4.0 * free_nodes / total_nodes), 3),
            nodes=_log2_bin(job_nodes),
            rt=_log10_bin(job_runtime_estimate),
            tod=int((now % DAY) // (6 * HOUR)),
            dow=1 if int(now // DAY) % 7 >= 5 else 0,
        )

    def key(self, features: Sequence[str]) -> tuple:
        return tuple(getattr(self, f) for f in features)


def _log2_bin(value: float) -> int:
    """Bin ``value`` by magnitude: 0 for < 1, else floor(log2) + 1.

    Integer bit-length arithmetic instead of ``int(math.log2(value))``:
    float log2 can land *exact* powers of two one bin off depending on
    the platform's libm rounding (e.g. ``log2(2**29)`` evaluating to
    28.999...), and a paper-reproduction category scheme must bin
    identically everywhere.  ``int(value)`` is exact for every float,
    and ``bit_length`` of the truncated integer is exactly
    ``floor(log2(value)) + 1`` for ``value >= 1``.
    """
    if value < 1:
        return 0
    return int(value).bit_length()


def _log10_bin(value: float) -> int:
    """Bin ``value`` by decade: 0 for < 1, else floor(log10) + 1.

    ``int(math.log10(value))`` suffers the same platform-dependent
    boundary instability as ``log2`` (``log10(1000)`` evaluating to
    2.999... puts an exact power in the previous decade); the exponent
    is corrected against exact powers of ten, which are exactly
    representable as floats well past the 10**12 range the features use.
    """
    if value < 1:
        return 0
    exponent = int(math.log10(value))
    # Re-anchor on exact powers: libm error is far below one decade, so
    # at most one step of correction in either direction is needed.
    if 10.0 ** (exponent + 1) <= value:
        exponent += 1
    elif 10.0 ** exponent > value:
        exponent -= 1
    return exponent + 1


@dataclass(frozen=True)
class StateTemplate:
    """A similarity template over scheduler-state features."""

    features: tuple[str, ...] = ()
    max_history: int | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for f in self.features:
            if f not in _FEATURE_NAMES:
                raise ValueError(
                    f"unknown state feature {f!r}; expected one of {_FEATURE_NAMES}"
                )
            if f in seen:
                raise ValueError(f"duplicate state feature {f!r}")
            seen.add(f)
        if self.max_history is not None and self.max_history < 2:
            raise ValueError("max_history must be >= 2")

    def describe(self) -> str:
        return "(" + ", ".join(self.features) + ")"


#: A reasonable default set: overall state, per-size state, diurnal state.
DEFAULT_STATE_TEMPLATES: tuple[StateTemplate, ...] = (
    StateTemplate(()),
    StateTemplate(("qlen",)),
    StateTemplate(("qlen", "free")),
    StateTemplate(("qlen", "nodes")),
    StateTemplate(("qwork", "nodes")),
    StateTemplate(("qlen", "qwork", "nodes")),
    StateTemplate(("qlen", "tod")),
    StateTemplate(("qlen", "nodes", "rt")),
)


class _WaitCategory:
    """Bounded history of observed waits with incremental moments."""

    def __init__(self, max_history: int | None) -> None:
        self.max_history = max_history
        self._values: deque[float] = deque()
        self._moments = RunningMoments()

    def add(self, wait: float) -> None:
        if self.max_history is not None and len(self._values) >= self.max_history:
            self._moments.remove(self._values.popleft())
        self._values.append(wait)
        self._moments.add(wait)

    def interval(self, confidence: float) -> tuple[float, float] | None:
        if self._moments.count < 2:
            return None
        return self._moments.interval(confidence)

    def __len__(self) -> int:
        return len(self._values)


class StateBasedWaitPredictor:
    """Wait-time prediction from similar past scheduler states.

    Attach to a :class:`repro.scheduler.Simulator` as an observer, like
    :class:`repro.waitpred.predictor.WaitTimePredictor`; the two expose
    the same ``predicted_waits`` mapping, so
    :func:`repro.waitpred.evaluation.evaluate_wait_predictions` scores
    both.

    ``runtime_estimator`` supplies the job's run-time estimate used as
    the ``rt`` feature (the templates decide whether it matters).
    """

    def __init__(
        self,
        runtime_estimator: PointEstimator,
        *,
        templates: Iterable[StateTemplate] = DEFAULT_STATE_TEMPLATES,
        confidence: float = 0.90,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.templates: tuple[StateTemplate, ...] = tuple(templates)
        if not self.templates:
            raise ValueError("at least one state template required")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        self.runtime_estimator = runtime_estimator
        self.confidence = confidence
        self.predicted_waits: dict[int, float] = {}
        self._categories: dict[tuple[int, tuple], _WaitCategory] = {}
        self._pending: dict[int, tuple[float, StateFeatures]] = {}
        self._wait_moments = RunningMoments()
        #: Per-job runtime estimates feeding the qwork/rt features, valid
        #: while the estimator's history_epoch is unchanged.  Keeps a
        #: burst of submissions at O(queue) instead of O(queue^2)
        #: estimator calls; estimators without an epoch (or volatile
        #: ones) are re-predicted at every submission.
        self._estimates = EstimateMemo()
        obs = instrumentation if instrumentation is not None else Instrumentation()
        self.obs = obs
        reg = obs.registry
        self._tracer = obs.tracer
        self._audit = obs.audit
        self._c_predictions = reg.counter("statebased.predictions")
        self._c_rampup = reg.counter("statebased.rampup_fallbacks")
        self._c_observations = reg.counter("statebased.observations")
        self._g_categories = reg.gauge("statebased.categories")

    # ------------------------------------------------------------------
    def _features(self, view, job: Job) -> StateFeatures:
        now = view.now
        estimator = self.runtime_estimator
        cache = self._estimates.sync(estimator)
        if cache is None:
            cache = {}
        queued_work = 0.0
        for qj in view.queued:
            if qj.job_id == job.job_id:
                continue
            est = cache.get(qj.job_id)
            if est is None:
                est = estimator.predict(qj.job, 0.0, now)
                cache[qj.job_id] = est
            # Multiply per use (cheap, deterministic) rather than caching
            # the product, so the qwork sum is bit-identical to the
            # uncached path.
            queued_work += qj.job.nodes * est
        job_estimate = cache.get(job.job_id)
        if job_estimate is None:
            job_estimate = estimator.predict(job, 0.0, now)
            cache[job.job_id] = job_estimate
        return StateFeatures.extract(
            now=now,
            queued_count=max(len(view.queued) - 1, 0),  # exclude the new job
            queued_work=queued_work,
            free_nodes=view.free_nodes,
            total_nodes=view.total_nodes,
            job_nodes=job.nodes,
            job_runtime_estimate=job_estimate,
        )

    def predict_from_features(self, features: StateFeatures) -> float | None:
        """Smallest-CI category mean across templates, or ``None``."""
        result = self._predict_with_source(features)
        return None if result is None else result[0]

    def _predict_with_source(
        self, features: StateFeatures
    ) -> tuple[float, str] | None:
        """The prediction plus the winning template's description (for
        the audit trail's per-template drill-down)."""
        best: tuple[float, float, int] | None = None  # (half width, est, idx)
        for idx, template in enumerate(self.templates):
            cat = self._categories.get((idx, features.key(template.features)))
            if cat is None:
                continue
            result = cat.interval(self.confidence)
            if result is None:
                continue
            est, hw = result
            if best is None or hw < best[0]:
                best = (hw, est, idx)
        if best is None:
            return None
        return max(best[1], 0.0), self.templates[best[2]].describe()

    # ------------------------------------------------------------------
    # observer hooks
    # ------------------------------------------------------------------
    def on_submit(self, view, qj) -> None:
        features = self._features(view, qj.job)
        result = self._predict_with_source(features)
        rampup = result is None
        if rampup:
            # Ramp-up fallback: the running mean of all observed waits.
            predicted = (
                self._wait_moments.mean if self._wait_moments.count > 0 else 0.0
            )
            source = "rampup"
            self._c_rampup.value += 1
        else:
            predicted, source = result
        self._c_predictions.value += 1
        self.predicted_waits[qj.job_id] = predicted
        self._pending[qj.job_id] = (view.now, features)
        if self._audit is not None:
            # The audit emits the (richer) wait_predicted event itself
            # and will pair it with the realized wait at start.
            self._audit.record_wait(
                qj.job_id,
                view.now,
                predicted,
                predictor="state-based",
                source=source,
            )
        elif self._tracer.enabled:
            self._tracer.emit(
                "wait_predicted",
                sim_time=view.now,
                job_id=qj.job_id,
                cause="rampup_fallback" if rampup else "state_category",
                predicted_wait_s=predicted,
            )

    def on_start(self, view, job: Job) -> None:
        entry = self._pending.pop(job.job_id, None)
        if entry is None:
            return  # job predates the observer's attachment
        submitted_at, features = entry
        wait = view.now - submitted_at
        self._wait_moments.add(wait)
        for idx, template in enumerate(self.templates):
            key = (idx, features.key(template.features))
            cat = self._categories.get(key)
            if cat is None:
                cat = self._categories[key] = _WaitCategory(template.max_history)
            cat.add(wait)
        self._c_observations.value += 1
        self._g_categories.set(len(self._categories))
        # The job has left the queue; under an epoch-frozen estimator its
        # memoized estimate would otherwise linger forever.
        self._estimates.memo.pop(job.job_id, None)

    def on_finish(self, view, job: Job) -> None:
        # Keep the run-time estimator's history current for the rt feature.
        self.runtime_estimator.on_finish(job, view.now)

    @property
    def category_count(self) -> int:
        return len(self._categories)
