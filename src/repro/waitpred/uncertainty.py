"""Wait-time prediction *intervals* by propagating run-time uncertainty.

The paper's predictor produces a confidence interval alongside every
run-time estimate (§2.1) but the wait-time technique only consumes the
point value.  This extension propagates the uncertainty: sample each
job's run time from its prediction interval, forward-simulate the
scheduler over every sampled world (using the exact analytic shortcuts
where available), and report percentiles of the resulting wait — the
kind of answer a resource-selection broker actually needs ("90% chance
the job starts within 40 minutes").

Jobs whose prediction came from the fallback chain (no interval
information) keep their point estimate with zero spread.  A job the
predictor covers is predicted once per query: the rich prediction
supplies both the point value and the interval.  A job the predictor
abstains on is asked twice, the second time through the estimator's
fallback chain, so its fallback tallies count it as the scheduler would.

The sampled worlds are planned by the vectorized many-worlds engine
(:mod:`repro.waitpred.manyworlds`): all ``samples`` worlds advance at
once through a batched availability profile, so interval queries with
hundreds of samples cost a handful of array passes rather than hundreds
of scalar replays.

Determinism contract
--------------------
``seed`` may be an int or an ``np.random.Generator``.  An int seeds a
fresh generator, so equal ``(snapshot, policy, estimator history, seed,
samples)`` always produce equal intervals — bit-identical to the scalar
per-world loop the engine replaced (the parity suite in
``tests/test_properties_uncertainty.py`` enforces this).  A Generator is
used in place without re-wrapping: its stream advances by exactly one
``standard_normal((samples, k))`` fill (k = jobs with interval
information), letting callers thread one stream through many queries
reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.predictors.base import PointEstimator
from repro.scheduler.policies.base import Policy
from repro.scheduler.simulator import SystemSnapshot
from repro.utils.rng import rng_from_seed
from repro.waitpred.manyworlds import (
    encode_snapshot,
    predict_starts_batch,
    sample_durations,
)

__all__ = ["WaitInterval", "predict_wait_interval"]


@dataclass(frozen=True)
class WaitInterval:
    """Percentiles of the predicted wait over sampled run-time worlds."""

    median: float
    lo: float
    hi: float
    confidence: float
    samples: int
    #: The full per-world wait vector the percentiles were cut from,
    #: retained so brokers can ask distribution questions directly.
    wait_samples: tuple[float, ...] = field(default=(), repr=False)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mean(self) -> float:
        """Mean predicted wait over the sampled worlds."""
        if not self.wait_samples:
            raise ValueError("wait samples were not retained")
        return float(np.mean(self.wait_samples))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sampled waits (0 <= q <= 100).

        ``percentile(90.0)`` answers "the job starts within X with 90%
        confidence" without re-deriving X from ``lo``/``hi``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.wait_samples:
            raise ValueError("wait samples were not retained")
        return float(np.percentile(self.wait_samples, q))


def predict_wait_interval(
    snapshot: SystemSnapshot,
    policy: Policy,
    estimator: PointEstimator,
    target_job_id: int,
    *,
    samples: int = 30,
    confidence: float = 0.80,
    seed: int | np.random.Generator = 0,
) -> WaitInterval:
    """Monte-Carlo wait interval for ``target_job_id``.

    ``estimator`` must wrap the run-time predictor whose prediction
    intervals drive the sampling (its fallback chain supplies point
    values for jobs the predictor cannot cover).
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    rng = rng_from_seed(seed)
    enc = encode_snapshot(snapshot, estimator)
    durations = sample_durations(enc, samples, rng)
    starts = predict_starts_batch(snapshot, policy, enc, durations, target_job_id)
    waits = starts - snapshot.now

    half = 100.0 * (1.0 - confidence) / 2.0
    return WaitInterval(
        median=float(np.median(waits)),
        lo=float(np.percentile(waits, half)),
        hi=float(np.percentile(waits, 100.0 - half)),
        confidence=confidence,
        samples=samples,
        wait_samples=tuple(float(w) for w in waits),
    )
