"""Vectorized many-worlds Monte-Carlo engine for wait-time uncertainty.

:mod:`repro.waitpred.uncertainty` answers interval queries by sampling S
run-time worlds and forward-planning the scheduler in each.  Its original
hot core was a Python loop — one full profile replay per world — so a
30-sample interval already cost 30 replays and sensitivity sweeps were
out of reach.  This module restructures that core as structure-of-arrays
state advanced across all S worlds at once:

1. :func:`encode_snapshot` walks the snapshot *once*, resolving each
   job's point estimate and interval half-width through
   :meth:`PointEstimator.resolve` and packing the per-job node counts,
   running jobs' start times, points and sigmas into flat numpy arrays
   (running jobs first, then queued, both in snapshot order);
2. :func:`sample_durations` draws every world's run times in a single
   ``(S, n_jobs)`` ``standard_normal`` call;
3. :func:`predict_starts_batch` plans the whole queue through a
   :class:`~repro.scheduler.policies.backfill.BatchAvailabilityProfile`
   — the exact FCFS/backfill shortcuts of :mod:`repro.waitpred.fast`
   with a sample axis, one vectorized ``reserve`` per queued job instead
   of one scalar reserve per (world, job) — falling back to the scalar
   per-world :func:`~repro.waitpred.fast.predict_start_fast` only for
   policies without a shortcut.

Determinism and parity contract
-------------------------------
For a fixed integer seed the engine is bit-identical, world by world, to
the scalar loop it replaced: numpy fills a ``standard_normal((S, k))``
array from the same bit stream as ``S * k`` sequential scalar calls, the
duration arithmetic (``max(point + sigma * z, 1e-6)``) runs the same
float64 operations elementwise, and the batched profile reproduces the
scalar profile's anchors exactly (see ``BatchAvailabilityProfile``).
:func:`scalar_starts` retains the per-world reference loop as the parity
oracle; ``tests/test_properties_uncertainty.py`` asserts ``==`` (not
approx) between the two on random system states, and the same guarantee
makes :func:`repro.waitpred.uncertainty.predict_wait_interval` return
the same intervals it did before the vectorization.  Passing an
``np.random.Generator`` instead of an int uses that generator in place
(no re-wrapping), so callers can thread one stream through many queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import PointEstimator
from repro.scheduler.policies.backfill import BatchAvailabilityProfile
from repro.scheduler.policies.base import MIN_DURATION, Policy
from repro.scheduler.simulator import SystemSnapshot
from repro.utils.rng import rng_from_seed
from repro.waitpred.fast import UnknownJobError, exact_shortcut, predict_start_fast

__all__ = [
    "EncodedSnapshot",
    "SweepPoint",
    "encode_snapshot",
    "sample_durations",
    "predict_starts_batch",
    "scalar_starts",
    "sweep_estimates",
]

#: z-score matching the predictors' default 90% two-sided interval; the
#: sampled run-time distribution is Normal(estimate, half_width / z).
_Z90 = 1.645


@dataclass(frozen=True)
class EncodedSnapshot:
    """A :class:`SystemSnapshot` packed into structure-of-arrays form.

    Job axis order is running jobs (snapshot order) followed by queued
    jobs (arrival order) — the same iteration order the scalar loop
    used, which is what makes batched draws reproduce its stream.
    """

    now: float
    total_nodes: int
    free_nodes: int
    run_ids: tuple[int, ...]
    run_nodes: np.ndarray  # (R,) int64
    run_start: np.ndarray  # (R,) float64 — running jobs' start times
    queued_ids: tuple[int, ...]
    queued_nodes: np.ndarray  # (Q,) int64
    point: np.ndarray  # (R+Q,) float64 — point estimates, running then queued
    sigma: np.ndarray  # (R+Q,) float64 — Normal sigmas, 0 for no-interval jobs

    @property
    def n_running(self) -> int:
        return len(self.run_ids)

    @property
    def n_jobs(self) -> int:
        return len(self.point)

    def job_ids(self) -> tuple[int, ...]:
        return self.run_ids + self.queued_ids

    def durations_dict(self, durations: np.ndarray, world: int) -> dict[int, float]:
        """One world's column of a duration matrix as a job-id dict."""
        row = durations[world]
        return {jid: float(row[i]) for i, jid in enumerate(self.job_ids())}


def encode_snapshot(
    snapshot: SystemSnapshot, estimator: PointEstimator
) -> EncodedSnapshot:
    """Resolve each job's ``(point, sigma)`` and pack them into arrays.

    A job the predictor covers costs one predictor call: its rich
    prediction gives both the point (as :meth:`PointEstimator.predict`
    would return it) and the sigma.  A job the predictor abstains on
    has sigma 0 and is asked a second time, through
    :meth:`PointEstimator.predict`, so the estimator's fallback tallies
    count it exactly as a scheduler call would.
    """
    now = snapshot.now
    jobs = [(rj.job, rj.elapsed(now)) for rj in snapshot.running]
    jobs += [(qj.job, 0.0) for qj in snapshot.queued]
    points = []
    sigmas = []
    for job, elapsed in jobs:
        point, _, rich = estimator.resolve(job, elapsed, now)
        if rich is None:
            point = estimator.predict(job, elapsed, now)
        points.append(point)
        sigmas.append(0.0 if rich is None else rich.interval / _Z90)
    n_run = len(snapshot.running)
    run_nodes = [job.nodes for job, _ in jobs[:n_run]]
    return EncodedSnapshot(
        now=now,
        total_nodes=snapshot.total_nodes,
        free_nodes=snapshot.total_nodes - sum(run_nodes),
        run_ids=tuple(rj.job_id for rj in snapshot.running),
        run_nodes=np.asarray(run_nodes, dtype=np.int64),
        run_start=np.asarray(
            [rj.start_time for rj in snapshot.running], dtype=np.float64
        ),
        queued_ids=tuple(qj.job_id for qj in snapshot.queued),
        queued_nodes=np.asarray([job.nodes for job, _ in jobs[n_run:]], dtype=np.int64),
        point=np.asarray(points, dtype=np.float64),
        sigma=np.asarray(sigmas, dtype=np.float64),
    )


def sample_durations(
    enc: EncodedSnapshot, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """``(samples, n_jobs)`` sampled run times, one draw call for all.

    Consumes the generator's stream exactly as the scalar loop did —
    one normal per (world, sigma>0 job), worlds outermost — so a fixed
    seed produces the same worlds either way.  Jobs without interval
    information keep their point estimate in every world.
    """
    spread = enc.sigma > 0
    n_spread = int(spread.sum())
    if n_spread == enc.n_jobs:
        draws = rng.standard_normal((samples, n_spread))
        return np.maximum(
            enc.point[None, :] + enc.sigma[None, :] * draws, MIN_DURATION
        )
    durations = np.repeat(
        np.maximum(enc.point, MIN_DURATION)[None, :], samples, axis=0
    )
    if n_spread:
        draws = rng.standard_normal((samples, n_spread))
        durations[:, spread] = np.maximum(
            enc.point[spread][None, :] + enc.sigma[spread][None, :] * draws, MIN_DURATION
        )
    return durations


def _seed_profile_batch(
    enc: EncodedSnapshot, durations: np.ndarray, reserves: int
) -> BatchAvailabilityProfile:
    """Batched twin of ``waitpred.fast._seed_profile``: a running job
    releases at ``max(start + d, now + MIN_DURATION)`` in every world.

    ``reserves`` is the number of queue reservations the caller will
    place; each adds at most one breakpoint, so sizing the buffers for
    all of them up front avoids any mid-walk regrowth.
    """
    n_run = enc.n_running
    release_times = np.maximum(
        enc.run_start[None, :] + durations[:, :n_run], enc.now + MIN_DURATION
    )
    return BatchAvailabilityProfile.from_releases(
        enc.now,
        enc.free_nodes,
        enc.total_nodes,
        release_times,
        enc.run_nodes,
        capacity=n_run + reserves + 3,
    )


def _starts_batch(
    enc: EncodedSnapshot,
    durations: np.ndarray,
    target_job_id: int,
    in_order: bool,
) -> np.ndarray:
    """Per-world predicted starts of the target — ``fast._walk`` with a
    sample axis.

    ``in_order`` (FCFS) closes each world's profile before its reserved
    start; without it every job takes its earliest slot (conservative
    backfill in the self-consistent imagined world).  Both floor
    durations at ``MIN_DURATION``, the backfill policies' own floor.
    """
    target = enc.queued_ids.index(target_job_id)
    profile = _seed_profile_batch(enc, durations, target + 1)
    n_run = enc.n_running
    for pos in range(target):
        dur = np.maximum(durations[:, n_run + pos], MIN_DURATION)
        start = profile.reserve(int(enc.queued_nodes[pos]), dur)
        if in_order:
            profile.close_before(start)
    # The target itself only needs its start, not the carve.
    dur = np.maximum(durations[:, n_run + target], MIN_DURATION)
    return profile.earliest_start(int(enc.queued_nodes[target]), dur)


def scalar_starts(
    snapshot: SystemSnapshot,
    policy: Policy,
    enc: EncodedSnapshot,
    durations: np.ndarray,
    target_job_id: int,
) -> np.ndarray:
    """The retained per-world reference loop (parity oracle).

    Plans every world independently through
    :func:`repro.waitpred.fast.predict_start_fast` — exactly what the
    pre-vectorization interval query did per sample.  Kept for the
    parity property suite and the scalar arm of
    ``benchmarks/bench_wait_interval.py``; the fallback path of
    :func:`predict_starts_batch` also routes through it.
    """
    n_worlds = durations.shape[0]
    starts = np.empty(n_worlds)
    for world in range(n_worlds):
        starts[world] = predict_start_fast(
            snapshot, policy, enc.durations_dict(durations, world), target_job_id
        )
    return starts


def predict_starts_batch(
    snapshot: SystemSnapshot,
    policy: Policy,
    enc: EncodedSnapshot,
    durations: np.ndarray,
    target_job_id: int,
) -> np.ndarray:
    """Per-world predicted starts, vectorized where a shortcut is exact.

    Dispatches on :func:`repro.waitpred.fast.exact_shortcut` for the
    self-consistent worlds the Monte-Carlo engine simulates (believed
    durations double as the scheduler's estimates): FCFS and
    conservative backfill run through the batched profile; any other
    policy falls back to the scalar per-world loop.  An unqueued target
    raises :class:`~repro.waitpred.fast.UnknownJobError` up front.
    """
    if target_job_id not in enc.queued_ids:
        raise UnknownJobError(target_job_id)
    walk = exact_shortcut(policy, {})  # each world's durations are its estimates
    if walk is not None:
        return _starts_batch(enc, durations, target_job_id, walk == "fcfs")
    return scalar_starts(snapshot, policy, enc, durations, target_job_id)


@dataclass(frozen=True)
class SweepPoint:
    """Schedule stability of one error level in a sensitivity sweep."""

    level: float
    mean_wait: float
    median_wait: float
    p10_wait: float
    p90_wait: float
    std_wait: float
    #: Fraction of worlds whose target start matches the unperturbed
    #: (level-0) schedule to within a relative 1e-9 — how often the
    #: schedule survives this much estimate error unchanged.
    stable_fraction: float

    @property
    def spread(self) -> float:
        return self.p90_wait - self.p10_wait


def sweep_estimates(
    snapshot: SystemSnapshot,
    policy: Policy,
    estimator: PointEstimator,
    target_job_id: int,
    *,
    levels: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0),
    samples: int = 100,
    seed: int | np.random.Generator = 0,
) -> list[SweepPoint]:
    """Sensitivity sweep: perturb every estimate, measure wait stability.

    For each error ``level`` f, run times become
    ``point * exp(f * z)`` — the multiplicative log-normal error model
    of the misprediction harness (:mod:`repro.experiments.misprediction`)
    — and all S worlds are planned through the batched engine.  The
    same ``(samples, n_jobs)`` draw matrix is reused across levels
    (common random numbers), so differences between sweep points
    measure the error level, not sampling noise, and adjacent levels
    are directly comparable world by world.

    Returns one :class:`SweepPoint` per level, in order.  Level 0.0 is
    the deterministic point-estimate schedule (zero spread by
    construction) and anchors the ``stable_fraction`` of every other
    level.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if any(level < 0 for level in levels):
        raise ValueError("error levels must be >= 0")
    rng = rng_from_seed(seed)
    enc = encode_snapshot(snapshot, estimator)
    draws = rng.standard_normal((samples, enc.n_jobs))
    base = np.maximum(enc.point, MIN_DURATION)[None, :]
    baseline = predict_starts_batch(
        snapshot, policy, enc, np.repeat(base, 1, axis=0), target_job_id
    )[0]
    tolerance = 1e-9 * max(abs(baseline), 1.0)
    points = []
    for level in levels:
        if level == 0.0:
            durations = np.repeat(base, samples, axis=0)
        else:
            durations = np.maximum(
                enc.point[None, :] * np.exp(level * draws), MIN_DURATION
            )
        starts = predict_starts_batch(
            snapshot, policy, enc, durations, target_job_id
        )
        waits = starts - enc.now
        points.append(
            SweepPoint(
                level=float(level),
                mean_wait=float(waits.mean()),
                median_wait=float(np.median(waits)),
                p10_wait=float(np.percentile(waits, 10.0)),
                p90_wait=float(np.percentile(waits, 90.0)),
                std_wait=float(waits.std()),
                stable_fraction=float(
                    np.mean(np.abs(starts - baseline) <= tolerance)
                ),
            )
        )
    return points
