"""Analytic (profile-based) wait-time prediction shortcuts.

The reference implementation of the paper's §3 technique is an
event-driven forward simulation (:func:`repro.scheduler.simulator.forward_simulate`).
For two important cases the predicted start time admits a direct
profile computation that avoids the event machinery entirely:

- **FCFS, always.**  FCFS ignores estimates, jobs start in arrival
  order, and after a job's (monotone) start the availability profile is
  non-decreasing, so planning each queued job at its earliest feasible
  instant in a profile closed before the previous job's start replays
  the event semantics exactly.
- **Backfill, when the believed durations equal the scheduler's
  estimates.**  Conservative backfill's reservation plan is a fixed
  point under replanning when every job finishes exactly as estimated:
  the plan computed once at the snapshot instant is the schedule.

Greedy LWF has no such shortcut (a lower-priority job that starts in a
gap may genuinely delay a higher-priority one, which replanning
captures and a one-shot plan does not), and neither does backfill with
``durations != estimates`` (finish events trigger replans that shift
reservations).  :func:`exact_shortcut` is that rule; every planner
dispatches on it and simulates when no shortcut is exact.

The equivalence of shortcut and reference is property-tested in
``tests/test_waitpred_fast.py``.
"""

from __future__ import annotations

import math

from repro.scheduler.policies import BackfillPolicy, FCFSPolicy
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.policies.base import MIN_DURATION, Policy
from repro.scheduler.simulator import SystemSnapshot, forward_simulate

__all__ = [
    "UnknownJobError",
    "exact_shortcut",
    "fcfs_predicted_start",
    "fcfs_predicted_starts",
    "backfill_predicted_start",
    "backfill_predicted_starts",
    "predict_start_fast",
]


class UnknownJobError(KeyError):
    """A wait query named a job the snapshot's queue does not contain.

    Raised instead of a bare :class:`KeyError` by the prediction query
    path so callers (the prediction service in particular) can tell
    "you asked about a job that already started, finished, or was never
    submitted" apart from a programming error.  Subclasses
    :class:`KeyError`, so pre-existing ``except KeyError`` handling
    keeps working.
    """

    def __init__(self, job_id: int, reason: str = "not in snapshot queue") -> None:
        super().__init__(job_id)
        self.job_id = job_id
        self.reason = reason

    def __str__(self) -> str:
        return f"job {self.job_id} {self.reason}"


def _duration_of(durations: dict[int, float], job_id: int) -> float:
    """``durations[job_id]`` with a typed error naming the missing job."""
    try:
        return durations[job_id]
    except KeyError:
        raise UnknownJobError(
            job_id, "has no entry in the supplied durations"
        ) from None


def _seed_profile(
    snapshot: SystemSnapshot, durations: dict[int, float]
) -> AvailabilityProfile:
    """Profile of free nodes from the snapshot's running jobs.

    A running job believed to run ``d`` releases at ``max(start + d,
    now + MIN_DURATION)``, the simulator view's rule under the frozen
    (elapsed-invariant) estimates a forward simulation plans with.
    """
    used = sum(rj.job.nodes for rj in snapshot.running)
    floor = snapshot.now + MIN_DURATION
    releases = [
        (max(rj.start_time + _duration_of(durations, rj.job_id), floor), rj.job.nodes)
        for rj in snapshot.running
    ]
    return AvailabilityProfile.from_releases(
        snapshot.now, snapshot.total_nodes - used, snapshot.total_nodes, releases
    )


def _walk(
    snapshot: SystemSnapshot,
    durations: dict[int, float],
    in_order: bool,
    target_job_id: int | None = None,
) -> dict[int, float]:
    """Reserve the queue in arrival order; ``{job_id: start}``.

    The one profile walk behind both shortcuts.  ``in_order`` (FCFS)
    closes the profile before each reserved start, so the next job
    cannot start before it; without it every job takes its earliest slot
    (conservative backfill).  Both floor durations at ``MIN_DURATION``,
    backfill's own floor.  Given a target, the walk stops once the
    target is planned and raises :class:`UnknownJobError` if the queue
    does not hold it.
    """
    profile = _seed_profile(snapshot, durations)
    reserve = profile.reserve
    out: dict[int, float] = {}
    for qj in snapshot.queued:  # arrival order
        jid = qj.job_id
        duration = max(_duration_of(durations, jid), MIN_DURATION)
        start = reserve(qj.job.nodes, duration)
        if in_order:
            profile.close_before(start)
        out[jid] = start
        if jid == target_job_id:
            return out
    if target_job_id is not None:
        raise UnknownJobError(target_job_id)
    return out


def fcfs_predicted_start(
    snapshot: SystemSnapshot, durations: dict[int, float], target_job_id: int
) -> float:
    """Exact FCFS predicted start of ``target_job_id`` (no event loop)."""
    return _walk(snapshot, durations, True, target_job_id)[target_job_id]


def fcfs_predicted_starts(
    snapshot: SystemSnapshot, durations: dict[int, float]
) -> dict[int, float]:
    """Exact FCFS predicted starts of *every* queued job, in one walk.

    The batch form the prediction service uses to answer a whole
    epoch's queries from one profile pass.  Each entry is bit-identical
    to the single-target :func:`fcfs_predicted_start`, which is the same
    walk stopped at its target.
    """
    return _walk(snapshot, durations, True)


def backfill_predicted_start(
    snapshot: SystemSnapshot, durations: dict[int, float], target_job_id: int
) -> float:
    """Predicted start under conservative backfill with trusted estimates.

    Exact only when the scheduler's estimates equal ``durations`` (the
    self-consistent imagined world); callers must ensure that.
    """
    return _walk(snapshot, durations, False, target_job_id)[target_job_id]


def backfill_predicted_starts(
    snapshot: SystemSnapshot, durations: dict[int, float]
) -> dict[int, float]:
    """Backfill predicted starts of every queued job, in one walk.

    Batch form of :func:`backfill_predicted_start` (same exactness
    caveat: the scheduler's estimates must equal ``durations``); each
    entry is bit-identical to the single-target call.
    """
    return _walk(snapshot, durations, False)


def exact_shortcut(
    policy: Policy, durations: dict[int, float], estimates: dict[int, float] | None = None
) -> str | None:
    """The analytic walk that replays ``policy`` exactly, if any.

    ``"fcfs"`` always under FCFS, which never consults estimates;
    ``"backfill"`` under conservative backfill when the scheduler's
    ``estimates`` are omitted or equal ``durations`` to a relative
    1e-12; else ``None``.
    """
    if isinstance(policy, FCFSPolicy):
        return "fcfs"
    if isinstance(policy, BackfillPolicy) and (estimates is None or all(
        math.isclose(estimates.get(jid, float("nan")), d, rel_tol=1e-12)
        for jid, d in durations.items()
    )):
        return "backfill"
    return None


def predict_start_fast(
    snapshot: SystemSnapshot,
    policy: Policy,
    durations: dict[int, float],
    target_job_id: int,
    *,
    estimates: dict[int, float] | None = None,
) -> float:
    """Predicted start time, by shortcut when exact, else by simulation.

    Drop-in equivalent of
    :func:`repro.scheduler.simulator.forward_simulate` with identical
    semantics and results (bit-equal up to float associativity).
    """
    walk = exact_shortcut(policy, durations, estimates)
    if walk == "fcfs":
        return fcfs_predicted_start(snapshot, durations, target_job_id)
    if walk == "backfill":
        return backfill_predicted_start(snapshot, durations, target_job_id)
    return forward_simulate(
        snapshot, policy, durations, target_job_id, estimates=estimates
    )
