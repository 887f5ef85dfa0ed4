"""Policy interface.

A policy is consulted once per scheduling pass (any submission or
completion triggers a pass) and returns the queued jobs to start *now*,
in start order.  It must account for node capacity itself while selecting
— the simulator starts exactly what the policy returns and will raise if
the selections overcommit the pool.

Run-time estimates are obtained through the :class:`SchedulerView` the
simulator passes in; the view consults whatever run-time estimator the
simulation was configured with, so the same policy code runs with actual
run times, user maxima, or any historical predictor (paper §4).  A view
answers ``estimate(qj)`` for a queued job's total run time and
``remaining(rj)`` for a running job's remaining time; ``releases()``
gives every running job's ``(release, nodes)`` in running order from one
call, which is how the profile-seeding policies (and
:class:`ReleaseAttributor`) read them.  A release is ``max(start + est,
now + MIN_DURATION)`` under an elapsed-invariant estimator and ``now +
remaining(rj)`` under any other (see
:meth:`repro.scheduler.simulator.SchedulerView.releases`).
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.scheduler.simulator import QueuedJob, SchedulerView

__all__ = [
    "MIN_DURATION",
    "Policy",
    "ReleaseAttributor",
    "report_blocker",
    "running_ids",
]

#: Smallest duration/remaining time an estimate may collapse to, so no
#: schedule stalls on a zero or negative estimate and no reservation
#: carves a zero-length hole.  The simulator, the backfill policies and
#: the analytic planners share it, which keeps a forward simulation over
#: predicted durations a fixed point of backfill's replanning.
MIN_DURATION = 1e-6


class Policy(ABC):
    """A queue-ordering / backfilling discipline."""

    #: Short name used in result tables ("FCFS", "LWF", "Backfill").
    name: str = "policy"

    @abstractmethod
    def select(self, view: "SchedulerView") -> "Sequence[QueuedJob]":
        """Return the queued jobs to start now, in start order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReleaseAttributor:
    """Names the release that first clears a blocked job's node deficit.

    The binding constraint the myopic policies (FCFS, LWF) report on
    ``start_blocked`` provenance events: releases are the running jobs'
    estimated finishes plus the active reservations' known ends —
    extended via :meth:`add` with jobs the current pass already started
    — accumulated in time order until the deficit clears; the last
    release consumed is the binding one.  Mirrors the policies' own
    myopic view: pending advance reservations (which *consume* future
    capacity) are ignored, exactly as the policies themselves do.

    Estimate calls made here (``view.releases``) are value-deterministic
    within an estimator epoch and never alter schedules, so a ``select``
    walk that builds one under provenance selects exactly what it
    selects with provenance off.
    """

    __slots__ = ("_releases",)

    def __init__(self, view) -> None:
        now = view.now
        releases: list[tuple[float, int, int, str, int]] = [
            (t, 0, nodes, "running_job", jid)
            for (t, nodes), jid in zip(view.releases(), running_ids(view))
        ]
        for ares in getattr(view, "active_reservations", ()):
            end = ares.end_time
            releases.append((
                end if end > now else now, 1, ares.nodes,
                "active_reservation", ares.reservation.res_id,
            ))
        releases.sort()
        self._releases = releases

    def add(self, time: float, nodes: int, kind: str, blocker_id: int) -> None:
        """Record an extra release (a job this pass just started)."""
        bisect.insort(self._releases, (time, 2, nodes, kind, blocker_id))

    def binding(self, nodes_needed: int, free_now: int) -> tuple[str, int | None]:
        free = free_now
        for _, _, nodes, kind, bid in self._releases:
            free += nodes
            if free >= nodes_needed:
                return kind, bid
        return "unknown", None


def running_ids(view):
    """Running jobs' ids, in the order ``view.releases()`` lists them."""
    running = view.running
    if hasattr(running, "ids"):
        return running.ids()
    return [rj.job_id for rj in running]  # hand-built views: plain lists


def report_blocker(
    prov, last: dict, event: str, now: float, policy: str, job_id: int,
    kind: str, bid: int | None, *, start_s: float | None = None,
    free_nodes: int | None = None,
) -> None:
    """Emit provenance ``event`` naming ``job_id``'s blocker, change-only.

    ``last`` maps job id -> the ``(blocker_kind, blocker_id)`` last
    reported, so a blocker is reported when it moves rather than on
    every pass.  ``blocker_id`` is omitted when unknown (``bid is None``).
    """
    if last.get(job_id) == (kind, bid):
        return
    last[job_id] = (kind, bid)
    fields: dict = {} if start_s is None else {"start_s": start_s}
    fields["blocker_kind"] = kind
    if bid is not None:
        fields["blocker_id"] = bid
    if free_nodes is not None:
        fields["free_nodes"] = free_nodes
    prov.emit(event, sim_time=now, job_id=job_id, policy=policy, **fields)
