"""EASY (aggressive) backfill — Lifka's ANL/IBM SP scheduler [11].

The paper's backfill is *conservative*: every queued job holds a
reservation.  EASY, the variant the paper cites as the origin of
max-run-time estimates, reserves **only the head of the queue**: any
other job may start immediately if it fits and will not delay the
head's reservation.  Jobs deeper in the queue enjoy no protection, so
EASY backfills more aggressively at the cost of weaker progress
guarantees for mid-queue jobs.

Included as an ablation: the reservation-depth choice is the main
design axis of backfill schedulers, and comparing the two shows how
much of the predictor-accuracy effect (§4) is due to reservation
machinery versus ordering.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.policies.base import (
    MIN_DURATION,
    Policy,
    report_blocker,
    running_ids,
)

__all__ = ["EASYBackfillPolicy"]


class EASYBackfillPolicy(Policy):
    """EASY (aggressive) backfill: only the queue head holds a reservation."""

    name = "EASY"

    def __init__(self) -> None:
        # Provenance-only change-detection state: job_id -> last
        # (blocker_kind, blocker_id) for the head's reservation binding
        # and for the unprotected jobs' start_blocked attribution.
        self._last_binding: dict[int, tuple] = {}
        self._last_blocked: dict[int, tuple] = {}

    def select(self, view) -> Sequence:
        queued = list(view.queued)  # arrival order
        if not queued:
            return []
        now = view.now
        # EASY starts jobs only at `now`, so if even the narrowest queued
        # job exceeds the free nodes nothing can start and the profile
        # (whose reservations are pass-local) need not be built at all.
        # Kept under provenance too: change-only emission tolerates the
        # skipped pass (attribution catches up at the next selecting one).
        if view.free_nodes < min(qj.job.nodes for qj in queued):
            return []
        prov = getattr(view, "provenance_tracer", None)
        origin: dict | None = {} if prov is not None else None
        releases = view.releases()
        if origin is not None:
            for (t, _), jid in zip(releases, running_ids(view)):
                origin[t] = ("running_job", jid)
        for ares in getattr(view, "active_reservations", ()):
            t = max(ares.end_time, now)
            releases.append((t, ares.nodes))
            if origin is not None:
                origin[t] = ("active_reservation", ares.reservation.res_id)
        profile = AvailabilityProfile.from_releases(
            now, view.free_nodes, view.total_nodes, releases
        )
        for pres in getattr(view, "reservations", ()):
            carve_start = max(pres.effective_start, now)
            profile.carve(carve_start, pres.duration, pres.nodes, clamp=True)
            if origin is not None:
                origin[carve_start + pres.duration] = (
                    "advance_reservation", pres.reservation.res_id,
                )

        started = []
        # Start jobs in arrival order while the profile lets them run
        # immediately for their whole estimated duration (absent
        # reservations this is exactly "enough nodes are free now").
        i = 0
        while i < len(queued):
            qj = queued[i]
            duration = max(view.estimate(qj), MIN_DURATION)
            if profile.earliest_start(qj.job.nodes, duration) > now:
                break
            profile.carve(now, duration, qj.job.nodes)
            started.append(qj)
            if prov is not None:
                self._last_binding.pop(qj.job_id, None)
                self._last_blocked.pop(qj.job_id, None)
                origin[now + duration] = ("running_job", qj.job_id)
            i += 1
        if i >= len(queued):
            return started

        # The first blocked job becomes the head: reserve it at the
        # earliest time the profile admits.  Only the head is protected.
        head = queued[i]
        head_duration = max(view.estimate(head), MIN_DURATION)
        head_start = profile.earliest_start(head.job.nodes, head_duration)
        profile.carve(head_start, head_duration, head.job.nodes)
        if prov is not None:
            kind, bid = origin.get(head_start, ("unknown", None))
            report_blocker(
                prov, self._last_binding, "reservation_binding", now,
                self.name, head.job_id, kind, bid, start_s=head_start,
            )
            origin[head_start + head_duration] = (
                "queued_reservation", head.job_id,
            )

        # Backfill: any later job that can run now without delaying the
        # head (or a reservation window).
        for qj in queued[i + 1 :]:
            duration = max(view.estimate(qj), MIN_DURATION)
            est_start = profile.earliest_start(qj.job.nodes, duration)
            if est_start <= now:
                profile.carve(now, duration, qj.job.nodes)
                started.append(qj)
                if prov is not None:
                    self._last_binding.pop(qj.job_id, None)
                    self._last_blocked.pop(qj.job_id, None)
                    prov.emit(
                        "backfill_hole_used",
                        sim_time=now,
                        job_id=qj.job_id,
                        policy=self.name,
                        hole_start_s=now,
                        hole_end_s=head_start,
                        ahead_job_id=head.job_id,
                        nodes=qj.job.nodes,
                    )
                    origin[now + duration] = ("running_job", qj.job_id)
            elif prov is not None:
                # Unprotected job: attribute the anchor of its would-be
                # start (often the head's own carve end).
                kind, bid = origin.get(est_start, ("unknown", None))
                report_blocker(
                    prov, self._last_blocked, "start_blocked", now, self.name,
                    qj.job_id, kind, bid,
                )
        return started
