"""Least-work-first.

LWF orders the queue by increasing *estimated work* — requested nodes
multiplied by the estimated wall-clock run time (paper §2.1) — and starts
every job that fits, taken in that order.  Unlike FCFS it does not block
behind a job that cannot run: small-work jobs flow around a stalled large
one (this greedy variant is what lets the paper's LWF reach the same
utilization as backfill in Tables 10-15 while posting lower mean waits;
a blocking variant idles the machine whenever the least-work job is
wide).  The reordering itself is the entire mechanism, which is why the
paper finds LWF only needs to know whether a job is "big" or "small" and
tolerates coarse estimates (§4).

Ties in estimated work break by arrival order, then job id, so replays
are deterministic.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduler.policies.base import (
    Policy,
    ReleaseAttributor,
    report_blocker,
)

__all__ = ["LWFPolicy"]


class LWFPolicy(Policy):
    """Least-work-first: start every fitting job in ascending estimated-work order."""

    name = "LWF"

    def __init__(self) -> None:
        # job_id -> last (blocker_kind, blocker_id); provenance-only
        # state so start_blocked events report moves, not every pass.
        self._last_blocked: dict[int, tuple] = {}

    def select(self, view) -> Sequence:
        """Start every fitting job in ascending estimated-work order.

        Under provenance every unstarted job emits ``start_blocked``:
        greedy LWF has no head-of-line rule, so each is bound by the
        release that first clears its own node deficit against the free
        nodes remaining when the walk reaches it.
        """
        queued = list(view.queued)
        if not queued:
            return []
        prov = getattr(view, "provenance_tracer", None)
        free = view.free_nodes
        # Nothing fits when even the narrowest job exceeds the free
        # nodes — skip the estimate lookups and the sort entirely, unless
        # provenance must attribute every blocked job.
        if prov is None and free < min(qj.job.nodes for qj in queued):
            return []
        now = view.now
        estimate = view.estimate
        order = sorted(
            queued,
            key=lambda qj: (
                qj.job.nodes * estimate(qj),
                qj.job.submit_time,
                qj.job.job_id,
            ),
        )
        last = self._last_blocked
        started = []
        attr = None
        for qj in order:
            if qj.job.nodes <= free:
                started.append(qj)
                free -= qj.job.nodes
                if prov is not None:
                    last.pop(qj.job_id, None)
                    if attr is not None:
                        attr.add(
                            now + estimate(qj), qj.job.nodes,
                            "running_job", qj.job_id,
                        )
                continue
            if prov is None:
                continue
            if attr is None:
                attr = ReleaseAttributor(view)
                for sj in started:
                    attr.add(
                        now + estimate(sj), sj.job.nodes,
                        "running_job", sj.job_id,
                    )
            kind, bid = attr.binding(qj.job.nodes, free)
            report_blocker(
                prov, last, "start_blocked", now, self.name, qj.job_id,
                kind, bid, free_nodes=free,
            )
        return started
