"""First-come first-served.

Jobs receive resources strictly in arrival order: the head of the queue
starts whenever enough nodes are free, and nothing behind a blocked head
may start (paper §2.1).  FCFS never consults run-time estimates, which is
why the paper's Tables 10-15 omit it from the predictor-sensitivity
comparison.
"""

from __future__ import annotations

from typing import Sequence

from repro.scheduler.policies.base import (
    Policy,
    ReleaseAttributor,
    report_blocker,
)

__all__ = ["FCFSPolicy"]


class FCFSPolicy(Policy):
    """First-come first-served: strict arrival order, head-of-line blocking."""

    name = "FCFS"

    def __init__(self) -> None:
        # job_id -> last (blocker_kind, blocker_id); provenance-only
        # state so start_blocked events report moves, not every pass.
        self._last_blocked: dict[int, tuple] = {}

    def select(self, view) -> Sequence:
        """Start jobs in arrival order until the head blocks.

        Under provenance the walk goes on past the blocked head to emit
        ``start_blocked``: the head is attributed to the release that
        first clears its node deficit, and everything behind it is
        ``queue_order``-blocked on the head (FCFS's head-of-line rule),
        whatever its own fit.
        """
        prov = getattr(view, "provenance_tracer", None)
        free = view.free_nodes
        now = view.now
        last = self._last_blocked
        started = []
        head_id: int | None = None
        for qj in view.queued:  # arrival order
            if head_id is None and qj.job.nodes <= free:
                started.append(qj)
                free -= qj.job.nodes
                if prov is not None:
                    last.pop(qj.job_id, None)
                continue
            if prov is None:
                break
            if head_id is None:
                head_id = qj.job_id
                attr = ReleaseAttributor(view)
                for sj in started:
                    attr.add(
                        now + view.estimate(sj), sj.job.nodes,
                        "running_job", sj.job_id,
                    )
                kind, bid = attr.binding(qj.job.nodes, free)
            else:
                kind, bid = "queue_order", head_id
            report_blocker(
                prov, last, "start_blocked", now, self.name, qj.job_id,
                kind, bid, free_nodes=free,
            )
        return started
