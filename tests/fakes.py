"""Test doubles for scheduler components."""

from __future__ import annotations

from repro.scheduler.simulator import QueuedJob, RunningJob
from repro.workloads.job import Job


class FakeView:
    """A hand-built SchedulerView for unit-testing policies.

    ``estimates`` maps job_id -> estimated total run time; jobs without
    an entry default to their actual run time.
    """

    def __init__(
        self,
        *,
        now: float = 0.0,
        total_nodes: int = 10,
        free_nodes: int | None = None,
        queued: list[Job] | None = None,
        running: list[tuple[Job, float]] | None = None,
        estimates: dict[int, float] | None = None,
    ) -> None:
        self.now = now
        self.total_nodes = total_nodes
        self.queued = [QueuedJob(j) for j in (queued or [])]
        self.running = [RunningJob(j, s) for j, s in (running or [])]
        used = sum(r.job.nodes for r in self.running)
        self.free_nodes = (
            free_nodes if free_nodes is not None else total_nodes - used
        )
        self._estimates = estimates or {}

    def estimate(self, qj: QueuedJob) -> float:
        return self._estimates.get(qj.job_id, qj.job.run_time)

    def remaining(self, rj: RunningJob) -> float:
        est = self._estimates.get(rj.job_id, rj.job.run_time)
        return max(est - rj.elapsed(self.now), 1e-6)

    def releases(self) -> list[tuple[float, int]]:
        return [(self.now + self.remaining(rj), rj.job.nodes) for rj in self.running]
