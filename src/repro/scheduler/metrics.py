"""Per-job records and aggregate schedule metrics.

The paper's scheduling tables (10-15) report two aggregates per
(workload, algorithm, predictor) cell: machine **utilization** (percent)
and **mean wait time** (minutes).  :class:`ScheduleResult` carries the
per-job records and derives those plus a few extras used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.timeutils import seconds_to_minutes

__all__ = ["JobRecord", "ScheduleResult"]


@dataclass(frozen=True)
class JobRecord:
    """The scheduling outcome for one job."""

    job_id: int
    submit_time: float
    start_time: float
    finish_time: float
    nodes: int

    def __post_init__(self) -> None:
        if self.start_time < self.submit_time:
            raise ValueError(
                f"job {self.job_id}: started before submission "
                f"({self.start_time} < {self.submit_time})"
            )
        if self.finish_time < self.start_time:
            raise ValueError(
                f"job {self.job_id}: finished before start "
                f"({self.finish_time} < {self.start_time})"
            )

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        return self.finish_time - self.start_time


class ScheduleResult:
    """All job records from one simulation plus aggregate metrics."""

    def __init__(self, records: Iterable[JobRecord], *, total_nodes: int) -> None:
        self._records: list[JobRecord] = sorted(records, key=lambda r: r.job_id)
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        self.total_nodes = total_nodes
        self._by_id = {r.job_id: r for r in self._records}
        if len(self._by_id) != len(self._records):
            raise ValueError("duplicate job_id in schedule records")

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, job_id: int) -> JobRecord:
        return self._by_id[job_id]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._by_id

    @property
    def records(self) -> Sequence[JobRecord]:
        return tuple(self._records)

    @property
    def wait_times(self) -> np.ndarray:
        return np.array([r.wait_time for r in self._records], dtype=float)

    @property
    def mean_wait_minutes(self) -> float:
        """Mean wait time in minutes (the paper's unit)."""
        if not self._records:
            return 0.0
        return seconds_to_minutes(float(self.wait_times.mean()))

    @property
    def makespan(self) -> float:
        """First submission to last completion."""
        if not self._records:
            return 0.0
        start = min(r.submit_time for r in self._records)
        end = max(r.finish_time for r in self._records)
        return end - start

    @property
    def utilization(self) -> float:
        """Busy node-time over capacity across the makespan, in [0, 1]."""
        span = self.makespan
        if span <= 0:
            return 0.0
        busy = sum(r.run_time * r.nodes for r in self._records)
        return busy / (span * self.total_nodes)

    @property
    def utilization_percent(self) -> float:
        return 100.0 * self.utilization

    def wait_percentile(self, p: float) -> float:
        """The ``p``-th percentile of wait times, in minutes."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._records:
            return 0.0
        return seconds_to_minutes(float(np.percentile(self.wait_times, p)))

    def mean_bounded_slowdown(self) -> float:
        """Mean bounded slowdown: max(1, (wait + run) / max(run, 600 s)).

        The standard companion metric to mean wait (Feitelson et al.):
        the 600 s bound shields the statistic from very short jobs
        dominating.
        """
        if not self._records:
            return 0.0
        values = [
            max(1.0, (r.wait_time + r.run_time) / max(r.run_time, 600.0))
            for r in self._records
        ]
        return float(np.mean(values))

    def per_class_mean_wait(self, classify) -> dict[object, float]:
        """Mean wait in minutes per class of ``classify(record)``.

        Example: ``result.per_class_mean_wait(lambda r: r.nodes >= 32)``
        splits wide from narrow jobs.
        """
        groups: dict[object, list[float]] = {}
        for r in self._records:
            groups.setdefault(classify(r), []).append(r.wait_time)
        return {
            key: seconds_to_minutes(float(np.mean(vs)))
            for key, vs in groups.items()
        }

    def max_concurrent_nodes(self) -> int:
        """Peak simultaneous node usage (must never exceed ``total_nodes``)."""
        deltas: list[tuple[float, int]] = []
        for r in self._records:
            if r.run_time > 0:
                deltas.append((r.start_time, r.nodes))
                deltas.append((r.finish_time, -r.nodes))
        # Releases before allocations at the same instant, matching the
        # simulator's finish-before-submit event ordering.
        deltas.sort(key=lambda d: (d[0], d[1]))
        peak = cur = 0
        for _, d in deltas:
            cur += d
            peak = max(peak, cur)
        return peak
