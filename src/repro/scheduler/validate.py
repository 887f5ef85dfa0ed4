"""Schedule validation: is a ScheduleResult feasible for a Trace?

The invariants every legal space-shared schedule obeys — extracted from
the test suite into a reusable checker so downstream users (custom
policies, imported schedules) can verify their results the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scheduler.metrics import ScheduleResult
from repro.workloads.job import Trace

__all__ = ["ValidationReport", "validate_schedule"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a schedule validation."""

    ok: bool
    violations: tuple[str, ...] = field(default=())

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise AssertionError(
                "invalid schedule:\n" + "\n".join(f"- {v}" for v in self.violations)
            )


def validate_schedule(trace: Trace, result: ScheduleResult) -> ValidationReport:
    """Check completeness, causality, duration fidelity and capacity.

    Verifies that every trace job appears exactly once, starts no
    earlier than its submission, runs for exactly its trace run time
    (within 1e-6 s), and that concurrent node usage
    never exceeds the machine.
    """
    violations: list[str] = []
    trace_ids = {j.job_id for j in trace}
    result_ids = {r.job_id for r in result.records}
    missing = trace_ids - result_ids
    extra = result_ids - trace_ids
    if missing:
        violations.append(f"jobs never scheduled: {sorted(missing)[:10]}")
    if extra:
        violations.append(f"jobs not in trace: {sorted(extra)[:10]}")

    by_id = {j.job_id: j for j in trace}
    for rec in result.records:
        job = by_id.get(rec.job_id)
        if job is None:
            continue
        if rec.submit_time != job.submit_time:
            violations.append(
                f"job {rec.job_id}: submit time altered "
                f"({rec.submit_time} != {job.submit_time})"
            )
        if rec.start_time < job.submit_time - 1e-9:
            violations.append(
                f"job {rec.job_id}: started before submission"
            )
        if abs(rec.run_time - job.run_time) > 1e-6:
            violations.append(
                f"job {rec.job_id}: ran {rec.run_time}, trace says {job.run_time}"
            )
        if rec.nodes != job.nodes:
            violations.append(
                f"job {rec.job_id}: used {rec.nodes} nodes, trace says {job.nodes}"
            )

    peak = result.max_concurrent_nodes()
    if peak > trace.total_nodes:
        violations.append(
            f"capacity exceeded: peak {peak} nodes on a "
            f"{trace.total_nodes}-node machine"
        )
    return ValidationReport(ok=not violations, violations=tuple(violations))
