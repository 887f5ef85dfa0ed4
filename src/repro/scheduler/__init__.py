"""Event-driven space-sharing scheduler simulator.

This package is the substrate the paper's experiments run on: a machine
with ``total_nodes`` identical nodes, a submission queue, and a pluggable
scheduling policy (FCFS / LWF / backfill) that consults a pluggable
run-time estimator.  The same engine serves two roles:

- **trace replay** (:class:`Simulator.run`): process a whole workload and
  record per-job start/finish times, wait times and utilization;
- **forward simulation** (:func:`repro.scheduler.simulator.forward_simulate`):
  start from a snapshot of running/queued jobs with *predicted* run times
  and no future arrivals, and determine when a particular job would start
  — the paper's wait-time prediction technique (§3).
"""

from repro._lazy import lazy_exports

__all__ = [
    "NodePool",
    "EventQueue",
    "SUBMIT",
    "FINISH",
    "RES_START",
    "RES_END",
    "JobRecord",
    "ScheduleResult",
    "Reservation",
    "ReservationRecord",
    "PendingReservation",
    "QueuedJob",
    "RunningJob",
    "SchedulerView",
    "Simulator",
    "SystemSnapshot",
    "forward_simulate",
    "Policy",
    "FCFSPolicy",
    "LWFPolicy",
    "BackfillPolicy",
    "EASYBackfillPolicy",
    "ValidationReport",
    "validate_schedule",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scheduler.cluster": ("NodePool",),
    "repro.scheduler.events": ("EventQueue", "FINISH", "RES_END", "RES_START", "SUBMIT"),
    "repro.scheduler.metrics": ("JobRecord", "ScheduleResult"),
    "repro.scheduler.reservations": ("Reservation", "ReservationRecord"),
    "repro.scheduler.simulator": (
        "PendingReservation", "QueuedJob", "RunningJob", "SchedulerView", "Simulator",
        "SystemSnapshot", "forward_simulate",
    ),
    "repro.scheduler.policies": (
        "BackfillPolicy", "EASYBackfillPolicy", "FCFSPolicy", "LWFPolicy", "Policy",
    ),
    "repro.scheduler.validate": ("ValidationReport", "validate_schedule"),
})
