"""Scheduling policies: FCFS, least-work-first, conservative backfill."""

from repro._lazy import lazy_exports

__all__ = [
    "Policy",
    "FCFSPolicy",
    "LWFPolicy",
    "BackfillPolicy",
    "EASYBackfillPolicy",
    "AvailabilityProfile",
    "BatchAvailabilityProfile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scheduler.policies.base": ("Policy",),
    "repro.scheduler.policies.fcfs": ("FCFSPolicy",),
    "repro.scheduler.policies.lwf": ("LWFPolicy",),
    "repro.scheduler.policies.backfill": (
        "AvailabilityProfile", "BackfillPolicy", "BatchAvailabilityProfile",
    ),
    "repro.scheduler.policies.easy": ("EASYBackfillPolicy",),
})
