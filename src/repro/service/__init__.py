"""Online wait-time prediction service (see ``docs/architecture.md``).

:class:`PredictionService` mirrors scheduler state from a stream of
submit/start/finish events and answers wait queries through the
epoch-keyed caches and analytic shortcuts of :mod:`repro.waitpred`;
:mod:`repro.service.server` puts a JSON-lines TCP protocol in front of
it.  ``repro-sched serve`` / ``repro-sched query`` are the CLI entry
points.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PredictionService",
    "SimulatorFeed",
    "UnknownJobError",
    "PredictionServer",
    "ServiceClient",
    "job_to_wire",
    "job_from_wire",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.server": ("PredictionServer", "ServiceClient", "job_from_wire", "job_to_wire"),
    "repro.service.service": ("PredictionService", "SimulatorFeed", "UnknownJobError"),
})
