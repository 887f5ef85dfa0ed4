"""Workload substrate: job records, trace containers, SWF I/O, generators.

Modules
-------
- :mod:`repro.workloads.job` — the :class:`Job` record and :class:`Trace`
  container used everywhere else;
- :mod:`repro.workloads.fields` — the characteristic catalogue of the
  paper's Table 2 (which trace records which job attributes);
- :mod:`repro.workloads.swf` — Standard Workload Format reader/writer so
  real Parallel Workloads Archive traces can be used directly;
- :mod:`repro.workloads.synthetic` — seeded synthetic trace generator
  with user populations, per-application run-time families, diurnal
  arrivals and max-run-time overestimation;
- :mod:`repro.workloads.archive` — the four paper workloads (ANL, CTC,
  SDSC95, SDSC96) as calibrated synthetic specifications;
- :mod:`repro.workloads.transform` — trace transformations (interarrival
  compression, truncation, filtering);
- :mod:`repro.workloads.stats` — Table 1-style summaries and offered load.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Job",
    "Trace",
    "Characteristic",
    "FieldCatalog",
    "WORKLOAD_FIELDS",
    "SyntheticWorkloadSpec",
    "generate_trace",
    "ANL",
    "CTC",
    "SDSC95",
    "SDSC96",
    "PAPER_WORKLOADS",
    "load_paper_workload",
    "compress_interarrival",
    "head",
    "filter_jobs",
    "merge",
    "shift",
    "TraceSummary",
    "summarize",
    "feitelson_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.job": ("Job", "Trace"),
    "repro.workloads.fields": ("Characteristic", "FieldCatalog", "WORKLOAD_FIELDS"),
    "repro.workloads.synthetic": ("SyntheticWorkloadSpec", "generate_trace"),
    "repro.workloads.archive": (
        "ANL", "CTC", "SDSC95", "SDSC96", "PAPER_WORKLOADS", "load_paper_workload",
    ),
    "repro.workloads.transform": ("compress_interarrival", "head", "filter_jobs", "merge", "shift"),
    "repro.workloads.stats": ("TraceSummary", "summarize"),
    "repro.workloads.feitelson": ("feitelson_trace",),
})
