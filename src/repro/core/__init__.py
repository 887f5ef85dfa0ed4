"""Experiment drivers reproducing the paper's tables.

- :mod:`repro.core.registry` — named factories for predictors and
  policies, so experiments are configured by strings;
- :mod:`repro.core.experiment` — the two experiment families: wait-time
  prediction accuracy (Tables 4-9) and scheduling performance
  (Tables 10-15), plus run-time prediction accuracy and the compressed-
  interarrival study;
- :mod:`repro.core.parallel` — ``run_grid``, the one driver of a
  table's (workload, algorithm, predictor) cell grid, in process or on a
  process pool with deterministic per-cell regeneration, each cell
  once;
- :mod:`repro.core.tables` — plain-text rendering in the paper's layout.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PREDICTOR_NAMES",
    "POLICY_NAMES",
    "make_policy",
    "make_predictor",
    "SchedulingCell",
    "WaitTimeCell",
    "RuntimePredictionCell",
    "run_scheduling_experiment",
    "run_wait_time_experiment",
    "run_runtime_prediction_experiment",
    "CellSpec",
    "CellResult",
    "CellFailure",
    "ExperimentPlan",
    "TableRun",
    "ParallelExecutionError",
    "execute_cell",
    "run_grid",
    "run_table_parallel",
    "round_half_up",
    "format_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.registry": ("PREDICTOR_NAMES", "POLICY_NAMES", "make_policy", "make_predictor"),
    "repro.core.parallel": (
        "CellFailure", "CellResult", "CellSpec", "ExperimentPlan", "ParallelExecutionError",
        "TableRun", "execute_cell", "run_grid", "run_table_parallel",
    ),
    "repro.core.rounding": ("round_half_up",),
    "repro.core.experiment": (
        "SchedulingCell", "WaitTimeCell", "RuntimePredictionCell", "run_scheduling_experiment",
        "run_wait_time_experiment", "run_runtime_prediction_experiment",
    ),
    "repro.core.tables": ("format_table",),
})
