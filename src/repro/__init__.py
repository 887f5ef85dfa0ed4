"""repro — reproduction of Smith, Taylor & Foster (IPPS 1999).

*Using Run-Time Predictions to Estimate Queue Wait Times and Improve
Scheduler Performance.*

The package is organized bottom-up:

- :mod:`repro.workloads` — job/trace records, SWF I/O, synthetic
  generators for the four paper workloads (ANL, CTC, SDSC95, SDSC96);
- :mod:`repro.stats` — confidence intervals and regressions;
- :mod:`repro.scheduler` — the event-driven FCFS/LWF/backfill simulator;
- :mod:`repro.predictors` — run-time predictors (Smith templates + GA
  search, Gibbons, Downey, actual, user maxima);
- :mod:`repro.waitpred` — wait-time prediction by forward simulation;
- :mod:`repro.core` — experiment drivers regenerating every paper table;
- :mod:`repro.experiments` — harnesses beyond the paper's grids
  (misprediction cost: injected error → schedule degradation).

Quickstart::

    from repro import load_paper_workload, run_scheduling_experiment

    trace = load_paper_workload("ANL", n_jobs=2000)
    cell, result = run_scheduling_experiment(trace, "backfill", "smith")
    print(cell.utilization_percent, cell.mean_wait_minutes)
"""

from repro._version import __version__
from repro._lazy import lazy_exports

__all__ = [
    "__version__",
    "Job",
    "Trace",
    "load_paper_workload",
    "generate_trace",
    "SyntheticWorkloadSpec",
    "compress_interarrival",
    "summarize",
    "feitelson_trace",
    "validate_schedule",
    "SmithPredictor",
    "GibbonsPredictor",
    "DowneyPredictor",
    "ActualRuntimePredictor",
    "MaxRuntimePredictor",
    "Template",
    "PointEstimator",
    "search_templates",
    "GAConfig",
    "Simulator",
    "FCFSPolicy",
    "LWFPolicy",
    "BackfillPolicy",
    "EASYBackfillPolicy",
    "Reservation",
    "forward_simulate",
    "WaitTimePredictor",
    "predict_wait",
    "predict_wait_interval",
    "evaluate_wait_predictions",
    "StateBasedWaitPredictor",
    "warm_start",
    "OnlineMeanPredictor",
    "OnlineRegressionPredictor",
    "DecayedMeanPredictor",
    "ErrorModel",
    "NoisyPredictor",
    "run_misprediction_campaign",
    "run_misprediction_experiment",
    "run_wait_time_experiment",
    "run_scheduling_experiment",
    "run_runtime_prediction_experiment",
    "run_grid",
    "make_policy",
    "make_predictor",
    "format_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads": (
        "Job", "Trace", "load_paper_workload", "generate_trace", "SyntheticWorkloadSpec",
        "compress_interarrival", "summarize", "feitelson_trace",
    ),
    "repro.scheduler": (
        "validate_schedule", "Simulator", "FCFSPolicy", "LWFPolicy", "BackfillPolicy",
        "EASYBackfillPolicy", "Reservation", "forward_simulate",
    ),
    "repro.predictors": (
        "SmithPredictor", "GibbonsPredictor", "DowneyPredictor", "ActualRuntimePredictor",
        "MaxRuntimePredictor", "Template", "PointEstimator", "search_templates", "GAConfig",
        "warm_start", "OnlineMeanPredictor", "OnlineRegressionPredictor", "DecayedMeanPredictor",
    ),
    "repro.waitpred": (
        "WaitTimePredictor", "predict_wait", "predict_wait_interval", "evaluate_wait_predictions",
        "StateBasedWaitPredictor",
    ),
    "repro.experiments": (
        "ErrorModel", "NoisyPredictor", "run_misprediction_campaign",
        "run_misprediction_experiment",
    ),
    "repro.core": (
        "run_wait_time_experiment", "run_scheduling_experiment",
        "run_runtime_prediction_experiment", "run_grid", "make_policy", "make_predictor",
        "format_table",
    ),
})
