"""Queue wait-time prediction (paper §3).

When a job is submitted, predict the run time of every job in the system
(conditioning running jobs on their elapsed time), then simulate the
scheduler forward over those predictions — with no future arrivals — to
find when the new job would start.  The difference between that start and
the submission time is the predicted wait.

- :mod:`repro.waitpred.predictor` — the simulator observer that issues a
  prediction at every submission;
- :mod:`repro.waitpred.evaluation` — error accounting against the actual
  waits of the real schedule (the paper's mean-error-in-minutes and
  percentage-of-mean-wait columns).
"""

from repro._lazy import lazy_exports

__all__ = [
    "WaitTimePredictor",
    "predict_wait",
    "WaitPredictionReport",
    "evaluate_wait_predictions",
    "UnknownJobError",
    "fcfs_predicted_start",
    "fcfs_predicted_starts",
    "backfill_predicted_start",
    "backfill_predicted_starts",
    "predict_start_fast",
    "StateBasedWaitPredictor",
    "StateFeatures",
    "StateTemplate",
    "DEFAULT_STATE_TEMPLATES",
    "WaitInterval",
    "predict_wait_interval",
    "EncodedSnapshot",
    "SweepPoint",
    "encode_snapshot",
    "sample_durations",
    "predict_starts_batch",
    "scalar_starts",
    "sweep_estimates",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.waitpred.predictor": ("WaitTimePredictor", "predict_wait"),
    "repro.waitpred.evaluation": ("WaitPredictionReport", "evaluate_wait_predictions"),
    "repro.waitpred.fast": (
        "UnknownJobError", "backfill_predicted_start", "backfill_predicted_starts",
        "fcfs_predicted_start", "fcfs_predicted_starts", "predict_start_fast",
    ),
    "repro.waitpred.manyworlds": (
        "EncodedSnapshot", "SweepPoint", "encode_snapshot", "predict_starts_batch",
        "sample_durations", "scalar_starts", "sweep_estimates",
    ),
    "repro.waitpred.statebased": (
        "DEFAULT_STATE_TEMPLATES", "StateBasedWaitPredictor", "StateFeatures", "StateTemplate",
    ),
    "repro.waitpred.uncertainty": ("WaitInterval", "predict_wait_interval"),
})
