"""Run-time predictors.

The paper's central objects: given a job (and possibly how long it has
already run), estimate its total run time.  Implemented families:

- :mod:`repro.predictors.smith` — the paper's contribution: template-based
  categories with smallest-confidence-interval selection;
- :mod:`repro.predictors.gibbons` — Gibbons' fixed template hierarchy
  (Table 3) with variance-weighted cross-category regression;
- :mod:`repro.predictors.downey` — Downey's log-uniform conditional
  median / conditional average estimators, categorized by queue;
- :mod:`repro.predictors.simple` — the two baselines: actual run times
  (oracle) and user-supplied maximum run times (EASY-style);
- :mod:`repro.predictors.adaptive` — online learners that update per
  completion: incremental mean, recursive least squares, decayed mean;
- :mod:`repro.predictors.ga` — the genetic-algorithm template search;
- :mod:`repro.predictors.replay` — online replay of a trace through a
  predictor to score its accuracy.

All predictors implement :class:`repro.predictors.base.RuntimePredictor`;
:class:`repro.predictors.base.PointEstimator` adapts any of them (plus a
fallback chain) into the plain ``predict -> float`` estimator the
scheduler consumes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Prediction",
    "RuntimePredictor",
    "PointEstimator",
    "warm_start",
    "Template",
    "default_templates",
    "Category",
    "DataPoint",
    "SmithPredictor",
    "GibbonsPredictor",
    "DowneyPredictor",
    "ActualRuntimePredictor",
    "MaxRuntimePredictor",
    "OnlineMeanPredictor",
    "OnlineRegressionPredictor",
    "DecayedMeanPredictor",
    "GAConfig",
    "TemplateSearch",
    "search_templates",
    "replay_prediction_error",
    "ReplayReport",
    "PredictionWorkload",
    "record_prediction_workload",
    "replay_workload_error",
    "TUNED_TEMPLATES",
    "tuned_templates",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.predictors.base": ("Prediction", "RuntimePredictor", "PointEstimator", "warm_start"),
    "repro.predictors.templates": ("Template", "default_templates"),
    "repro.predictors.category": ("Category", "DataPoint"),
    "repro.predictors.smith": ("SmithPredictor",),
    "repro.predictors.gibbons": ("GibbonsPredictor",),
    "repro.predictors.downey": ("DowneyPredictor",),
    "repro.predictors.simple": ("ActualRuntimePredictor", "MaxRuntimePredictor"),
    "repro.predictors.adaptive": (
        "DecayedMeanPredictor", "OnlineMeanPredictor", "OnlineRegressionPredictor",
    ),
    "repro.predictors.ga": ("GAConfig", "TemplateSearch", "search_templates"),
    "repro.predictors.replay": ("replay_prediction_error", "ReplayReport"),
    "repro.predictors.prediction_workload": (
        "PredictionWorkload", "record_prediction_workload", "replay_workload_error",
    ),
    "repro.predictors.tuned": ("TUNED_TEMPLATES", "tuned_templates"),
})
