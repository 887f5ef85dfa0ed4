"""Experiment harnesses beyond the paper's table grids.

- :mod:`repro.experiments.misprediction` — the misprediction-cost
  harness: inject controlled error into the run-time oracle, replay the
  scheduler, and map prediction error to schedule degradation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_ERROR_LEVELS",
    "DegradationCurve",
    "ErrorModel",
    "MispredictionCell",
    "NoisyPredictor",
    "run_misprediction_campaign",
    "run_misprediction_experiment",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.misprediction": (
        "DEFAULT_ERROR_LEVELS", "DegradationCurve", "ErrorModel", "MispredictionCell",
        "NoisyPredictor", "run_misprediction_campaign", "run_misprediction_experiment",
    ),
})
