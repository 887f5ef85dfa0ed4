"""Named factories for predictors and policies.

Experiments identify their configuration by short strings — the same
labels the paper's tables use — and build fresh, stateless-history
instances per run through these factories.
"""

from __future__ import annotations

from typing import Iterable

from repro.predictors.base import RuntimePredictor
from repro.predictors.templates import Template
from repro.scheduler.policies import (
    BackfillPolicy,
    EASYBackfillPolicy,
    FCFSPolicy,
    LWFPolicy,
    Policy,
)
from repro.workloads.job import Trace

__all__ = ["PREDICTOR_NAMES", "POLICY_NAMES", "make_predictor", "make_policy"]

#: Predictors in the order the paper's tables present them.  The extra
#: "smith-tuned" entry uses the per-workload GA-searched template sets
#: of :mod:`repro.predictors.tuned` (the paper's actual methodology;
#: plain "smith" uses the curated defaults).  The three trailing
#: "online-*"/"decayed-*" entries are the adaptive online learners of
#: :mod:`repro.predictors.adaptive`, which post-date the paper.
PREDICTOR_NAMES: tuple[str, ...] = (
    "actual",
    "max",
    "smith",
    "smith-tuned",
    "gibbons",
    "downey-average",
    "downey-median",
    "online-mean",
    "online-rls",
    "decayed-mean",
)

POLICY_NAMES: tuple[str, ...] = ("fcfs", "lwf", "backfill", "easy")


def make_predictor(
    name: str,
    trace: Trace,
    *,
    templates: Iterable[Template] | None = None,
) -> RuntimePredictor:
    """Build a fresh predictor for ``trace``.

    ``templates`` overrides the Smith predictor's template set (e.g. one
    found by the genetic search); other predictors ignore it.  Each
    branch imports its own predictor module, so a run loads only the
    predictors it names.
    """
    if name == "actual":
        from repro.predictors.simple import ActualRuntimePredictor

        return ActualRuntimePredictor()
    if name == "max":
        from repro.predictors.simple import MaxRuntimePredictor

        # Per-queue maxima are derived from the whole trace, as the paper
        # does for the SDSC workloads; user-supplied maxima win when present.
        return MaxRuntimePredictor.from_trace(trace)
    if name == "smith":
        from repro.predictors.smith import SmithPredictor

        if templates is not None:
            return SmithPredictor(templates)
        return SmithPredictor.for_trace(trace)
    if name == "smith-tuned":
        from repro.predictors.smith import SmithPredictor

        if templates is not None:
            return SmithPredictor(templates)
        from repro.predictors.tuned import TUNED_TEMPLATES

        # Compressed traces ("SDSC95x2") carry their workload identity
        # explicitly; parsing the display name would misread any base
        # name that itself contains an "x".
        tuned = TUNED_TEMPLATES.get(trace.base_name)
        if tuned is not None:
            return SmithPredictor(tuned)
        return SmithPredictor.for_trace(trace)
    if name == "online-mean":
        from repro.predictors.adaptive import OnlineMeanPredictor

        return OnlineMeanPredictor.for_trace(trace)
    if name == "online-rls":
        from repro.predictors.adaptive import OnlineRegressionPredictor

        return OnlineRegressionPredictor.for_trace(trace)
    if name == "decayed-mean":
        from repro.predictors.adaptive import DecayedMeanPredictor

        return DecayedMeanPredictor.for_trace(trace)
    if name == "gibbons":
        from repro.predictors.gibbons import GibbonsPredictor

        return GibbonsPredictor()
    if name in ("downey-average", "downey-median"):
        from repro.predictors.downey import DowneyPredictor

        return DowneyPredictor(name.removeprefix("downey-"))
    raise KeyError(f"unknown predictor {name!r}; expected one of {PREDICTOR_NAMES}")


def make_policy(name: str) -> Policy:
    if name == "fcfs":
        return FCFSPolicy()
    if name == "lwf":
        return LWFPolicy()
    if name == "backfill":
        return BackfillPolicy()
    if name == "easy":
        return EASYBackfillPolicy()
    raise KeyError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
