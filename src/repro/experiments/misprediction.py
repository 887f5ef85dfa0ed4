"""The misprediction-cost harness: what prediction error costs the scheduler.

Every predictor experiment in :mod:`repro.core.experiment` measures
accuracy *or* schedule quality; this harness measures the exchange rate
between them, in the spirit of Mitzenmacher's "Scheduling with
Predictions and the Price of Misprediction".  A :class:`NoisyPredictor`
wraps the run-time oracle and perturbs each prediction with a
controlled, seeded error distribution; replaying the same workload and
policy across a ladder of error levels yields a **degradation curve** —
prediction error in, mean-wait/slowdown degradation out.

Design constraints, all load-bearing:

- **Purity.**  The injected noise is a deterministic function of
  ``(seed, job_id)``, never of call count or wall clock, so a
  :class:`NoisyPredictor` is as pure as its base predictor and the
  simulator's epoch-keyed estimate cache stays exact (the epoch contract
  of :mod:`repro.predictors.base`).
- **Zero-error identity.**  At ``level == 0`` the wrapped prediction is
  returned *unchanged* (same object, no float round trip), so the
  zero-error cell of every curve is bit-identical to the plain oracle
  cell — asserted in ``tests/test_misprediction.py``.
- **Injection audit.**  Each cell records injected-vs-realized error
  through :class:`repro.obs.accuracy.AccuracyMonitor`, so the same tail
  metrics (p99/p50 ratio) that score real predictors validate that the
  injected distribution is the one asked for.

Cells fan across worker processes through the existing parallel table
layer (:mod:`repro.core.parallel`) — ``kind="misprediction"`` specs ride
the same plan and failure containment as the paper tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.accuracy import AccuracyMonitor
from repro.predictors.base import PointEstimator, Prediction, RuntimePredictor
from repro.scheduler.metrics import ScheduleResult
from repro.scheduler.simulator import Simulator
from repro.utils.timeutils import seconds_to_minutes
from repro.workloads.job import Job, Trace

__all__ = [
    "ERROR_KINDS",
    "DEFAULT_ERROR_LEVELS",
    "ErrorModel",
    "NoisyPredictor",
    "MispredictionCell",
    "DegradationCurve",
    "run_misprediction_experiment",
    "run_misprediction_campaign",
]

#: Supported injected-error families.
ERROR_KINDS = ("multiplicative", "additive")

#: The default error ladder: the exact-oracle anchor plus three
#: log-spaced levels (sigma of the log-normal factor for multiplicative
#: noise; seconds of Gaussian offset for additive noise).
DEFAULT_ERROR_LEVELS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class ErrorModel:
    """A controlled error distribution applied to run-time predictions.

    ``multiplicative`` scales the estimate by ``exp(level · g)`` with
    ``g ~ N(0, 1)`` — a median-preserving log-normal factor whose
    magnitude is the paper-style *relative* error (level 0.5 ≈ ±65%
    typical misprediction).  ``additive`` shifts by ``level · g``
    seconds, floored at zero.  ``level == 0`` is the exact oracle for
    both kinds.
    """

    kind: str = "multiplicative"
    level: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(
                f"unknown error kind {self.kind!r}; expected one of {ERROR_KINDS}"
            )
        if not 0.0 <= self.level < math.inf:
            raise ValueError(f"level must be finite and >= 0, got {self.level}")

    def gauss(self, job_id: int) -> float:
        """The job's standard-normal draw — a pure function of (seed, id).

        Seeding with a string routes through ``random.Random``'s SHA-512
        path, which is stable across processes and interpreter runs
        (unlike ``hash``-based seeding under ``PYTHONHASHSEED``).
        """
        return random.Random(f"misprediction:{self.seed}:{job_id}").gauss(0.0, 1.0)

    def apply(self, estimate: float, job_id: int) -> float:
        """Perturb ``estimate`` for ``job_id``; identity at level 0."""
        if self.level == 0.0:
            return estimate
        g = self.gauss(job_id)
        if self.kind == "multiplicative":
            return estimate * math.exp(self.level * g)
        return max(estimate + self.level * g, 0.0)

    def describe(self) -> str:
        return f"{self.kind}@{self.level:g}"


class NoisyPredictor(RuntimePredictor):
    """Wrap a predictor and inject an :class:`ErrorModel` into estimates.

    Forwards the lifecycle hooks and proxies ``history_epoch`` /
    ``elapsed_invariant``, so the wrapper is exactly as cacheable as its
    base.  Confidence-interval half-widths pass through unchanged — the
    harness studies *point*-estimate error, which is all the scheduler
    consumes.
    """

    def __init__(self, base: RuntimePredictor, model: ErrorModel) -> None:
        self.base = base
        self.model = model
        self.name = f"noisy-{model.describe()}({base.name})"
        #: Noise factors are deterministic per job id; memoize them so a
        #: replay's many predictions per job hash one string each.
        self._noise_cache: dict[int, float] = {}

    @property
    def history_epoch(self) -> int | None:
        return self.base.history_epoch

    @property
    def elapsed_invariant(self) -> bool:
        return self.base.elapsed_invariant

    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        pred = self.base.predict(job, elapsed, now)
        if pred is None or self.model.level == 0.0:
            # Zero-error identity: the base Prediction object itself, so
            # level-0 cells are bit-identical to un-wrapped oracle cells.
            return pred
        g = self._noise_cache.get(job.job_id)
        if g is None:
            g = self._noise_cache[job.job_id] = self.model.gauss(job.job_id)
        if self.model.kind == "multiplicative":
            est = pred.estimate * math.exp(self.model.level * g)
        else:
            est = max(pred.estimate + self.model.level * g, 0.0)
        return Prediction(estimate=est, interval=pred.interval, source=self.name)

    def on_submit(self, job: Job, now: float) -> None:
        self.base.on_submit(job, now)

    def on_start(self, job: Job, now: float) -> None:
        self.base.on_start(job, now)

    def on_finish(self, job: Job, now: float) -> None:
        self.base.on_finish(job, now)


@dataclass(frozen=True)
class MispredictionCell:
    """One (workload, policy, error-level) replay outcome."""

    workload: str
    algorithm: str
    base_predictor: str
    error_kind: str
    error_level: float
    error_seed: int
    utilization_percent: float
    mean_wait_minutes: float
    mean_bounded_slowdown: float
    n_jobs: int
    #: Injected-vs-realized run-time error over the replayed jobs.
    injected_mae_minutes: float
    injected_p99_minutes: float
    injected_tail_ratio: float | None
    #: Full AccuracyMonitor snapshot of the injection (excluded from
    #: equality, like the cells of repro.core.experiment).
    accuracy: dict | None = field(default=None, compare=False, repr=False)
    #: Registry snapshot of the replay that produced the cell.
    metrics: dict | None = field(default=None, compare=False, repr=False)

    def as_row(self) -> dict[str, object]:
        return {
            "Workload": self.workload,
            "Scheduling Algorithm": self.algorithm,
            "Error": self.error_kind,
            "Level": self.error_level,
            "Injected MAE (min)": round(self.injected_mae_minutes, 2),
            "Mean Wait Time (minutes)": round(self.mean_wait_minutes, 2),
            "Utilization (percent)": round(self.utilization_percent, 2),
            "Bounded Slowdown": round(self.mean_bounded_slowdown, 2),
        }


@dataclass(frozen=True)
class DegradationCurve:
    """One policy's error-level ladder on one workload, zero-anchored."""

    workload: str
    algorithm: str
    error_kind: str
    cells: tuple[MispredictionCell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a degradation curve needs at least one cell")
        levels = [c.error_level for c in self.cells]
        if levels != sorted(levels):
            raise ValueError(f"cells must be ordered by error level, got {levels}")

    @property
    def baseline(self) -> MispredictionCell:
        """The lowest-level cell (level 0 anchors the curve exactly)."""
        return self.cells[0]

    def degradation_percent(self, cell: MispredictionCell) -> float | None:
        """Mean-wait change vs the baseline cell, in percent.

        ``None`` when the baseline wait is zero (degenerate tiny traces).
        """
        base = self.baseline.mean_wait_minutes
        if base <= 0.0:
            return None
        return 100.0 * (cell.mean_wait_minutes - base) / base

    def rows(self) -> list[dict[str, object]]:
        """Table-ready rows, one per level, with the Δ-wait column."""
        out = []
        for cell in self.cells:
            row = cell.as_row()
            deg = self.degradation_percent(cell)
            row["Wait vs oracle (%)"] = "-" if deg is None else round(deg, 1)
            out.append(row)
        return out


def _injection_audit(
    trace: Trace, noisy: NoisyPredictor, *, window: int
) -> AccuracyMonitor:
    """Score the injected estimates against the realized run times.

    Exact for history-free bases (the oracle, the harness default): the
    noisy submission-time estimate is a pure function of the job, so
    probing after the replay reproduces it bit-for-bit.
    """
    monitor = AccuracyMonitor(window=window)
    for job in trace:
        pred = noisy.predict(job, 0.0, job.submit_time)
        if pred is None:
            continue
        monitor.observe(
            "run_time", noisy.name, pred.estimate, job.run_time, key=pred.source
        )
    return monitor


def run_misprediction_experiment(
    trace: Trace,
    policy_name: str,
    model: ErrorModel,
    *,
    base_predictor: str = "actual",
) -> tuple[MispredictionCell, ScheduleResult]:
    """One cell: replay ``trace`` under ``policy_name`` with injected error.

    Mirrors :func:`repro.core.experiment.run_scheduling_experiment` —
    same simulator, same estimator plumbing — except the predictor is
    ``base_predictor`` wrapped in a :class:`NoisyPredictor`.  At
    ``model.level == 0`` the schedule is bit-identical to the plain
    ``base_predictor`` cell.
    """
    from repro.core.registry import make_policy, make_predictor

    policy = make_policy(policy_name)
    noisy = NoisyPredictor(make_predictor(base_predictor, trace), model)
    sim = Simulator(policy, PointEstimator(noisy), trace.total_nodes)
    result = sim.run(trace)

    monitor = _injection_audit(trace, noisy, window=min(len(trace), 200) or 1)
    groups = monitor.groups()
    stats = groups[0].snapshot() if groups else None
    cell = MispredictionCell(
        workload=trace.name,
        algorithm=policy.name,
        base_predictor=base_predictor,
        error_kind=model.kind,
        error_level=model.level,
        error_seed=model.seed,
        utilization_percent=result.utilization_percent,
        mean_wait_minutes=result.mean_wait_minutes,
        mean_bounded_slowdown=result.mean_bounded_slowdown(),
        n_jobs=len(result),
        injected_mae_minutes=seconds_to_minutes(stats["mae"]) if stats else 0.0,
        injected_p99_minutes=seconds_to_minutes(stats["p99"] or 0.0) if stats else 0.0,
        injected_tail_ratio=stats["tail_ratio"] if stats else None,
        accuracy=monitor.snapshot(),
        metrics=sim.metrics_snapshot(),
    )
    return cell, result


def run_misprediction_campaign(
    *,
    workloads: Sequence[str] | Sequence[Trace] | None = None,
    algorithms: Sequence[str] = ("backfill", "easy"),
    levels: Sequence[float] = DEFAULT_ERROR_LEVELS,
    kind: str = "multiplicative",
    noise_seed: int = 0,
    base_predictor: str = "actual",
    n_jobs: int | None = None,
    seed: int | None = None,
    max_workers: int = 1,
    telemetry=None,
) -> list[DegradationCurve]:
    """The (workload × policy × error-level) grid, as degradation curves.

    ``levels`` is sorted ascending and anchored: a run that omits level
    0 still produces curves, but their baseline is the lowest level
    rather than the exact oracle.  The grid runs on
    :func:`repro.core.parallel.run_grid`: ``max_workers > 1`` fans the
    cells across worker processes with its plan order, each cell once;
    ``telemetry`` (a
    :class:`repro.obs.campaign.CampaignTelemetry`) makes that run an
    observable campaign and applies to the parallel path only.
    """
    from repro.core.parallel import run_grid

    if not levels:
        raise ValueError("at least one error level is required")
    cells = run_grid(
        "misprediction",
        workloads=workloads,
        algorithms=algorithms,
        predictors=(base_predictor,),
        levels=levels,
        n_jobs=n_jobs,
        seed=seed,
        error_kind=kind,
        error_seed=noise_seed,
        max_workers=max_workers,
        telemetry=telemetry,
    )
    # Grid order makes each (workload, policy) ladder a run of len(levels).
    ladders = (
        tuple(cells[i:i + len(levels)]) for i in range(0, len(cells), len(levels))
    )
    return [
        DegradationCurve(
            workload=ladder[0].workload,
            algorithm=ladder[0].algorithm,
            error_kind=kind,
            cells=ladder,
        )
        for ladder in ladders
    ]
