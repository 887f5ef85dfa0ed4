"""The grid layer: one cell order, one per-cell dispatch, one driver.

The paper's results are 12 tables of independent (workload, algorithm,
predictor) replay cells; the misprediction harness adds an error-level
axis.  Every grid — the CLI's table commands, the report generator, the
table benches and the harness — runs through :func:`run_grid`:
:func:`grid_cells` fixes the cell order, :func:`run_cell` replays one
cell of any kind, and ``max_workers`` picks between replaying in
process and executing an :class:`ExperimentPlan` of :class:`CellSpec`
records on a :class:`concurrent.futures.ProcessPoolExecutor`:

- **Determinism.**  Nothing unpicklable crosses the process boundary: a
  spec names its workload plus the ``(n_jobs, seed, compress)``
  generation recipe, and each worker regenerates the trace from that —
  the synthetic generator is seed-deterministic, so every worker sees
  the identical trace the serial driver would, and a per-process cache
  rebuilds each distinct trace once no matter how many cells share it.
- **Stable order.**  Results come back in plan order regardless of
  completion order, so a parallel table equals the serial one
  cell-for-cell.
- **Failure containment.**  Every cell runs exactly once.  A worker
  exception is recorded as a structured :class:`CellFailure` on the
  cell's :class:`CellResult` instead of crashing the run; the cells are
  deterministic, so running a failed one again would fail the same way.
- **Metrics.**  Each cell carries its own registry snapshot;
  :func:`repro.obs.metrics.merge_snapshots` folds them into one
  run-level view.
- **Telemetry.**  Pass a :class:`~repro.obs.campaign.CampaignTelemetry`
  and the driver journals the campaign event schema (dispatch, finish,
  failure, heartbeats) and ships each cell's worker-side
  resource bill (wall/CPU/peak-RSS) back on its :class:`CellResult`.
  The default ``telemetry=None`` keeps the original zero-cost path:
  the worker callable submitted to the pool is then *identical* to the
  untelemetered one, and cell results are bit-for-bit the same either
  way (the resource probe wraps the cell function; it never reaches
  into it).

:func:`run_grid` and ``run_misprediction_campaign`` expose this through
their ``max_workers=`` parameter (default 1 replays in process), the CLI
through ``--parallel N`` on the grid subcommands.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.experiment import (
    SchedulingCell,
    WaitTimeCell,
    _resolve_traces,
    load_trace,
    run_scheduling_experiment,
    run_wait_time_experiment,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.misprediction import MispredictionCell
from repro.obs.campaign import (
    CampaignTelemetry,
    CellResources,
    capture_resources,
    resource_probe,
)
from repro.workloads.archive import PAPER_WORKLOADS
from repro.workloads.job import Trace

__all__ = [
    "CellSpec",
    "CellFailure",
    "CellResult",
    "ExperimentPlan",
    "TableRun",
    "ParallelExecutionError",
    "execute_cell",
    "grid_cells",
    "run_cell",
    "run_grid",
    "run_table_parallel",
]

#: The two table families of the paper (Tables 4-9 and 10-15) plus the
#: misprediction-cost grid (repro.experiments.misprediction).
CELL_KINDS = ("wait-time", "scheduling", "misprediction")


class ParallelExecutionError(RuntimeError):
    """Raised by the grid driver when parallel cells failed.

    The message names every failed cell by its full spec coordinates
    (:meth:`CellSpec.describe`) with its error — enough to re-run the
    exact cells without digging through a journal.
    """

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures = tuple(failures)
        lines = [f"{len(self.failures)} cell(s) failed:"]
        for f in self.failures:
            lines.append(f"  - {f.spec.describe()}: {f.error}")
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class CellSpec:
    """One replay cell, described by value so it pickles trivially.

    The trace itself never crosses the process boundary — the worker
    regenerates it from ``(workload, n_jobs, seed, compress)``, the same
    recipe :func:`repro.workloads.archive.load_paper_workload` stamps on
    every generated trace's ``provenance``.
    """

    kind: str
    workload: str
    algorithm: str
    predictor: str
    n_jobs: int | None = None
    seed: int | None = None
    compress: float = 1.0
    #: Misprediction cells only: the injected error distribution (see
    #: repro.experiments.misprediction.ErrorModel).  ``predictor`` then
    #: names the *base* predictor the noise wraps.
    error_kind: str | None = None
    error_level: float = 0.0
    error_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"kind must be one of {CELL_KINDS}, got {self.kind!r}")
        if self.workload not in PAPER_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{sorted(PAPER_WORKLOADS)}"
            )
        if self.compress <= 0:
            raise ValueError(f"compress must be positive, got {self.compress}")
        if self.kind == "misprediction" and self.error_kind is None:
            raise ValueError("misprediction cells require an error_kind")

    def describe(self) -> str:
        """Human-oriented cell coordinates: ``workload/algorithm/predictor``,
        plus the injected error model for misprediction cells."""
        coords = f"{self.workload}/{self.algorithm}/{self.predictor}"
        if self.kind == "misprediction":
            coords += f" [{self.error_kind} error, level={self.error_level:g}]"
        return coords

    @classmethod
    def from_trace(
        cls,
        kind: str,
        trace: Trace,
        algorithm: str,
        predictor: str,
        *,
        error_kind: str | None = None,
        error_level: float = 0.0,
        error_seed: int = 0,
    ) -> CellSpec:
        """Describe a cell over an already-loaded paper trace.

        Requires the trace's regeneration ``provenance`` (stamped by
        :func:`load_paper_workload`; content-changing transforms drop
        it) — without one, the worker could not rebuild the same trace.
        """
        if trace.provenance is None:
            raise ValueError(
                f"trace {trace.name!r} has no regeneration provenance; "
                "pass workload names (or traces from load_paper_workload) "
                "to the parallel path, or run with max_workers=1"
            )
        p = trace.provenance
        return cls(
            kind=kind,
            workload=p["workload"],
            algorithm=algorithm,
            predictor=predictor,
            n_jobs=p.get("n_jobs"),
            seed=p.get("seed"),
            compress=p.get("compress", 1.0),
            error_kind=error_kind,
            error_level=error_level,
            error_seed=error_seed,
        )


@dataclass(frozen=True)
class CellFailure:
    """A cell whose worker raised, kept as data instead of a crash."""

    spec: CellSpec
    error: str


@dataclass
class CellResult:
    """Outcome slot for one planned cell, in plan order."""

    spec: CellSpec
    index: int
    cell: WaitTimeCell | SchedulingCell | MispredictionCell | None = None
    failure: CellFailure | None = None
    duration_s: float = 0.0
    #: Worker-side resource bill — populated only on telemetered runs.
    resources: CellResources | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.cell is not None


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered grid of cells — the unit :func:`run_table_parallel` runs."""

    cells: tuple[CellSpec, ...]

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def for_grid(
        cls,
        kind: str,
        *,
        workloads: Sequence[str] | Sequence[Trace] | None = None,
        algorithms: Sequence[str],
        predictors: Sequence[str],
        levels: Sequence[float] = (0.0,),
        n_jobs: int | None = None,
        seed: int | None = None,
        compress: float = 1.0,
        error_kind: str | None = None,
        error_seed: int = 0,
    ) -> ExperimentPlan:
        """The specs of :func:`grid_cells`, in its order.

        A workload name carries the ``(n_jobs, seed, compress)`` recipe
        itself; a :class:`Trace` contributes its regeneration provenance
        (:meth:`CellSpec.from_trace`).  ``predictors`` name the *base*
        predictor of misprediction cells, whose noise is ``error_kind``
        at each of ``levels``.
        """
        specs = []
        for w, algo, pred, level in grid_cells(
            workloads, algorithms, predictors, levels
        ):
            coords = dict(
                algorithm=algo,
                predictor=pred,
                error_kind=error_kind,
                error_level=level,
                error_seed=error_seed,
            )
            if isinstance(w, Trace):
                specs.append(CellSpec.from_trace(kind, w, **coords))
            else:
                specs.append(
                    CellSpec(kind=kind, workload=w, n_jobs=n_jobs, seed=seed,
                             compress=compress, **coords)
                )
        return cls(cells=tuple(specs))


def grid_cells(
    workloads: Sequence[str] | Sequence[Trace] | None,
    algorithms: Sequence[str],
    predictors: Sequence[str],
    levels: Sequence[float] = (0.0,),
):
    """The one cell order of every grid, as coordinate tuples.

    Workload → algorithm → predictor → error level (ascending);
    ``workloads=None`` means all four paper workloads.  Each caller
    varies at most one of the last two axes.
    """
    if workloads is None:
        workloads = tuple(PAPER_WORKLOADS)
    return product(workloads, algorithms, predictors, sorted(levels))


@dataclass
class TableRun:
    """Every planned cell's outcome, in plan order."""

    results: list[CellResult] = field(default_factory=list)

    @property
    def cells(self) -> list[WaitTimeCell | SchedulingCell | MispredictionCell]:
        """Successful cells in plan order."""
        return [r.cell for r in self.results if r.ok]

    @property
    def failures(self) -> list[CellFailure]:
        return [r.failure for r in self.results if r.failure is not None]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process trace cache: workers are reused across cells, and every
#: cell of a table shares its workload's trace with up to two others.
_TRACE_CACHE: dict[tuple, Trace] = {}


def _cell_trace(spec: CellSpec) -> Trace:
    key = (spec.workload, spec.n_jobs, spec.seed, spec.compress)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = _TRACE_CACHE[key] = load_trace(*key)
    return trace


def run_cell(
    kind: str,
    trace: Trace,
    algorithm: str,
    predictor: str,
    *,
    error_kind: str | None = None,
    error_level: float = 0.0,
    error_seed: int = 0,
) -> WaitTimeCell | SchedulingCell | MispredictionCell:
    """Replay one grid cell of any kind over an in-memory trace.

    The one per-kind dispatch: both the in-process driver and pool
    workers (:func:`execute_cell`) call it.
    """
    if kind == "wait-time":
        cell, _, _ = run_wait_time_experiment(trace, algorithm, predictor)
        return cell
    if kind == "misprediction":
        # Imported here: repro.experiments depends on this module for
        # its grid driver, so the reverse edge must stay lazy.
        from repro.experiments.misprediction import (
            ErrorModel,
            run_misprediction_experiment,
        )

        cell, _ = run_misprediction_experiment(
            trace,
            algorithm,
            ErrorModel(kind=error_kind, level=error_level, seed=error_seed),
            base_predictor=predictor,
        )
        return cell
    cell, _ = run_scheduling_experiment(trace, algorithm, predictor)
    return cell


def execute_cell(spec: CellSpec) -> WaitTimeCell | SchedulingCell | MispredictionCell:
    """Run one cell from scratch — the function shipped to pool workers.

    Also usable inline: ``execute_cell(spec)`` in the parent process is
    exactly one serial-driver cell.
    """
    return run_cell(
        spec.kind,
        _cell_trace(spec),
        spec.algorithm,
        spec.predictor,
        error_kind=spec.error_kind,
        error_level=spec.error_level,
        error_seed=spec.error_seed,
    )


def _profiled_cell(fn, spec: CellSpec):
    """Worker entry point for telemetered runs: run the cell exactly as
    ``fn`` would and ship its resource bill back alongside it.

    Module-level (and composed via :func:`functools.partial`) so it
    pickles; untelemetered runs submit ``fn`` itself, so disabling
    telemetry restores the original callable bit-for-bit.
    """
    probe = resource_probe()
    cell = fn(spec)
    return cell, capture_resources(probe)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def _spec_coords(spec: CellSpec) -> dict:
    """The coordinate fields campaign cell events carry."""
    return {
        "workload": spec.workload,
        "algorithm": spec.algorithm,
        "predictor": spec.predictor,
    }


def run_table_parallel(
    plan: ExperimentPlan,
    *,
    max_workers: int,
    cell_fn: Callable[[CellSpec], WaitTimeCell | SchedulingCell | MispredictionCell] | None = None,
    telemetry: CampaignTelemetry | None = None,
) -> TableRun:
    """Execute every cell of ``plan`` across a process pool.

    Each cell runs exactly once; a cell whose worker raises gets a
    :class:`CellFailure` on its :class:`CellResult` and the run
    continues.  Submission is throttled to pool width, so a cell's
    ``duration_s`` counts from the moment a free worker takes it, never
    its queue time.  ``cell_fn`` swaps the worker entry point (it must
    be a picklable module-level callable) — the failure-path tests
    inject crashes and parked cells through it.

    ``telemetry`` turns the run into an observable *campaign*: events
    journal through the telemetry's sink, each result carries its
    worker's resource bill, and the driver polls at the telemetry's
    heartbeat so progress stays live during long cells.
    ``campaign_finished`` is emitted only when the plan drains — a
    journal without one marks a killed or crashed campaign.  The caller
    owns the telemetry's lifecycle (close it to flush progress output).

    Results are returned in plan order regardless of completion order.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    fn = cell_fn if cell_fn is not None else execute_cell
    worker_fn = fn if telemetry is None else partial(_profiled_cell, fn)
    poll = None if telemetry is None else telemetry.heartbeat_s

    run = TableRun(results=[CellResult(spec, i) for i, spec in enumerate(plan.cells)])
    queue: deque[int] = deque(range(len(plan.cells)))
    in_flight: dict[Future, tuple[int, float]] = {}
    if telemetry is not None:
        telemetry.campaign_started(
            cells_total=len(plan.cells), max_workers=max_workers
        )

    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        while queue or in_flight:
            # Throttle submission to pool width so a cell's duration
            # starts when a worker actually picks it up.
            while queue and len(in_flight) < max_workers:
                index = queue.popleft()
                spec = run.results[index].spec
                future = pool.submit(worker_fn, spec)
                in_flight[future] = (index, time.monotonic())
                if telemetry is not None:
                    telemetry.cell_dispatched(index, **_spec_coords(spec))

            done, _ = wait(in_flight, poll, FIRST_COMPLETED)
            for future in done:
                index, started = in_flight.pop(future)
                result = run.results[index]
                result.duration_s = time.monotonic() - started
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    result.failure = CellFailure(spec=result.spec, error=error)
                    if telemetry is not None:
                        telemetry.cell_failed(
                            index, error=error, **_spec_coords(result.spec)
                        )
                    continue
                if telemetry is None:
                    result.cell = payload
                else:
                    result.cell, result.resources = payload
                    telemetry.cell_finished(
                        index,
                        duration_s=result.duration_s,
                        resources=result.resources,
                        **_spec_coords(result.spec),
                    )

            if telemetry is not None:
                telemetry.heartbeat(running=len(in_flight))
        if telemetry is not None:
            telemetry.campaign_finished()
    finally:
        pool.shutdown(cancel_futures=True)
    return run


def run_grid(
    kind: str,
    *,
    workloads: Sequence[str] | Sequence[Trace] | None = None,
    algorithms: Sequence[str],
    predictors: Sequence[str],
    levels: Sequence[float] = (0.0,),
    n_jobs: int | None = None,
    seed: int | None = None,
    compress: float = 1.0,
    error_kind: str | None = None,
    error_seed: int = 0,
    max_workers: int = 1,
    telemetry: CampaignTelemetry | None = None,
) -> list[WaitTimeCell | SchedulingCell | MispredictionCell]:
    """Run every cell of a grid, in process or on a process pool.

    The one driver of every grid — the CLI's ``scheduling`` and
    ``wait-time`` commands, the Tables 4-15 report and benches, and the
    misprediction harness; cells come back in :func:`grid_cells` order.
    ``kind`` is one of :data:`CELL_KINDS`; ``workloads=None`` means all
    four paper workloads.

    ``max_workers == 1`` replays the cells in process on the caller's
    own traces (names are generated here, provenance is not needed) and
    lets a failing cell raise its own exception; ``telemetry`` is then
    ignored.  Otherwise the cells run through :func:`run_table_parallel`
    — traces named by workload are generated only in the workers, each
    cell once — and any failing cell raises
    :class:`ParallelExecutionError`.
    """
    if kind not in CELL_KINDS:
        raise ValueError(f"kind must be one of {CELL_KINDS}, got {kind!r}")
    axes = dict(algorithms=algorithms, predictors=predictors, levels=levels)
    cell_args = dict(error_kind=error_kind, error_seed=error_seed)
    if max_workers != 1:
        plan = ExperimentPlan.for_grid(
            kind, workloads=workloads, n_jobs=n_jobs, seed=seed,
            compress=compress, **axes, **cell_args,
        )
        run = run_table_parallel(plan, max_workers=max_workers, telemetry=telemetry)
        if run.failures:
            raise ParallelExecutionError(run.failures)
        return run.cells
    traces = _resolve_traces(workloads, n_jobs, seed, compress)
    return [
        run_cell(kind, trace, algo, pred, error_level=level, **cell_args)
        for trace, algo, pred, level in grid_cells(traces, **axes)
    ]
