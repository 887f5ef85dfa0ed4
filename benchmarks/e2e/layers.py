"""Per-layer split of a benchmark run, timed from outside the program.

The benchmark does not ask the program to report its own cost.  It
replaces public functions where their callers look them up — a module
global such as ``repro.waitpred.fast.forward_simulate``, or a class
attribute such as ``Category.predict`` — with a wrapper that times the
call.  Each wrapped call is folded into a ``(name, parent)`` aggregate
of count, inclusive time and self time, where ``parent`` is the nearest
wrapped caller and self time is inclusive time minus the inclusive time
of wrapped callees.  A few coarse spans (cells, wait and service
queries, forward simulations) are also kept whole, in memory, for
writing out at exit.

Every boundary declares the workloads on which it must be hit.  A traced
run of a workload that never reaches one of its boundaries fails, so a
refactor that routes work around a wrapped function (a new planner entry
point, an event bus replacing a hook) cannot silently empty a layer.
"""

from __future__ import annotations

import importlib
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "Boundary",
    "BOUNDARIES",
    "MOVES",
    "LayerTracer",
    "patched",
    "per_layer_metrics",
]

#: The span that opens a forward simulation.  Scheduler-layer calls made
#: inside one belong to the planner, not to the replay being measured.
FORWARD = "planner.forward_simulate"
_ALL = ("wait-grid", "sched-grid", "service-churn", "replay-full")


@dataclass(frozen=True)
class Boundary:
    """One wrapped function: where it is looked up and what it is called.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.
    ``required`` names the workloads on which a traced run must hit it.
    ``in_forward`` is the name recorded instead of ``name`` when the call
    happens inside a forward simulation.  ``coarse`` keeps every call as
    a whole span besides folding it into the aggregates.
    """

    target: str
    name: str
    required: tuple[str, ...] = ()
    in_forward: str | None = None
    coarse: bool = False


_SERVICE = "repro.service.service"
BOUNDARIES: tuple[Boundary, ...] = (
    # predictors: the run-time predictor and its template categories
    Boundary("repro.predictors.base:PointEstimator.predict", "predictors.estimator", _ALL),
    Boundary("repro.predictors.smith:SmithPredictor.predict", "predictors.smith",
             ("wait-grid", "sched-grid", "service-churn")),
    Boundary("repro.predictors.category:Category.predict", "predictors.category",
             ("wait-grid", "sched-grid", "service-churn")),
    # waitpred: one frozen prediction per job per wait query
    Boundary("repro.waitpred.predictor:predict_wait", "waitpred.predict_wait",
             ("wait-grid",), coarse=True),
    # planner: analytic shortcut or forward simulation
    Boundary("repro.waitpred.fast:predict_start_fast", "planner.dispatch", ("wait-grid",)),
    Boundary("repro.waitpred.fast:fcfs_predicted_start", "planner.shortcut", ("wait-grid",)),
    Boundary("repro.waitpred.fast:backfill_predicted_start", "planner.shortcut"),
    Boundary("repro.waitpred.fast:forward_simulate", FORWARD, ("wait-grid",), coarse=True),
    Boundary(f"{_SERVICE}:fcfs_predicted_starts", "planner.shortcut"),
    Boundary(f"{_SERVICE}:backfill_predicted_starts", "planner.shortcut",
             ("service-churn",)),
    Boundary(f"{_SERVICE}:predict_start_fast", "planner.dispatch"),
    Boundary(f"{_SERVICE}:forward_simulate", FORWARD, coarse=True),
    # scheduler: the replay loop and the policies' selection passes
    Boundary("repro.scheduler.simulator:Simulator.run", "scheduler.run", _ALL,
             in_forward="planner.run"),
    Boundary("repro.scheduler.policies.fcfs:FCFSPolicy.select", "scheduler.select",
             ("wait-grid",), in_forward="planner.select"),
    Boundary("repro.scheduler.policies.lwf:LWFPolicy.select", "scheduler.select",
             ("wait-grid", "sched-grid"), in_forward="planner.select"),
    Boundary("repro.scheduler.policies.backfill:BackfillPolicy.select",
             "scheduler.select", _ALL, in_forward="planner.select"),
    # obs: the trace sink of the instrumented replays
    Boundary("repro.obs.trace:JsonlSink.emit", "obs.emit", ("replay-full",)),
    # service: event ingestion and queries
    Boundary(f"{_SERVICE}:PredictionService.predict", "service.predict",
             ("service-churn",), coarse=True),
    Boundary(f"{_SERVICE}:PredictionService.submit", "service.ingest", ("service-churn",)),
    Boundary(f"{_SERVICE}:PredictionService.start", "service.ingest", ("service-churn",)),
    Boundary(f"{_SERVICE}:PredictionService.finish", "service.ingest", ("service-churn",)),
)

_W, _S, _C, _R = _ALL
_GRIDS = (("wall_s", _W), ("wall_s", _S))
#: Per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  BENCHMARK.json holds each metric's unit and direction.  Time
#: inside the traced cycle is given as a share of it: a layer a workload
#: bypasses then reads 0%, not a constant 0 s.
MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads.generate_s": tuple(("setup_s", w) for w in _ALL),
    "predictors.estimator_calls": _GRIDS,
    "predictors.estimator_self_pct": _GRIDS,
    "predictors.smith_self_pct": _GRIDS,
    "predictors.category_zero_calls": (("op_p50_ms", _W), ("op_p50_ms", _C)),
    "predictors.category_zero_pct": (("op_p50_ms", _W), ("op_p50_ms", _C)),
    "predictors.category_elapsed_calls": _GRIDS + (("op_p50_ms", _C),),
    "predictors.category_elapsed_pct": _GRIDS + (("op_p50_ms", _C),),
    "predictors.points_scanned": _GRIDS + (("op_p50_ms", _C),),
    "predictors.predicted_ratio": _GRIDS,
    "waitpred.predict_wait_calls": (("op_p50_ms", _W),),
    "waitpred.freeze_pct": (("op_p50_ms", _W),),
    "waitpred.freeze_predictions_per_query": (("op_p50_ms", _W),),
    "planner.shortcut_calls": (("op_p99_ms", _W),),
    "planner.shortcut_pct": (("op_p99_ms", _W),),
    "planner.forward_sim_calls": (("op_p99_ms", _W),),
    "planner.forward_sim_pct": (("op_p99_ms", _W),),
    "planner.forward_sim_passes": (("op_p99_ms", _W),),
    "planner.shortcut_ratio": (("op_p99_ms", _W),),
    "scheduler.passes": (("wall_s", _R), ("wall_s", _S)),
    "scheduler.select_self_pct": (("wall_s", _R), ("op_p50_ms", _S)),
    "scheduler.loop_self_pct": (("wall_s", _R),),
    "scheduler.estimate_misses": (("wall_s", _R),),
    "obs.events": (("wall_s", _R),),
    "obs.bytes": (("wall_s", _R),),
    "obs.emit_pct": (("wall_s", _R),),
    "obs.overhead_pct": (("wall_s", _R),),
    "service.ingest_pct": (("wall_s", _C),),
    "service.warm_pct": (("op_p50_ms", _C), ("op_p99_ms", _C)),
    "service.hit_ratio": (("wall_s", _C),),
    "service.fallbacks": (("op_p99_ms", _C),),
}


def _resolve(target: str) -> tuple[object, str]:
    """The object holding ``target``'s attribute, and the attribute name."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"benchmark boundary {target} no longer exists")
    return owner, attr


@contextmanager
def patched(target: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``target`` with ``make(original)``; restore it on exit."""
    owner, attr = _resolve(target)
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _category_elapsed(args: tuple, kwargs: dict) -> float:
    # Category.predict(self, job, elapsed=0.0, confidence=0.90)
    return args[2] if len(args) > 2 else kwargs.get("elapsed", 0.0)


class LayerTracer:
    """In-memory ``(name, parent)`` aggregates, coarse spans and hit counts."""

    def __init__(self) -> None:
        #: (name, parent name or None) -> [count, inclusive_s, self_s]
        self.aggregates: dict[tuple[str, str | None], list] = {}
        #: (span_id, coarse parent span_id, name, start_s, end_s), with
        #: times relative to the tracer's creation.
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        #: boundary target -> calls, for the drift guard.
        self.hits: dict[str, int] = {b.target: 0 for b in BOUNDARIES}
        self.points_scanned = 0
        self.smith_predicted = 0
        # Open frames: [name, wrapped-callee inclusive s, span id, coarse].
        self._stack: list[list] = []
        self._forward_depth = 0
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _close(self, frame: list, t0: float, t1: float) -> None:
        dt = t1 - t0
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dt
        key = (frame[0], parent[0] if parent is not None else None)
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[1]
        if frame[3]:
            coarse_parent = next((f[2] for f in reversed(stack) if f[3]), None)
            self.spans.append(
                (frame[2], coarse_parent, frame[0], t0 - self._t0, t1 - self._t0)
            )

    def _open(self, name: str, coarse: bool) -> list:
        self._next_id += 1
        frame = [name, 0.0, self._next_id, coarse]
        self._stack.append(frame)
        return frame

    def wrap(self, b: Boundary, fn: Callable) -> Callable:
        perf = time.perf_counter
        hits = self.hits
        target = b.target
        is_category = b.name == "predictors.category"
        is_smith = b.name == "predictors.smith"
        is_forward = b.name == FORWARD

        def wrapper(*args, **kwargs):
            hits[target] += 1
            name = b.name
            if b.in_forward is not None and self._forward_depth:
                name = b.in_forward
            elif is_category:
                # The elapsed-conditioned case rescans the whole history.
                if _category_elapsed(args, kwargs) > 0.0:
                    self.points_scanned += len(args[0])
                    name = "predictors.category_elapsed"
                else:
                    name = "predictors.category_zero"
            frame = self._open(name, b.coarse)
            self._forward_depth += is_forward
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._forward_depth -= is_forward
                self._close(frame, t0, t1)
            if is_smith and result is not None:
                self.smith_predicted += 1
            return result

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A coarse span opened by the benchmark itself (one cell)."""
        frame = self._open(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, time.perf_counter())

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every boundary for the duration of the block."""
        with ExitStack() as stack:
            for b in BOUNDARIES:
                stack.enter_context(patched(b.target, lambda fn, b=b: self.wrap(b, fn)))
            yield

    def missing(self, workload: str) -> list[str]:
        """Boundaries ``workload`` must hit that this trace never reached."""
        return [
            b.target for b in BOUNDARIES
            if workload in b.required and self.hits[b.target] == 0
        ]

    # -- folding ----------------------------------------------------------
    def _sum(self, field: int, name: str, parent: str | None) -> float:
        return sum(
            agg[field]
            for (n, p), agg in self.aggregates.items()
            if n == name and (parent is None or p == parent)
        )

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._sum(0, name, parent))

    def inclusive(self, name: str) -> float:
        return self._sum(1, name, None)

    def self_time(self, name: str) -> float:
        return self._sum(2, name, None)

    def callees_inclusive(self, parent: str, prefix: str = "") -> float:
        return sum(
            agg[1]
            for (n, p), agg in self.aggregates.items()
            if p == parent and n.startswith(prefix)
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: LayerTracer, program: dict[str, float]) -> dict[str, float]:
    """Fold a traced cycle into the per-layer metrics named in :data:`MOVES`.

    ``program`` carries what the benchmark reads from outside the
    wrappers: trace generation time, simulator estimate-cache misses,
    sink event and byte counts, the instrumented replays' extra share of
    the untraced cycle, and the service's hit ratio and fallback count.
    """
    cycle_s = sum(agg[1] for (_n, p), agg in t.aggregates.items() if p is None)

    def pct(seconds: float) -> float:
        return 100.0 * _ratio(seconds, cycle_s)

    pw = "waitpred.predict_wait"
    queries = t.calls(pw)
    shortcut = t.calls("planner.shortcut")
    forward = t.calls(FORWARD)
    out = {
        "predictors.estimator_calls": t.calls("predictors.estimator"),
        "predictors.estimator_self_pct": pct(t.self_time("predictors.estimator")),
        "predictors.smith_self_pct": pct(t.self_time("predictors.smith")),
        "predictors.category_zero_calls": t.calls("predictors.category_zero"),
        "predictors.category_zero_pct": pct(t.inclusive("predictors.category_zero")),
        "predictors.category_elapsed_calls": t.calls("predictors.category_elapsed"),
        "predictors.category_elapsed_pct": pct(t.inclusive("predictors.category_elapsed")),
        "predictors.points_scanned": t.points_scanned,
        "predictors.predicted_ratio": _ratio(
            t.smith_predicted, t.calls("predictors.smith")
        ),
        "waitpred.predict_wait_calls": queries,
        "waitpred.freeze_pct": pct(t.inclusive(pw) - t.callees_inclusive(pw, "planner.")),
        "waitpred.freeze_predictions_per_query": _ratio(
            t.calls("predictors.estimator", parent=pw), queries
        ),
        "planner.shortcut_calls": shortcut,
        "planner.shortcut_pct": pct(t.inclusive("planner.shortcut")),
        "planner.forward_sim_calls": forward,
        "planner.forward_sim_pct": pct(t.inclusive(FORWARD)),
        "planner.forward_sim_passes": t.calls("planner.select"),
        "planner.shortcut_ratio": _ratio(shortcut, shortcut + forward),
        "scheduler.passes": t.calls("scheduler.select"),
        "scheduler.select_self_pct": pct(t.self_time("scheduler.select")),
        "scheduler.loop_self_pct": pct(t.self_time("scheduler.run")),
        "obs.emit_pct": pct(t.inclusive("obs.emit")),
        "service.ingest_pct": pct(t.inclusive("service.ingest")),
        "service.warm_pct": pct(t.callees_inclusive("service.predict")),
    }
    out.update(program)
    return out
