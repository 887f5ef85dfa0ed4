"""The four workloads of the end-to-end benchmark.

Each workload is a list of *cells* — one replay each, the unit the
benchmark times — built from the paper's synthetic traces, plus the
timer that measures its user-facing operation (the *op*) from outside
the program, and the untimed cross-checks that hold its outputs against
a reference.

Inputs come from ``--seed``.  Seed 0 is the paper's traces as
:func:`repro.workloads.archive.load_paper_workload` generates them; any
other seed delays every submission by a uniform draw from
``[0, JITTER_S)`` seeded by that number.  A jitter rather than a fresh
draw of the whole trace, because queue congestion — which sets the cost
of every layer — differs so much between trace realisations that a
regenerated 1000-job trace moves wall time by 20–50% from seed to seed,
far beyond any useful regression bound.  The jitter changes every
output while keeping each trace's load and burst structure.
"""

from __future__ import annotations

import hashlib
import io
import time
import zlib
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from layers import patched
from reference import SPEED
from repro.core.experiment import run_scheduling_experiment, run_wait_time_experiment
from repro.core.registry import make_predictor
from repro.obs import Instrumentation, JsonlSink, Tracer
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy
from repro.scheduler.simulator import Simulator
from repro.scheduler.validate import validate_schedule
from repro.service import PredictionService, SimulatorFeed
from repro.waitpred.predictor import predict_wait
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Trace
from repro.workloads.transform import head

__all__ = ["JITTER_S", "WORKLOADS", "Cell", "Output", "Probe", "Workload", "digest", "prefix"]

#: Upper end of the per-job submission delay for seeds other than 0.
JITTER_S = 120.0


def seeded_trace(name: str, seed: int, n_jobs: int | None) -> Trace:
    """Paper trace ``name`` (``n_jobs`` of it, or all), jittered by ``seed``."""
    trace = load_paper_workload(name, n_jobs=n_jobs)
    if seed == 0:
        return trace
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    delays = iter(rng.uniform(0.0, JITTER_S, size=len(trace)).tolist())
    return trace.map(lambda j: j.with_(submit_time=j.submit_time + next(delays)))


def prefix(traces: dict[str, Trace], n: int) -> dict[str, Trace]:
    """The first ``n`` jobs of every trace."""
    return {name: head(trace, n) for name, trace in traces.items()}


@dataclass
class Probe:
    """Where op timers leave what they saw in one cell.

    ``marks`` holds the cell's start, the entry and exit times of every
    timed call, and the cell's end, so consecutive marks cut the cell
    into *segments*: the calls and the stretches between them.  ``ops``
    holds the indices of the segments that are ops.  After a call, when
    a host-speed sample is due, the reference kernel runs; ``skips``
    holds ``(segment index, seconds)`` for each such run, to be taken
    out of the segment it fell in.
    """

    marks: list[float] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    skips: list[tuple[int, float]] = field(default_factory=list)
    answers: list[tuple[int, float]] = field(default_factory=list)

    def call(self, t0: float, t1: float, op: bool) -> None:
        """Record one timed call, an op if ``op``."""
        if op:
            self.ops.append(len(self.marks))
        self.marks += (t0, t1)
        if SPEED.due(t1):
            self.skips.append((len(self.marks) - 1, SPEED.sample()))


@dataclass
class Output:
    """What one cell produced: digestable parts and program counters."""

    parts: list[list[tuple[int, float]]]
    counters: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Cell:
    name: str
    run: Callable[[Probe], Output]


def digest(out: Output) -> str:
    """SHA-256 over every ``(job_id, value)`` of the outputs, bit-exact."""
    h = hashlib.sha256()
    for part in out.parts:
        h.update(b"|")
        h.update("\n".join(f"{k}:{float(v).hex()}" for k, v in part).encode())
    return h.hexdigest()


def _starts(result) -> list[tuple[int, float]]:
    return [(r.job_id, r.start_time) for r in result.records]


def _estimate_misses(metrics: dict) -> int:
    return metrics["counters"]["sim.estimate_cache_misses"]


@contextmanager
def _timing(
    targets: tuple[str, ...],
    probe: Probe,
    answers: bool = False,
    keep: Callable[[tuple], bool] | None = None,
) -> Iterator[None]:
    """Time calls of ``targets`` into ``probe``; keep answers if asked.

    ``keep(args)``, when given, picks which calls are ops; the others
    still cut the cell into segments.  A wait query's answer is keyed by
    its target job id, the fourth positional argument of ``predict_wait``.
    """
    perf = time.perf_counter

    def make(fn):
        def timed(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            probe.call(t0, perf(), keep is None or keep(args))
            if answers:
                probe.answers.append((args[3], result))
            return result

        return timed

    with ExitStack() as stack:
        for target in targets:
            stack.enter_context(patched(target, make))
        yield


class Workload:
    """A named set of cells over seeded traces."""

    name: str
    op: str
    traces: tuple[str, ...]
    default_jobs: int | None

    def build(self, seed: int, jobs: int | None) -> dict[str, Trace]:
        return {name: seeded_trace(name, seed, jobs) for name in self.traces}

    def cells(self, traces: dict[str, Trace]) -> list[Cell]:
        raise NotImplementedError

    def op_timer(self, probe: Probe):
        """Context manager timing the workload's op into ``probe``."""
        raise NotImplementedError

    def cross_checks(self, traces: dict[str, Trace]) -> list[tuple[str, bool]]:
        """Untimed checks of the outputs against a reference."""
        raise NotImplementedError


class WaitGrid(Workload):
    name = "wait-grid"
    op = "one predict_wait call (the wait query at each submission)"
    traces = ("ANL", "SDSC96")
    policies = ("fcfs", "lwf", "backfill")
    default_jobs = 400

    def cells(self, traces):
        def cell(trace, policy):
            def run(probe: Probe) -> Output:
                probe.answers.clear()
                wcell, _report, result = run_wait_time_experiment(trace, policy, "smith")
                return Output(
                    [list(probe.answers), _starts(result)],
                    {"estimate_misses": _estimate_misses(wcell.metrics)},
                )

            return Cell(f"{trace.name}/{policy}", run)

        return [cell(t, p) for t in traces.values() for p in self.policies]

    def op_timer(self, probe):
        return _timing(("repro.waitpred.predictor:predict_wait",), probe, answers=True)

    def cross_checks(self, traces):
        """Every fast-path answer against ``predict_wait(..., fast=False)``."""
        checks = []
        for trace in traces.values():
            for policy in self.policies:
                mismatches = []

                def against_reference(fn, mismatches=mismatches):
                    def checked(snapshot, pol, estimator, job_id, **kwargs):
                        fast = fn(snapshot, pol, estimator, job_id, **kwargs)
                        ref = fn(snapshot, pol, estimator, job_id,
                                 **dict(kwargs, fast=False))
                        if not np.isclose(fast, ref, rtol=1e-9, atol=1e-4):
                            mismatches.append(job_id)
                        return fast

                    return checked

                with patched("repro.waitpred.predictor:predict_wait", against_reference):
                    run_wait_time_experiment(trace, policy, "smith")
                checks.append((f"{trace.name}/{policy} fast == reference", not mismatches))
        return checks


class SchedGrid(Workload):
    name = "sched-grid"
    op = "one BackfillPolicy.select pass (LWF passes take microseconds and are not timed)"
    traces = ("CTC", "SDSC96")
    policies = ("lwf", "backfill")
    default_jobs = 600

    def cells(self, traces):
        def cell(trace, policy):
            def run(probe: Probe) -> Output:
                scell, result = run_scheduling_experiment(trace, policy, "smith")
                return Output(
                    [_starts(result)],
                    {"estimate_misses": _estimate_misses(scell.metrics)},
                )

            return Cell(f"{trace.name}/{policy}", run)

        return [cell(t, p) for t in traces.values() for p in self.policies]

    def op_timer(self, probe):
        # Pooling LWF's microsecond passes with Backfill's millisecond ones
        # would put the median on the boundary between the two modes.
        return _timing(("repro.scheduler.policies.backfill:BackfillPolicy.select",), probe)

    def cross_checks(self, traces):
        checks = []
        for trace in traces.values():
            for policy in self.policies:
                _cell, result = run_scheduling_experiment(trace, policy, "smith")
                checks.append(
                    (f"{trace.name}/{policy} schedule valid",
                     validate_schedule(trace, result).ok)
                )
        return checks


class _Caller:
    """The benchmark's one closed-loop client of the prediction service.

    At every submission it asks for the new job's wait (always a cache
    miss: the submit moved the epoch); only this query is an op.  At
    every ``storm_every``-th submission it then fires ``storm_size``
    queries round-robin over the queue, all answered from the epoch
    cache; a storm is timed as a whole segment, for its throughput.
    Pooling the hits with the misses would put the median on a
    microsecond dict lookup and the p99 wherever the miss share happens
    to fall.  Registered after the :class:`SimulatorFeed`, so the service
    already holds the new job.
    """

    def __init__(self, svc: PredictionService, probe: Probe,
                 storm_every: int, storm_size: int) -> None:
        self.svc = svc
        self.probe = probe
        self.storm_every = storm_every
        self.storm_size = storm_size
        self.submissions = 0
        self.storm_queries = 0
        self.storm_s = 0.0

    def on_submit(self, view, qj) -> None:
        perf = time.perf_counter
        svc, probe, answers = self.svc, self.probe, self.probe.answers
        t0 = perf()
        wait = svc.predict(qj.job_id)
        probe.call(t0, perf(), True)
        answers.append((qj.job_id, wait))
        self.submissions += 1
        if self.submissions % self.storm_every:
            return
        queued = svc.queued_ids
        t0 = perf()
        for i in range(self.storm_size):
            job_id = queued[i % len(queued)]
            answers.append((job_id, svc.predict(job_id)))
        t1 = perf()
        probe.call(t0, t1, False)
        self.storm_s += t1 - t0
        self.storm_queries += self.storm_size


class _MissChecker:
    """Holds every at-submission miss against an uncached ``predict_wait``."""

    def __init__(self, svc: PredictionService) -> None:
        self.svc = svc
        self.mismatches = 0

    def on_submit(self, view, qj) -> None:
        svc = self.svc
        fresh = predict_wait(svc.snapshot(), svc.policy, svc.estimator, qj.job_id)
        self.mismatches += svc.predict(qj.job_id) != fresh


def _churn(trace: Trace, client: Callable[[PredictionService], object]):
    """Replay ``trace`` under Backfill on user maxima, fed into a service.

    The service predicts with Smith and no separate scheduler estimator,
    a self-consistent imagined world, so its misses take the batch
    backfill walk and never forward simulation.  ``client(svc)`` builds
    the observer that queries it.
    """
    sim = Simulator(
        BackfillPolicy(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
    )
    svc = PredictionService(
        BackfillPolicy(), PointEstimator(make_predictor("smith", trace)), trace.total_nodes
    )
    sim.add_observer(SimulatorFeed(svc))
    observer = client(svc)
    sim.add_observer(observer)
    result = sim.run(trace)
    return sim, svc, observer, result


class ServiceChurn(Workload):
    name = "service-churn"
    op = ("one PredictionService.predict at a submission (always an epoch-cache miss; "
          "the cached storms are not ops, only their throughput is kept)")
    traces = ("SDSC96",)
    default_jobs = 1000
    storm_every = 100
    storm_size = 2000

    def cells(self, traces):
        def cell(trace):
            def run(probe: Probe) -> Output:
                probe.answers.clear()
                sim, svc, caller, result = _churn(
                    trace,
                    lambda svc: _Caller(svc, probe, self.storm_every, self.storm_size),
                )
                counters = svc.stats()["counters"]
                return Output(
                    [list(probe.answers), _starts(result)],
                    {
                        "estimate_misses": _estimate_misses(sim.metrics_snapshot()),
                        "hit_ratio": counters["service.cache_hits"]
                        / counters["service.queries"],
                        "fallbacks": counters["service.fallback_simulations"],
                        # A prefix shorter than storm_every has no storm.
                        "cached_queries_per_s": (
                            caller.storm_queries / caller.storm_s if caller.storm_s else 0.0
                        ),
                    },
                )

            return Cell(f"{trace.name}/churn", run)

        return [cell(t) for t in traces.values()]

    def op_timer(self, probe):
        return nullcontext()  # the caller times its own queries

    def cross_checks(self, traces):
        checks = []
        for trace in traces.values():
            _sim, _svc, checker, _result = _churn(trace, _MissChecker)
            checks.append(
                (f"{trace.name} service misses == predict_wait", checker.mismatches == 0)
            )
        return checks


class _CountingNull(io.RawIOBase):
    """A binary sink that keeps only the number of bytes written to it."""

    def __init__(self) -> None:
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.bytes += len(b)
        return len(b)


def _replay(trace: Trace, instrumented: bool):
    """Backfill on user maxima; optionally with every obs sink switched on."""
    null = sink = None
    inst = None
    if instrumented:
        null = _CountingNull()
        sink = JsonlSink(null)
        inst = Instrumentation(
            tracer=Tracer(sink), detail=True, audit=True, provenance=True, timeseries=True
        )
    sim = Simulator(
        BackfillPolicy(),
        PointEstimator(make_predictor("max", trace), instrumentation=inst),
        trace.total_nodes,
        instrumentation=inst,
    )
    result = sim.run(trace)
    counters = {"estimate_misses": _estimate_misses(sim.metrics_snapshot())}
    if sink is not None:
        sink.close()
        counters.update(obs_events=sink.events_written, obs_bytes=null.bytes)
    return result, counters


class ReplayFull(Workload):
    name = "replay-full"
    op = "one BackfillPolicy.select pass of a plain replay"
    traces = ("ANL", "CTC", "SDSC95", "SDSC96")
    default_jobs = None  # the full Table 1 trace sizes
    #: Instrumented replays cost 2-3x a plain one; one trace keeps a cycle
    #: short enough to repeat within a run.  ANL's is the most sink-bound.
    instrumented = ("ANL",)

    def cells(self, traces):
        def cell(trace, instrumented):
            def run(probe: Probe) -> Output:
                result, counters = _replay(trace, instrumented)
                return Output([_starts(result)], counters)

            kind = "instrumented" if instrumented else "plain"
            return Cell(f"{trace.name}/{kind}", run)

        plain = [cell(t, False) for t in traces.values()]
        return plain + [cell(traces[name], True) for name in self.instrumented]

    def op_timer(self, probe):
        # select(view): a traced replay's view exposes its tracer.  The
        # instrumented replay's cost shows in wall_s, not in the op.
        return _timing(
            ("repro.scheduler.policies.backfill:BackfillPolicy.select",), probe,
            keep=lambda args: args[1].tracer is None,
        )

    def cross_checks(self, traces):
        checks = []
        for trace in traces.values():
            plain, _ = _replay(trace, False)
            traced, _ = _replay(trace, True)
            checks.append(
                (f"{trace.name} instrumented == plain", _starts(plain) == _starts(traced))
            )
        return checks


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WaitGrid(), SchedGrid(), ServiceChurn(), ReplayFull())
}
