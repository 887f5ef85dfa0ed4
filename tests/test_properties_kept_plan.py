"""Conservative backfill's kept plan against full replanning.

Under an elapsed-invariant estimator a Backfill pass that follows only
new submissions resumes the plan it kept instead of replanning the
queue (see the Hot path section of
:mod:`repro.scheduler.policies.backfill`).  The claim is that schedules
stay bit-identical to replanning every pass.  Two oracles hold it:

- :class:`~repro.scheduler.reference.ReferenceSimulator`, which replans
  every pass with primitive profile operations, for traces without
  advance reservations (the reference has none);
- the same :class:`Simulator` under a policy that builds a fresh
  :class:`BackfillPolicy` for every pass (so it never has a plan to
  keep), for traces with advance reservations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.experiment as experiment
import repro.waitpred.fast as fast
from repro.core.experiment import run_wait_time_experiment
from repro.core.registry import make_predictor
from repro.obs import Instrumentation, ListSink, Tracer
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy
from repro.scheduler.policies.base import Policy
from repro.scheduler.reference import ReferenceBackfillPolicy, ReferenceSimulator
from repro.scheduler.reservations import Reservation
from repro.scheduler.simulator import SchedulerView, Simulator
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Job, Trace

TOTAL = 16
KEPT = "sim.backfill_plans_kept"

# Whole-second values make arrivals, finishes and reservation ends
# coincide; arbitrary floats exercise rounding at unrelated instants.
_GAPS = st.one_of(
    st.just(0.0),  # a burst: another arrival at the same instant
    st.integers(0, 60).map(float),
    st.floats(0.0, 400.0),
)
_RUN_TIMES = st.one_of(st.just(0.0), st.integers(0, 300).map(float), st.floats(0.0, 300.0))
# A maximum may sit below the run time: the job overruns its estimate.
_MAXIMA = st.one_of(st.none(), st.integers(1, 400).map(float), st.floats(1.0, 400.0))


@st.composite
def bursty_jobs(draw, max_jobs=24):
    jobs = []
    t = 0.0
    for i in range(draw(st.integers(1, max_jobs))):
        t += draw(_GAPS)
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=t,
                run_time=draw(_RUN_TIMES),
                nodes=draw(st.integers(1, TOTAL)),
                user=draw(st.sampled_from(["a", "b"])),
                max_run_time=draw(_MAXIMA),
            )
        )
    return jobs


@st.composite
def reservations(draw, horizon):
    return [
        Reservation(
            res_id=i + 1,
            start_time=draw(st.one_of(st.integers(0, 60).map(float), st.floats(0.0, horizon))),
            duration=draw(st.floats(1.0, 200.0)),
            nodes=draw(st.integers(1, TOTAL)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]


class ShiftingEstimate:
    """Elapsed-invariant, but every submission moves its epoch and
    rescales every estimate, so a plan kept across one is stale."""

    elapsed_invariant = True

    def __init__(self) -> None:
        self.submits = 0

    @property
    def history_epoch(self) -> int:
        return self.submits

    def predict(self, job, elapsed, now):
        return max(job.run_time * (1 + self.submits % 3) / 2, elapsed)

    def on_submit(self, job, now) -> None:
        self.submits += 1


class ReplanEveryPass(Policy):
    """Conservative backfill with no plan to keep: a fresh policy per pass."""

    name = "Backfill"

    def select(self, view):
        return BackfillPolicy().select(view)


def _estimator(name, trace):
    if name == "shifting":
        return ShiftingEstimate()
    return PointEstimator(make_predictor(name, trace))


_PREDICTORS = st.sampled_from(["max", "actual", "shifting"])


@given(
    jobs=bursty_jobs(),
    predictor=_PREDICTORS,
    detail=st.booleans(),
    pause=st.one_of(st.none(), st.floats(0.0, 2000.0)),
)
@settings(max_examples=150, deadline=None)
def test_property_kept_plan_matches_reference(jobs, predictor, detail, pause):
    """Bit-identical records and starts to the reference engine, in
    detail mode too, and across a ``run(until_time=...)`` pause (which
    moves ``now`` with no event)."""
    trace = Trace(jobs, total_nodes=TOTAL)
    sim = Simulator(
        BackfillPolicy(), _estimator(predictor, trace), TOTAL,
        instrumentation=Instrumentation(detail=detail),
    )
    if pause is None:
        result = sim.run(trace)
    else:
        sim.run(trace, until_time=pause)
        result = sim.run()
    ref = ReferenceSimulator(ReferenceBackfillPolicy(), _estimator(predictor, trace), TOTAL)
    assert result.records == ref.run(trace).records
    assert sim.started_times == ref.started_times


@given(data=st.data(), predictor=_PREDICTORS)
@settings(max_examples=120, deadline=None)
def test_property_kept_plan_matches_replanning_with_reservations(data, predictor):
    """With advance reservations, bit-identical to the same engine
    replanning every pass: job records and reservation outcomes."""
    jobs = data.draw(bursty_jobs())
    res = data.draw(reservations(jobs[-1].submit_time + 300.0))
    trace = Trace(jobs, total_nodes=TOTAL)
    runs = []
    for policy in (BackfillPolicy(), ReplanEveryPass()):
        sim = Simulator(policy, _estimator(predictor, trace), TOTAL)
        sim.add_reservations(res)
        runs.append((sim.run(trace).records, sim.reservation_records))
    assert runs[0] == runs[1]


def test_burst_reuses_plan_and_matches_reference():
    """A wide job holds most of the machine and a wider one waits behind
    it while narrow jobs arrive: the arrival-only passes extend the kept
    plan, backfilling some of them."""
    jobs = [
        Job(job_id=1, submit_time=0.0, run_time=100.0, nodes=12, max_run_time=100.0),
        Job(job_id=2, submit_time=1.0, run_time=50.0, nodes=8, max_run_time=60.0),
    ]
    jobs += [
        Job(job_id=i, submit_time=float(i), run_time=10.0, nodes=1 + i % 3, max_run_time=20.0)
        for i in range(3, 13)
    ]
    trace = Trace(jobs, total_nodes=TOTAL)
    sim = Simulator(BackfillPolicy(), _estimator("max", trace), TOTAL)
    result = sim.run(trace)
    ref = ReferenceSimulator(ReferenceBackfillPolicy(), _estimator("max", trace), TOTAL)
    assert result.records == ref.run(trace).records
    assert sim.metrics_snapshot()["counters"][KEPT] > 0


def test_plan_stamp_moves_with_finishes_reservations_and_epochs():
    """The stamp stands across submissions and changes at a finish, a
    reservation event, an epoch move or another simulator; it is ``None``
    while a reservation is pending and under an estimator that is not
    elapsed-invariant or has no epoch."""
    jobs = [
        Job(job_id=1, submit_time=0.0, run_time=10.0, nodes=4, max_run_time=10.0),
        Job(job_id=2, submit_time=5.0, run_time=10.0, nodes=4, max_run_time=10.0),
    ]
    trace = Trace(jobs, total_nodes=TOTAL)

    def simulator(estimator):
        return Simulator(BackfillPolicy(), estimator, TOTAL)

    def stamp(sim):
        return SchedulerView(sim).plan_stamp

    sim = simulator(_estimator("max", trace))
    sim.run(trace, until_time=1.0)
    first = stamp(sim)
    assert first is not None and stamp(sim) == first
    assert stamp(simulator(_estimator("max", trace))) != first
    sim.run(until_time=6.0)  # job 2 arrives and starts: no finish yet
    assert stamp(sim) == first
    sim.run(until_time=10.0)  # job 1 finishes
    after_finish = stamp(sim)
    assert after_finish not in (None, first)
    sim.add_reservations([Reservation(res_id=1, start_time=20.0, duration=5.0, nodes=2)])
    assert stamp(sim) is None
    sim.run(until_time=22.0)  # the reservation is active, none pending
    active = stamp(sim)
    assert active not in (None, after_finish)
    sim.run(until_time=26.0)  # it ended
    assert stamp(sim) not in (None, active)
    # Job 3 overruns its maximum and holds every node when a reservation
    # falls due: the reservation waits.
    sim.add_reservations([Reservation(res_id=2, start_time=30.0, duration=5.0, nodes=2)])
    late = Job(job_id=3, submit_time=27.0, run_time=50.0, nodes=TOTAL, max_run_time=1.0)
    sim.run(Trace([late], total_nodes=TOTAL), until_time=31.0)
    assert sim.waiting_reservations and stamp(sim) is None

    shifting = simulator(ShiftingEstimate())
    shifting.run(trace, until_time=1.0)
    before = stamp(shifting)
    shifting.run(until_time=6.0)  # a submission moves the epoch
    assert stamp(shifting) not in (None, before)

    class NoEpoch(ShiftingEstimate):
        history_epoch = None

    assert stamp(simulator(NoEpoch())) is None
    assert stamp(simulator(_estimator("smith", trace))) is None


def test_reservation_added_between_passes_drops_the_plan():
    """A reservation added after a plan was kept, which activates before
    the next pass, must still be seen: the kept plan thinks 8 nodes are
    free, so job 3 would wait behind job 2, while a replan fits it in the
    4 the reservation leaves."""
    jobs = [
        Job(job_id=1, submit_time=0.0, run_time=100.0, nodes=8, max_run_time=100.0),
        Job(job_id=2, submit_time=1.0, run_time=10.0, nodes=TOTAL, max_run_time=10.0),
        Job(job_id=3, submit_time=3.0, run_time=150.0, nodes=4, max_run_time=150.0),
    ]
    trace = Trace(jobs, total_nodes=TOTAL)
    reservation = Reservation(res_id=1, start_time=2.0, duration=200.0, nodes=4)
    runs = []
    for policy in (BackfillPolicy(), ReplanEveryPass()):
        sim = Simulator(policy, _estimator("max", trace), TOTAL)
        sim.run(trace, until_time=1.5)
        sim.add_reservations([reservation])
        runs.append(sim.run().records)
    assert runs[0] == runs[1]
    assert {r.job_id: r.start_time for r in runs[0]}[3] == 3.0


@pytest.fixture(scope="module")
def sdsc96():
    return load_paper_workload("SDSC96", n_jobs=3000)


def _kept_share(sim, trace):
    sim.run(trace)
    counters = sim.metrics_snapshot()["counters"]
    return counters.get(KEPT, 0) / counters["sim.schedule_passes"]


def test_plans_kept_on_maxima_replay(sdsc96):
    """User maxima: at least 35% of the Backfill passes extend a kept plan."""
    sim = Simulator(BackfillPolicy(), _estimator("max", sdsc96), sdsc96.total_nodes)
    assert _kept_share(sim, sdsc96) >= 0.35


def test_no_plan_kept_under_tracer(sdsc96):
    inst = Instrumentation(tracer=Tracer(ListSink()))
    sim = Simulator(
        BackfillPolicy(), _estimator("max", sdsc96), sdsc96.total_nodes,
        instrumentation=inst,
    )
    assert _kept_share(sim, sdsc96) == 0


def test_no_plan_kept_under_smith():
    """Smith's estimates condition on elapsed time, so no plan is exact
    at a later pass."""
    trace = load_paper_workload("SDSC96", n_jobs=500)
    sim = Simulator(BackfillPolicy(), _estimator("smith", trace), trace.total_nodes)
    assert _kept_share(sim, trace) == 0


def test_wait_experiment_matches_fresh_forward_policies(monkeypatch):
    """The wait predictor's forward simulations share the observer's
    policy instance; predictions and starts are those of a run whose
    forward simulations each get a fresh BackfillPolicy."""
    trace = load_paper_workload("ANL", n_jobs=200)

    def run():
        seen = {}

        def capture(result, predicted_waits):
            seen["waits"] = dict(predicted_waits)
            return evaluate(result, predicted_waits)

        monkeypatch.setattr(experiment, "evaluate_wait_predictions", capture)
        _, _, result = run_wait_time_experiment(trace, "backfill", "smith")
        return seen["waits"], [(r.job_id, r.start_time) for r in result.records]

    evaluate = experiment.evaluate_wait_predictions
    shared = run()
    forward = fast.forward_simulate

    calls = []

    def fresh_policy(snapshot, policy, *args, **kwargs):
        calls.append(policy)
        return forward(snapshot, type(policy)(), *args, **kwargs)

    monkeypatch.setattr(fast, "forward_simulate", fresh_policy)
    assert run() == shared
    assert calls


def test_wait_observer_leaves_live_plan_alone():
    """A wait-time cell's live replay keeps as many backfill plans as the
    same replay with no observer: the observer's forward simulations run
    on a policy of their own."""
    trace = load_paper_workload("SDSC96", n_jobs=300)
    cell, _, _ = run_wait_time_experiment(trace, "backfill", "smith")
    sim = Simulator(BackfillPolicy(), _estimator("max", trace), trace.total_nodes)
    sim.run(trace)
    alone = sim.metrics_snapshot()["counters"][KEPT]
    assert alone > 0
    assert cell.metrics["counters"].get(KEPT, 0) == alone
