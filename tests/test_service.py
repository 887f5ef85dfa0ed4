"""Tests for the online prediction service (repro.service).

The two load-bearing properties:

- **Incremental snapshot parity** — the service's event-fed mirror of
  scheduler state equals a from-scratch :meth:`Simulator.snapshot`
  after *any* replay prefix (hypothesis-generated traces, policies and
  stop points).
- **Epoch-cache bit-identity** — a cached answer equals the uncached
  :func:`repro.waitpred.predictor.predict_wait` computation exactly
  (``==``, not approx), and repeated queries between events are served
  from the cache.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import PointEstimator
from repro.predictors.simple import MaxRuntimePredictor
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.simulator import Simulator
from repro.service import (
    PredictionServer,
    PredictionService,
    ServiceClient,
    SimulatorFeed,
    UnknownJobError,
    job_from_wire,
    job_to_wire,
)
from repro.waitpred.predictor import predict_wait
from repro.workloads.job import Job, Trace
from tests.conftest import make_job

TOTAL = 12

_POLICIES = (FCFSPolicy, BackfillPolicy, LWFPolicy)


def _estimator() -> PointEstimator:
    return PointEstimator(MaxRuntimePredictor(), default=300.0)


def _service(policy, *, total=TOTAL, **kwargs) -> PredictionService:
    return PredictionService(policy, _estimator(), total, **kwargs)


@st.composite
def traces(draw):
    """A random small trace: contention guaranteed by tight arrivals."""
    n = draw(st.integers(2, 12))
    jobs = []
    t = 0.0
    for jid in range(1, n + 1):
        t += draw(st.floats(0.0, 30.0))
        jobs.append(
            Job(
                job_id=jid,
                submit_time=t,
                run_time=draw(st.floats(1.0, 300.0)),
                nodes=draw(st.integers(1, TOTAL)),
                max_run_time=draw(st.floats(1.0, 600.0)),
            )
        )
    return Trace(jobs, total_nodes=TOTAL, name="svc-prop")


class TestSnapshotParity:
    @given(trace=traces(), policy_idx=st.integers(0, len(_POLICIES) - 1),
           stop_frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_property_incremental_equals_fresh_snapshot(
        self, trace, policy_idx, stop_frac
    ):
        """After any replay prefix the mirrored state is the state."""
        policy = _POLICIES[policy_idx]()
        svc = _service(policy)
        sim = Simulator(_POLICIES[policy_idx](), _estimator(), TOTAL)
        sim.add_observer(SimulatorFeed(svc))
        span = max(j.submit_time for j in trace.jobs) + 600.0
        sim.run(trace, until_time=stop_frac * span)
        # The simulator clock advances past the last event (to the stop
        # instant); mirror that with a tick, which must change nothing
        # but the timestamp.
        if sim.now > svc.now:
            svc.tick(sim.now)
        assert svc.snapshot() == sim.snapshot()
        # Continue to the end: parity again after the remaining events.
        sim.run()
        if sim.now > svc.now:
            svc.tick(sim.now)
        assert svc.snapshot() == sim.snapshot()
        assert not svc.queued_ids and not svc.running_ids

    def test_feed_tracks_full_replay(self, anl_trace):
        from repro.workloads.transform import compress_interarrival, head

        trace = compress_interarrival(head(anl_trace, 120), 50.0)
        policy = BackfillPolicy()
        svc = PredictionService(policy, _estimator(), trace.total_nodes)
        sim = Simulator(BackfillPolicy(), _estimator(), trace.total_nodes)
        sim.add_observer(SimulatorFeed(svc))
        last_submit = max(j.submit_time for j in trace.jobs)
        sim.run(trace, until_time=last_submit)
        assert svc.snapshot() == sim.snapshot()
        assert svc.queued_ids  # the compressed prefix leaves a live queue
        assert svc.epoch == svc.stats()["counters"]["service.events"]


class TestEventValidation:
    def test_duplicate_submit_rejected(self):
        svc = _service(FCFSPolicy())
        svc.submit(make_job(job_id=1), 0.0)
        with pytest.raises(ValueError, match="already submitted"):
            svc.submit(make_job(job_id=1), 1.0)

    def test_start_requires_queued(self):
        svc = _service(FCFSPolicy())
        with pytest.raises(UnknownJobError):
            svc.start(7, 0.0)

    def test_finish_requires_running(self):
        svc = _service(FCFSPolicy())
        svc.submit(make_job(job_id=1), 0.0)
        with pytest.raises(UnknownJobError):
            svc.finish(1, 1.0)

    def test_clock_must_not_run_backwards(self):
        svc = _service(FCFSPolicy())
        svc.submit(make_job(job_id=1), 10.0)
        with pytest.raises(ValueError, match="precedes"):
            svc.submit(make_job(job_id=2), 5.0)

    def test_every_event_bumps_epoch(self):
        svc = _service(FCFSPolicy())
        assert svc.epoch == 0
        svc.submit(make_job(job_id=1, nodes=2), 0.0)
        svc.start(1, 1.0)
        svc.finish(1, 2.0)
        assert svc.epoch == 3


class HookRecorder:
    """An estimator recording every life-cycle hook call into ``log``."""

    history_epoch = 0

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def predict(self, job, elapsed, now) -> float:
        return float(job.max_run_time)

    def on_submit(self, job, now) -> None:
        self.log.append((self.name, "on_submit", job.job_id, now))

    def on_start(self, job, now) -> None:
        self.log.append((self.name, "on_start", job.job_id, now))

    def on_finish(self, job, now) -> None:
        self.log.append((self.name, "on_finish", job.job_id, now))


class NoHooks:
    """An estimator with no life-cycle hooks at all."""

    history_epoch = 0

    def predict(self, job, elapsed, now) -> float:
        return float(job.max_run_time)


class Dial:
    """A volatile estimator whose answers are set from outside."""

    history_epoch = None

    def __init__(self, values: dict[int, float]) -> None:
        self.values = dict(values)

    def predict(self, job, elapsed, now) -> float:
        return self.values.get(job.job_id, float(job.max_run_time))


@pytest.mark.parametrize(
    "policy_cls, target, before, after",
    [(LWFPolicy, 2, 149.0, 99.0), (BackfillPolicy, 3, 0.0, 199.0)],
)
def test_volatile_scheduler_estimator_is_never_served_stale(
    policy_cls, target, before, after
):
    """A scheduler estimator advertising no epoch turns caching off: its
    answers may change between two queries with no service event."""
    dial = Dial({2: 100.0, 3: 10.0})
    svc = PredictionService(policy_cls(), _estimator(), 10, scheduler_estimator=dial)
    svc.submit(make_job(job_id=1, nodes=6, run_time=100.0, max_run_time=100.0), 0.0)
    svc.start(1, 0.0)
    for jid, nodes, max_rt in ((2, 8, 100.0), (3, 4, 50.0), (4, 5, 50.0)):
        svc.submit(
            make_job(job_id=jid, nodes=nodes, run_time=50.0, max_run_time=max_rt), 1.0
        )
    assert svc.predict(target) == before
    dial.values.update({2: 10.0, 3: 100.0})
    fresh = predict_wait(
        svc.snapshot(), svc.policy, svc.estimator, target, scheduler_estimator=dial
    )
    assert fresh == after
    assert svc.predict(target) == fresh


def _drive(svc: PredictionService) -> None:
    svc.submit(make_job(job_id=1, nodes=2, max_run_time=100.0), 1.0)
    svc.start(1, 2.0)
    svc.finish(1, 3.0)


class TestEstimatorHooks:
    def test_duration_estimator_notified_before_scheduler_estimator(self):
        log: list = []
        svc = PredictionService(
            BackfillPolicy(), HookRecorder("duration", log), TOTAL,
            scheduler_estimator=HookRecorder("scheduler", log),
        )
        _drive(svc)
        assert log == [
            ("duration", "on_submit", 1, 1.0),
            ("scheduler", "on_submit", 1, 1.0),
            ("duration", "on_start", 1, 2.0),
            ("scheduler", "on_start", 1, 2.0),
            ("duration", "on_finish", 1, 3.0),
            ("scheduler", "on_finish", 1, 3.0),
        ]

    def test_shared_estimator_notified_once(self):
        log: list = []
        est = HookRecorder("shared", log)
        svc = PredictionService(
            BackfillPolicy(), est, TOTAL, scheduler_estimator=est
        )
        _drive(svc)
        assert log == [
            ("shared", "on_submit", 1, 1.0),
            ("shared", "on_start", 1, 2.0),
            ("shared", "on_finish", 1, 3.0),
        ]

    def test_estimator_without_hooks_is_skipped(self):
        log: list = []
        svc = PredictionService(
            BackfillPolicy(), NoHooks(), TOTAL,
            scheduler_estimator=HookRecorder("scheduler", log),
        )
        _drive(svc)
        assert [entry[1] for entry in log] == ["on_submit", "on_start", "on_finish"]
        bare = PredictionService(FCFSPolicy(), NoHooks(), TOTAL)
        _drive(bare)
        bare.submit(make_job(job_id=2, nodes=2, max_run_time=50.0), 4.0)
        assert bare.predict(2) == 0.0


class TestPredictions:
    def _loaded(self, policy) -> PredictionService:
        svc = _service(policy)
        svc.submit(make_job(job_id=1, nodes=TOTAL, run_time=100.0,
                            max_run_time=200.0), 0.0)
        svc.start(1, 0.0)
        for jid, nodes in ((2, 4), (3, 8), (4, 2)):
            svc.submit(
                make_job(job_id=jid, nodes=nodes, run_time=50.0,
                         max_run_time=100.0),
                float(jid),
            )
        return svc

    @pytest.mark.parametrize("policy_cls", _POLICIES)
    def test_cached_equals_uncached_predict_wait(self, policy_cls):
        svc = self._loaded(policy_cls())
        for jid in svc.queued_ids:
            got = svc.predict(jid)
            fresh = predict_wait(
                svc.snapshot(), svc.policy, svc.estimator, jid
            )
            assert got == fresh  # bit-identical, not approx
            assert svc.predict(jid) == got  # and stable across repeats

    @pytest.mark.parametrize("policy_cls", _POLICIES)
    def test_batch_bit_identical_to_singles(self, policy_cls):
        svc = self._loaded(policy_cls())
        singles = {jid: svc.predict(jid) for jid in svc.queued_ids}
        assert svc.predict_batch() == singles
        assert svc.predict_batch(list(svc.queued_ids)) == singles

    def test_running_and_finished_answer_zero(self):
        svc = self._loaded(BackfillPolicy())
        assert svc.predict(1) == 0.0  # running
        svc.finish(1, 10.0)
        assert svc.predict(1) == 0.0  # finished

    def test_unknown_job_raises(self):
        svc = self._loaded(BackfillPolicy())
        with pytest.raises(UnknownJobError) as exc:
            svc.predict(99)
        assert exc.value.job_id == 99
        with pytest.raises(UnknownJobError):
            svc.predict_batch([2, 99])

    def test_repeat_queries_hit_cache(self):
        svc = self._loaded(BackfillPolicy())
        n = len(svc.queued_ids)
        for _ in range(5):
            svc.predict_batch()
        stats = svc.stats()["counters"]
        assert stats["service.queries"] == 5 * n
        assert stats["service.cache_misses"] == 1  # one warm per epoch
        assert stats["service.cache_hits"] == 5 * n - 1
        assert stats["service.fallback_simulations"] == 0

    def test_event_invalidates_cache(self):
        svc = self._loaded(BackfillPolicy())
        svc.predict_batch()
        svc.submit(make_job(job_id=5, nodes=1, run_time=10.0,
                            max_run_time=20.0), 20.0)
        svc.predict_batch()
        assert svc.stats()["counters"]["service.cache_misses"] == 2

    def test_volatile_estimator_disables_cache(self):
        policy = BackfillPolicy()
        svc = PredictionService(
            policy,
            PointEstimator(MaxRuntimePredictor(), default=300.0, volatile=True),
            TOTAL,
        )
        svc.submit(make_job(job_id=1, nodes=TOTAL, run_time=100.0,
                            max_run_time=200.0), 0.0)
        svc.start(1, 0.0)
        svc.submit(make_job(job_id=2, nodes=4, run_time=50.0,
                            max_run_time=100.0), 1.0)
        first = svc.predict(2)
        assert svc.predict(2) == first  # identical, just recomputed
        stats = svc.stats()["counters"]
        assert stats["service.cache_misses"] == 2
        assert stats["service.cache_hits"] == 0

    def test_lwf_counts_fallback_simulations(self):
        svc = self._loaded(LWFPolicy())
        svc.predict_batch()
        stats = svc.stats()["counters"]
        assert stats["service.fallback_simulations"] == len(svc.queued_ids)

    def test_shortcut_policies_never_fall_back(self):
        for policy_cls in (FCFSPolicy, BackfillPolicy):
            svc = self._loaded(policy_cls())
            svc.predict_batch()
            assert (
                svc.stats()["counters"]["service.fallback_simulations"] == 0
            )

    def test_latency_histogram_populated(self):
        svc = self._loaded(BackfillPolicy())
        svc.predict_batch()
        hist = svc.stats()["histograms"]["service.query_latency_seconds"]
        assert hist["count"] == 1
        svc.predict(2)
        assert (
            svc.stats()["histograms"]["service.query_latency_seconds"]["count"]
            == 2
        )

    def test_latency_read_from_the_injected_clock(self):
        ticks = iter([100.0, 100.25, 200.0, 200.5])
        svc = _service(BackfillPolicy(), clock=lambda: next(ticks))
        svc.submit(make_job(job_id=1, nodes=4, run_time=50.0,
                            max_run_time=100.0), 0.0)
        svc.predict(1)
        svc.predict_batch()
        hist = svc.stats()["histograms"]["service.query_latency_seconds"]
        assert hist["count"] == 2
        assert hist["sum"] == 0.75


class TestWireFormat:
    def test_job_round_trip(self):
        job = make_job(job_id=7, submit_time=3.0, run_time=60.0, nodes=5,
                       max_run_time=120.0, queue="batch")
        back = job_from_wire(job_to_wire(job))
        assert back.job_id == 7 and back.nodes == 5
        assert back.max_run_time == 120.0 and back.queue == "batch"

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing fields"):
            job_from_wire({"job_id": 1})


class TestServer:
    @pytest.fixture
    def server(self):
        svc = _service(BackfillPolicy())
        server = PredictionServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def _client(self, server) -> ServiceClient:
        return ServiceClient("127.0.0.1", server.port)

    def test_round_trip_matches_in_process(self, server):
        with self._client(server) as client:
            assert client.ping()
            client.submit(make_job(job_id=1, nodes=TOTAL, run_time=100.0,
                                   max_run_time=200.0), 0.0)
            client.start(1, 0.0)
            client.submit(make_job(job_id=2, nodes=4, run_time=50.0,
                                   max_run_time=100.0), 1.0)
            remote = client.predict(2)
            local = predict_wait(
                server.service.snapshot(),
                server.service.policy,
                server.service.estimator,
                2,
            )
            assert remote == local
            assert client.predict_batch() == {2: remote}
            state = client.state()
            assert state["queued"] == [2] and state["running"] == [1]
            assert client.stats()["counters"]["service.queries"] >= 2

    def test_simulator_feed_replays_through_the_client(self, server):
        """``SimulatorFeed`` drives a remote server as it drives a local
        service (the ``repro-sched query --replay`` path)."""
        jobs = [
            make_job(job_id=jid, submit_time=7.0 * jid, nodes=1 + (5 * jid) % TOTAL,
                     run_time=40.0 + 13.0 * (jid % 7), max_run_time=200.0)
            for jid in range(1, 25)
        ]
        trace = Trace(jobs, total_nodes=TOTAL)
        sim = Simulator(BackfillPolicy(), _estimator(), TOTAL)
        with self._client(server) as client:
            sim.add_observer(SimulatorFeed(client))
            sim.run(trace, until_time=jobs[-1].submit_time)
            state = client.state()
        snap = sim.snapshot()
        assert snap.queued  # the prefix leaves a live queue
        assert state["queued"] == [qj.job_id for qj in snap.queued]
        assert state["running"] == [rj.job_id for rj in snap.running]

    def test_batch_events(self, server):
        job = make_job(job_id=3, nodes=2, run_time=10.0, max_run_time=20.0)
        with self._client(server) as client:
            applied = client.send_events([
                {"event": "submit", "job": job_to_wire(job), "now": 0.0},
                {"event": "start", "job_id": 3, "now": 1.0},
                {"event": "finish", "job_id": 3, "now": 2.0},
            ])
            assert applied == 3
            assert client.predict(3) == 0.0  # finished

    def test_unknown_job_crosses_the_wire(self, server):
        with self._client(server) as client:
            with pytest.raises(UnknownJobError) as exc:
                client.predict(404)
            assert exc.value.job_id == 404

    def test_bad_requests_answer_errors(self, server):
        with self._client(server) as client:
            with pytest.raises(RuntimeError, match="unknown op"):
                client.call({"op": "frobnicate"})
            with pytest.raises(RuntimeError):
                client.call({"op": "submit", "job": {"job_id": 1}, "now": 0.0})
            assert client.ping()  # connection survives error responses
