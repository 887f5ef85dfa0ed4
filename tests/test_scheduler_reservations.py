"""Tests for advance reservations (paper §5 co-allocation support)."""

from __future__ import annotations

import math

import pytest

from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor, MaxRuntimePredictor
from repro.scheduler.policies import BackfillPolicy, EASYBackfillPolicy, FCFSPolicy
from repro.scheduler.reservations import Reservation, ReservationRecord
from repro.scheduler.simulator import Simulator
from repro.workloads.job import Trace
from tests.conftest import make_job


def sim_with(policy, jobs, reservations, total_nodes=10):
    sim = Simulator(policy, PointEstimator(ActualRuntimePredictor()), total_nodes)
    sim.add_reservations(reservations)
    result = sim.run(Trace(jobs, total_nodes=total_nodes))
    return sim, result


class TestReservationValidation:
    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            Reservation(1, 0.0, 10.0, 0)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            Reservation(1, 0.0, 0.0, 2)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            Reservation(1, -5.0, 10.0, 2)

    @pytest.mark.parametrize("field", ["start_time", "duration"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, field, bad):
        # A non-finite start or end event would never drain from run().
        fields = {"res_id": 1, "start_time": 5.0, "duration": 10.0, "nodes": 2}
        fields[field] = bad
        with pytest.raises(ValueError, match=f"reservation 1: {field} must be finite"):
            Reservation(**fields)

    def test_too_wide_rejected_by_simulator(self):
        sim = Simulator(FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), 4)
        with pytest.raises(ValueError, match="nodes"):
            sim.add_reservations([Reservation(1, 0.0, 10.0, 8)])

    def test_past_start_rejected(self):
        sim = Simulator(FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), 4)
        sim.now = 100.0
        with pytest.raises(ValueError, match="past"):
            sim.add_reservations([Reservation(1, 50.0, 10.0, 2)])

    def test_record_delay(self):
        rec = ReservationRecord(1, 100.0, 130.0, 4, 60.0)
        assert rec.delay == 30.0


class TestReservationActivation:
    def test_on_time_when_machine_free(self):
        sim, _ = sim_with(FCFSPolicy(), [], [Reservation(1, 100.0, 50.0, 6)])
        [rec] = sim.reservation_records
        assert rec.actual_start == 100.0
        assert rec.delay == 0.0

    def test_blocks_jobs_during_window(self):
        # Reservation holds 6 of 10 nodes on [100, 200); a 6-node job
        # arriving at 150 must wait until 200.
        sim, result = sim_with(
            FCFSPolicy(),
            [make_job(job_id=1, submit_time=150.0, run_time=10.0, nodes=6)],
            [Reservation(1, 100.0, 100.0, 6)],
        )
        assert result[1].start_time == 200.0

    def test_delayed_by_myopic_fcfs_job(self):
        # FCFS ignores the upcoming reservation and starts a long 8-node
        # job at t=0; the reservation (5 nodes at t=100) must wait until
        # the job ends at t=500.
        sim, _ = sim_with(
            FCFSPolicy(),
            [make_job(job_id=1, submit_time=0.0, run_time=500.0, nodes=8)],
            [Reservation(1, 100.0, 50.0, 5)],
        )
        [rec] = sim.reservation_records
        assert rec.actual_start == 500.0
        assert rec.delay == 400.0

    def test_waiting_reservation_beats_queued_job(self):
        # At t=500 the machine frees: the waiting reservation (5 nodes)
        # claims before the queued 8-node job, which must wait for the
        # reservation window to close.
        sim, result = sim_with(
            FCFSPolicy(),
            [
                make_job(job_id=1, submit_time=0.0, run_time=500.0, nodes=8),
                make_job(job_id=2, submit_time=10.0, run_time=10.0, nodes=8),
            ],
            [Reservation(1, 100.0, 50.0, 5)],
        )
        [rec] = sim.reservation_records
        assert rec.actual_start == 500.0
        assert result[2].start_time == pytest.approx(550.0)

    def test_backfill_protects_reservation(self):
        """Reservation-aware backfill refuses the job FCFS would start."""
        jobs = [make_job(job_id=1, submit_time=0.0, run_time=500.0, nodes=8)]
        res = [Reservation(1, 100.0, 50.0, 5)]
        sim_bf, result_bf = sim_with(BackfillPolicy(), jobs, res)
        [rec] = sim_bf.reservation_records
        # Backfill sees the job's 500 s estimate colliding with the
        # window and delays the JOB instead of the reservation.
        assert rec.delay == 0.0
        assert result_bf[1].start_time == pytest.approx(150.0)

    def test_easy_protects_reservation(self):
        jobs = [make_job(job_id=1, submit_time=0.0, run_time=500.0, nodes=8)]
        res = [Reservation(1, 100.0, 50.0, 5)]
        sim_easy, result_easy = sim_with(EASYBackfillPolicy(), jobs, res)
        [rec] = sim_easy.reservation_records
        assert rec.delay == 0.0
        assert result_easy[1].start_time == pytest.approx(150.0)

    def test_backfill_protection_only_as_good_as_estimates(self):
        """With loose maxima the window is protected; with *under*-
        estimates a job overruns into the window and delays it."""
        # Scheduler believes the job runs 50 s (fits before t=100), but
        # it actually runs 300 s.
        job = make_job(
            job_id=1, submit_time=0.0, run_time=300.0, nodes=8, max_run_time=50.0
        )
        sim = Simulator(BackfillPolicy(), PointEstimator(MaxRuntimePredictor()), 10)
        sim.add_reservations([Reservation(1, 100.0, 50.0, 5)])
        sim.run(Trace([job], total_nodes=10))
        [rec] = sim.reservation_records
        assert rec.delay == pytest.approx(200.0)  # waits for the overrun

    def test_multiple_reservations_fifo_activation(self):
        sim, _ = sim_with(
            FCFSPolicy(),
            [make_job(job_id=1, submit_time=0.0, run_time=400.0, nodes=10)],
            [
                Reservation(1, 100.0, 50.0, 6),
                Reservation(2, 120.0, 50.0, 4),
            ],
        )
        recs = {r.res_id: r for r in sim.reservation_records}
        # Both wait for t=400; both fit together (6+4=10) and start then.
        assert recs[1].actual_start == 400.0
        assert recs[2].actual_start == 400.0

    def test_capacity_never_exceeded_with_reservations(self, anl_trace):
        from repro.workloads.transform import head

        trace = head(anl_trace, 200)
        sim = Simulator(
            BackfillPolicy(),
            PointEstimator(ActualRuntimePredictor()),
            trace.total_nodes,
        )
        span = trace.span
        sim.add_reservations(
            [
                Reservation(i, span * i / 5.0 + 1.0, 3600.0, trace.total_nodes // 4)
                for i in range(1, 4)
            ]
        )
        result = sim.run(trace)
        assert len(result) == len(trace)
        assert len(sim.reservation_records) == 3
        # Job concurrency plus active reservations never exceeded the pool
        # (the pool itself raises otherwise, so completing is the check).
        assert result.max_concurrent_nodes() <= trace.total_nodes
