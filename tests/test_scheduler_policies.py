"""Unit tests for the FCFS, LWF and backfill policies."""

from __future__ import annotations

import math

import pytest

from repro.scheduler.policies import BackfillPolicy, FCFSPolicy, LWFPolicy
from repro.scheduler.policies.backfill import AvailabilityProfile
from tests.conftest import make_job
from tests.fakes import FakeView


def ids(selection):
    return [qj.job_id for qj in selection]


class TestFCFS:
    def test_starts_in_arrival_order(self):
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=4),
                make_job(job_id=2, submit_time=1, nodes=4),
            ],
        )
        assert ids(FCFSPolicy().select(view)) == [1, 2]

    def test_blocks_behind_wide_head(self):
        view = FakeView(
            total_nodes=10,
            free_nodes=5,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8),  # does not fit
                make_job(job_id=2, submit_time=1, nodes=1),  # fits but must wait
            ],
        )
        assert ids(FCFSPolicy().select(view)) == []

    def test_partial_start(self):
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=6),
                make_job(job_id=2, submit_time=1, nodes=6),
            ],
        )
        assert ids(FCFSPolicy().select(view)) == [1]

    def test_empty_queue(self):
        assert ids(FCFSPolicy().select(FakeView())) == []


class TestLWF:
    def test_orders_by_work_not_arrival(self):
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=4, run_time=1000.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=10.0),
            ],
        )
        assert ids(LWFPolicy().select(view)) == [2, 1]

    def test_work_is_nodes_times_time(self):
        # job 1: 2 nodes * 100 s = 200; job 2: 8 nodes * 30 s = 240.
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=1, submit_time=1, nodes=2, run_time=100.0),
                make_job(job_id=2, submit_time=0, nodes=8, run_time=30.0),
            ],
        )
        assert ids(LWFPolicy().select(view)) == [1, 2]

    def test_skips_blocked_wide_job(self):
        """Greedy LWF lets small jobs flow around a stalled wide one."""
        view = FakeView(
            total_nodes=10,
            free_nodes=4,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8, run_time=1.0),  # least work
                make_job(job_id=2, submit_time=1, nodes=2, run_time=50.0),
            ],
        )
        assert ids(LWFPolicy().select(view)) == [2]

    def test_uses_estimates_not_actuals(self):
        view = FakeView(
            total_nodes=10,
            free_nodes=4,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=4, run_time=10.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=1000.0),
            ],
            estimates={1: 10_000.0, 2: 1.0},  # estimates invert the truth
        )
        assert ids(LWFPolicy().select(view)) == [2]

    def test_tie_breaks_by_arrival(self):
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=2, submit_time=5, nodes=2, run_time=100.0),
                make_job(job_id=1, submit_time=0, nodes=2, run_time=100.0),
            ],
        )
        assert ids(LWFPolicy().select(view)) == [1, 2]


class TestAvailabilityProfile:
    def test_immediate_start_when_free(self):
        p = AvailabilityProfile(0.0, 5, 10)
        assert p.earliest_start(4, 100.0) == 0.0

    def test_waits_for_release(self):
        p = AvailabilityProfile(0.0, 2, 10)
        p.add_release(50.0, 8)
        assert p.earliest_start(4, 100.0) == 50.0

    def test_hole_too_short_is_rejected(self):
        # 4 nodes free until t=10, then a carve drops below; the job needs
        # the nodes for 100 s continuously.
        p = AvailabilityProfile(0.0, 4, 10)
        p.carve(10.0, 100.0, 3)  # only 1 free in [10, 110)
        assert p.earliest_start(4, 100.0) == 110.0

    def test_carve_reduces_free(self):
        p = AvailabilityProfile(0.0, 10, 10)
        p.carve(5.0, 10.0, 6)
        assert p.free_at(4.9) == 10
        assert p.free_at(5.0) == 4
        assert p.free_at(14.9) == 4
        assert p.free_at(15.0) == 10

    def test_carve_overcommit_raises(self):
        p = AvailabilityProfile(0.0, 4, 10)
        with pytest.raises(RuntimeError, match="overcommitted"):
            p.carve(0.0, 10.0, 5)

    def test_release_beyond_capacity_raises(self):
        p = AvailabilityProfile(0.0, 10, 10)
        with pytest.raises(RuntimeError, match="capacity"):
            p.add_release(5.0, 1)

    def test_request_wider_than_machine_raises(self):
        p = AvailabilityProfile(0.0, 10, 10)
        with pytest.raises(ValueError, match="machine size"):
            p.earliest_start(11, 1.0)

    def test_nan_duration_raises_and_reserves_nothing(self):
        p = AvailabilityProfile.from_releases(0.0, 2, 4, [(10.0, 2)])
        with pytest.raises(ValueError, match="NaN"):
            p.reserve(1, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            p.earliest_start(3, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            p.carve(0.0, math.nan, 1)
        with pytest.raises(ValueError, match="negative"):
            p.reserve(1, -1.0)
        assert p.times == [0.0, 10.0]
        assert p.free == [2, 4]

    def test_close_before_drops_the_prefix(self):
        p = AvailabilityProfile(0.0, 10, 10)
        p.carve(5.0, 10.0, 6)
        p.close_before(5.0)
        assert p.times == [5.0, 15.0]
        assert p.free == [4, 10]
        # Nothing can start before the closed-at instant any more.
        assert p.earliest_start(2, 1.0) == 5.0

    def test_close_before_requires_a_breakpoint(self):
        p = AvailabilityProfile(0.0, 2, 10)
        p.add_release(50.0, 8)
        for bad in (25.0, -1.0, 60.0, math.inf):
            with pytest.raises(ValueError, match="breakpoint"):
                p.close_before(bad)
        assert p.times == [0.0, 50.0]


class TestBackfill:
    def test_fcfs_when_everything_fits(self):
        view = FakeView(
            total_nodes=10,
            queued=[
                make_job(job_id=1, submit_time=0, nodes=4),
                make_job(job_id=2, submit_time=1, nodes=4),
            ],
        )
        assert ids(BackfillPolicy().select(view)) == [1, 2]

    def test_backfills_short_job_into_hole(self):
        # Running: 6 nodes until t=100. Head needs 8 (waits to 100, reserved
        # on [100, 100+50)).  A 30s 4-node job fits in the hole before 100.
        view = FakeView(
            now=0.0,
            total_nodes=10,
            running=[(make_job(job_id=9, nodes=6, run_time=100.0), 0.0)],
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8, run_time=50.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=30.0),
            ],
        )
        assert ids(BackfillPolicy().select(view)) == [2]

    def test_does_not_delay_reservation(self):
        # Same as above but the backfill candidate runs 200 s, which would
        # hold 4 nodes past t=100 and delay the head's 8-node reservation.
        view = FakeView(
            now=0.0,
            total_nodes=10,
            running=[(make_job(job_id=9, nodes=6, run_time=100.0), 0.0)],
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8, run_time=50.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=200.0),
            ],
        )
        assert ids(BackfillPolicy().select(view)) == []

    def test_estimates_drive_backfill_decision(self):
        # Actual run time would delay the reservation, but the scheduler
        # believes the 30 s estimate and backfills anyway.
        view = FakeView(
            now=0.0,
            total_nodes=10,
            running=[(make_job(job_id=9, nodes=6, run_time=100.0), 0.0)],
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8, run_time=50.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=500.0),
            ],
            estimates={9: 100.0, 1: 50.0, 2: 30.0},
        )
        assert ids(BackfillPolicy().select(view)) == [2]

    def test_conservative_reservations_protect_second_in_line(self):
        # Two blocked wide jobs; a backfill that wouldn't delay the first
        # but would delay the second must not start.
        view = FakeView(
            now=0.0,
            total_nodes=10,
            running=[(make_job(job_id=9, nodes=10, run_time=100.0), 0.0)],
            queued=[
                make_job(job_id=1, submit_time=0, nodes=10, run_time=100.0),
                make_job(job_id=2, submit_time=1, nodes=10, run_time=100.0),
                # 300s job fits "now" only in profile terms after both
                # reservations; with zero free nodes nothing starts anyway.
                make_job(job_id=3, submit_time=2, nodes=1, run_time=300.0),
            ],
        )
        assert ids(BackfillPolicy().select(view)) == []

    def test_running_elapsed_shortens_remaining(self):
        # Job 9 started at t=-80 with a 100 s estimate: 20 s remain.  The
        # 8-node head reserves [20, 70); a 15 s backfill fits before that.
        view = FakeView(
            now=0.0,
            total_nodes=10,
            running=[(make_job(job_id=9, nodes=6, run_time=100.0), -80.0)],
            queued=[
                make_job(job_id=1, submit_time=0, nodes=8, run_time=50.0),
                make_job(job_id=2, submit_time=1, nodes=4, run_time=15.0),
            ],
        )
        assert ids(BackfillPolicy().select(view)) == [2]
