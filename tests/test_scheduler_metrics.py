"""Tests for repro.scheduler.metrics."""

from __future__ import annotations

import pytest

from repro.scheduler.metrics import JobRecord, ScheduleResult


def rec(job_id=1, submit=0.0, start=0.0, finish=100.0, nodes=2):
    return JobRecord(
        job_id=job_id,
        submit_time=submit,
        start_time=start,
        finish_time=finish,
        nodes=nodes,
    )


class TestJobRecord:
    def test_wait_and_run(self):
        r = rec(submit=10.0, start=25.0, finish=125.0)
        assert r.wait_time == 15.0
        assert r.run_time == 100.0

    def test_start_before_submit_raises(self):
        with pytest.raises(ValueError, match="before submission"):
            rec(submit=50.0, start=25.0)

    def test_finish_before_start_raises(self):
        with pytest.raises(ValueError, match="before start"):
            rec(start=50.0, finish=25.0)

    def test_zero_wait_allowed(self):
        assert rec(submit=5.0, start=5.0, finish=6.0).wait_time == 0.0


class TestScheduleResult:
    def test_mean_wait_minutes(self):
        res = ScheduleResult(
            [
                rec(job_id=1, submit=0.0, start=60.0, finish=100.0),
                rec(job_id=2, submit=0.0, start=180.0, finish=200.0),
            ],
            total_nodes=4,
        )
        assert res.mean_wait_minutes == pytest.approx((1.0 + 3.0) / 2.0)

    def test_utilization(self):
        # One 2-node job busy for the full 100 s makespan on 4 nodes: 50%.
        res = ScheduleResult([rec(nodes=2)], total_nodes=4)
        assert res.utilization == pytest.approx(0.5)
        assert res.utilization_percent == pytest.approx(50.0)

    def test_makespan_from_submit_to_finish(self):
        res = ScheduleResult(
            [rec(job_id=1, submit=10.0, start=20.0, finish=50.0)], total_nodes=4
        )
        assert res.makespan == 40.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScheduleResult([rec(job_id=1), rec(job_id=1)], total_nodes=4)

    def test_lookup(self):
        res = ScheduleResult([rec(job_id=5)], total_nodes=4)
        assert 5 in res
        assert res[5].job_id == 5
        assert 6 not in res

    def test_empty(self):
        res = ScheduleResult([], total_nodes=4)
        assert len(res) == 0
        assert res.mean_wait_minutes == 0.0
        assert res.utilization == 0.0

    def test_max_concurrent_nodes(self):
        res = ScheduleResult(
            [
                rec(job_id=1, start=0.0, finish=100.0, nodes=3),
                rec(job_id=2, start=50.0, finish=150.0, nodes=2),
                rec(job_id=3, submit=0.0, start=100.0, finish=200.0, nodes=4),
            ],
            total_nodes=8,
        )
        # Overlap of jobs 1+2 on [50,100) = 5; release of 1 at 100 happens
        # before allocation of 3, so [100,150) holds 2+4 = 6 nodes.
        assert res.max_concurrent_nodes() == 6

    def test_zero_runtime_jobs_ignored_in_peak(self):
        res = ScheduleResult(
            [rec(job_id=1, start=10.0, finish=10.0, nodes=8)], total_nodes=8
        )
        assert res.max_concurrent_nodes() == 0


class TestExtendedMetrics:
    def _result(self):
        return ScheduleResult(
            [
                rec(job_id=1, submit=0.0, start=0.0, finish=1000.0),  # wait 0
                rec(job_id=2, submit=0.0, start=600.0, finish=700.0),  # wait 600
                rec(job_id=3, submit=0.0, start=1200.0, finish=1210.0, nodes=8),
            ],
            total_nodes=8,
        )

    def test_wait_percentile(self):
        res = self._result()
        assert res.wait_percentile(0) == pytest.approx(0.0)
        assert res.wait_percentile(100) == pytest.approx(20.0)  # 1200 s
        assert res.wait_percentile(50) == pytest.approx(10.0)

    def test_wait_percentile_validation(self):
        with pytest.raises(ValueError):
            self._result().wait_percentile(101)

    def test_wait_percentile_empty(self):
        assert ScheduleResult([], total_nodes=4).wait_percentile(50) == 0.0

    def test_bounded_slowdown(self):
        res = self._result()
        # job1: (0+1000)/max(1000,600)=1.0; job2: (600+100)/600=7/6;
        # job3: (1200+10)/600 ≈ 2.0167 -> mean ≈ 1.394
        expected = (1.0 + 7.0 / 6.0 + 1210.0 / 600.0) / 3.0
        assert res.mean_bounded_slowdown() == pytest.approx(expected)

    def test_bounded_slowdown_floor_one(self):
        res = ScheduleResult(
            [rec(job_id=1, submit=0.0, start=0.0, finish=10.0)], total_nodes=8
        )
        assert res.mean_bounded_slowdown() == 1.0

    def test_per_class_mean_wait(self):
        res = self._result()
        by_width = res.per_class_mean_wait(lambda r: r.nodes >= 8)
        assert by_width[True] == pytest.approx(20.0)
        assert by_width[False] == pytest.approx(5.0)
