"""Tests for repro.workloads.transform."""

from __future__ import annotations

import math

import pytest

from repro.workloads.job import Trace
from repro.workloads.stats import offered_load
from repro.workloads.transform import (
    compress_interarrival,
    filter_jobs,
    head,
    merge,
    shift,
)
from tests.conftest import make_job


def _trace():
    jobs = [
        make_job(job_id=1, submit_time=100.0, run_time=50.0, nodes=2),
        make_job(job_id=2, submit_time=300.0, run_time=50.0, nodes=2),
        make_job(job_id=3, submit_time=500.0, run_time=50.0, nodes=4),
    ]
    return Trace(jobs, total_nodes=8, name="t")


class TestCompress:
    def test_halves_gaps(self):
        out = compress_interarrival(_trace(), 2.0)
        assert [j.submit_time for j in out] == [100.0, 200.0, 300.0]

    def test_first_submission_fixed(self):
        out = compress_interarrival(_trace(), 3.0)
        assert out[0].submit_time == 100.0

    def test_run_times_and_nodes_untouched(self):
        out = compress_interarrival(_trace(), 2.0)
        assert [j.run_time for j in out] == [50.0, 50.0, 50.0]
        assert [j.nodes for j in out] == [2, 2, 4]

    def test_raises_offered_load(self):
        t = _trace()
        assert offered_load(compress_interarrival(t, 2.0)) > offered_load(t)

    def test_factor_one_identity(self):
        out = compress_interarrival(_trace(), 1.0)
        assert [j.submit_time for j in out] == [100.0, 300.0, 500.0]

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            compress_interarrival(_trace(), 0.0)

    @pytest.mark.parametrize("factor", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="positive and finite"):
            compress_interarrival(_trace(), factor)

    def test_empty_trace(self):
        empty = Trace([], total_nodes=4)
        assert len(compress_interarrival(empty, 2.0)) == 0

    def test_name_suffix(self):
        assert compress_interarrival(_trace(), 2.0).name == "tx2"


class TestHeadFilter:
    def test_head(self):
        out = head(_trace(), 2)
        assert [j.job_id for j in out] == [1, 2]

    def test_head_more_than_len(self):
        assert len(head(_trace(), 99)) == 3

    def test_head_zero(self):
        assert len(head(_trace(), 0)) == 0

    def test_head_negative_raises(self):
        with pytest.raises(ValueError):
            head(_trace(), -1)

    def test_filter_jobs(self):
        out = filter_jobs(_trace(), lambda j: j.nodes == 2)
        assert [j.job_id for j in out] == [1, 2]

    def test_metadata_preserved(self):
        out = head(_trace(), 1)
        assert out.total_nodes == 8


class TestShift:
    def test_shifts_all(self):
        out = shift(_trace(), 50.0)
        assert [j.submit_time for j in out] == [150.0, 350.0, 550.0]

    def test_negative_shift_allowed_when_valid(self):
        out = shift(_trace(), -100.0)
        assert out[0].submit_time == 0.0

    def test_negative_result_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            shift(_trace(), -150.0)

    def test_run_times_untouched(self):
        out = shift(_trace(), 10.0)
        assert [j.run_time for j in out] == [50.0, 50.0, 50.0]


class TestMerge:
    def _two(self):
        a = Trace(
            [make_job(job_id=1, submit_time=0.0, user="u", executable="e")],
            total_nodes=8,
            name="A",
        )
        b = Trace(
            [
                make_job(job_id=1, submit_time=5.0, user="u", executable="e"),
                make_job(job_id=2, submit_time=9.0, user="v", executable=None),
            ],
            total_nodes=32,
            name="B",
        )
        return a, b

    def test_ids_unique(self):
        merged = merge(self._two())
        ids = [j.job_id for j in merged]
        assert len(set(ids)) == len(ids) == 3

    def test_identities_prefixed(self):
        merged = merge(self._two())
        users = {j.user for j in merged}
        assert users == {"A:u", "B:u", "B:v"}
        assert any(j.executable == "A:e" for j in merged)
        assert any(j.executable is None for j in merged)

    def test_sorted_by_submit(self):
        merged = merge(self._two())
        times = [j.submit_time for j in merged]
        assert times == sorted(times)

    def test_total_nodes_default_max(self):
        assert merge(self._two()).total_nodes == 32

    def test_total_nodes_override(self):
        assert merge(self._two(), total_nodes=64).total_nodes == 64

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge([])
