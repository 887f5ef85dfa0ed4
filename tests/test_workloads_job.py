"""Tests for repro.workloads.job: Job validation and Trace behaviour."""

from __future__ import annotations

import dataclasses

import pytest

from repro.workloads.job import Job, Trace
from tests.conftest import make_job


class TestJob:
    def test_work(self):
        job = make_job(run_time=100.0, nodes=8)
        assert job.work == 800.0

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            make_job(nodes=0)

    def test_rejects_negative_run_time(self):
        with pytest.raises(ValueError, match="run_time"):
            make_job(run_time=-1.0)

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError, match="submit_time"):
            make_job(submit_time=-5.0)

    def test_rejects_nonpositive_max_run_time(self):
        with pytest.raises(ValueError, match="max_run_time"):
            make_job(max_run_time=0.0)

    @pytest.mark.parametrize("field", ["run_time", "submit_time", "max_run_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_times(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_job(**{field: value})

    def test_zero_run_time_allowed(self):
        assert make_job(run_time=0.0).run_time == 0.0

    def test_with_replaces_fields(self):
        job = make_job(run_time=100.0)
        clone = job.with_(run_time=200.0)
        assert clone.run_time == 200.0
        assert clone.job_id == job.job_id
        assert job.run_time == 100.0  # original untouched

    def test_with_validates_as_the_constructor_does(self):
        job = make_job(run_time=100.0, max_run_time=500.0)
        with pytest.raises(TypeError, match="bogus"):
            job.with_(bogus=1)
        for field in ("run_time", "submit_time", "max_run_time"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field):
                    job.with_(**{field: value})
        with pytest.raises(ValueError, match="nodes"):
            job.with_(nodes=0)

    def test_with_answers_as_dataclasses_replace(self):
        job = make_job(run_time=100.0, queue="q16m", max_run_time=500.0)
        clone = job.with_(submit_time=7.0, nodes=2)
        built = dataclasses.replace(job, submit_time=7.0, nodes=2)
        assert clone == built and hash(clone) == hash(built)
        assert repr(clone) == repr(built)
        assert job.with_() == job and job.with_() is not job
        assert type(clone) is Job
        with pytest.raises(AttributeError):
            clone.run_time = 5.0  # type: ignore[misc]

    def test_frozen(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.run_time = 5.0  # type: ignore[misc]

    def test_optional_fields_default_none(self):
        job = Job(job_id=1, submit_time=0, run_time=1, nodes=1)
        assert job.user is None
        assert job.queue is None
        assert job.max_run_time is None


class TestTrace:
    def test_sorts_by_submit_time(self):
        jobs = [
            make_job(job_id=1, submit_time=50.0),
            make_job(job_id=2, submit_time=10.0),
        ]
        trace = Trace(jobs, total_nodes=10)
        assert [j.job_id for j in trace] == [2, 1]

    def test_tie_broken_by_job_id(self):
        jobs = [
            make_job(job_id=9, submit_time=5.0),
            make_job(job_id=3, submit_time=5.0),
        ]
        trace = Trace(jobs, total_nodes=10)
        assert [j.job_id for j in trace] == [3, 9]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Trace([make_job(job_id=1), make_job(job_id=1)], total_nodes=10)

    def test_rejects_oversized_job(self):
        with pytest.raises(ValueError, match="nodes"):
            Trace([make_job(nodes=20)], total_nodes=10)

    def test_rejects_bad_total_nodes(self):
        with pytest.raises(ValueError):
            Trace([], total_nodes=0)

    def test_len_getitem(self, small_trace):
        assert len(small_trace) == 5
        assert small_trace[0].job_id == 1

    def test_span(self):
        jobs = [
            make_job(job_id=1, submit_time=0.0, run_time=100.0),
            make_job(job_id=2, submit_time=50.0, run_time=500.0),
        ]
        trace = Trace(jobs, total_nodes=10)
        assert trace.span == 550.0

    def test_span_empty(self):
        assert Trace([], total_nodes=4).span == 0.0

    def test_map_preserves_metadata(self, small_trace):
        doubled = small_trace.map(lambda j: j.with_(run_time=j.run_time * 2))
        assert doubled.total_nodes == small_trace.total_nodes
        assert doubled[0].run_time == 2 * small_trace[0].run_time
        assert len(doubled) == len(small_trace)

    def test_filter(self, small_trace):
        small = small_trace.filter(lambda j: j.nodes <= 2)
        assert all(j.nodes <= 2 for j in small)
        assert len(small) == 2

    def test_jobs_tuple_is_immutable_view(self, small_trace):
        assert isinstance(small_trace.jobs, tuple)


class TestScaledNames:
    """base_name/scale attributes and the strict name-suffix fallback.

    Regression: ``name.split("x")[0]`` misparsed any workload whose base
    name contains an "x" ("proxy" -> "pro").
    """

    def test_split_scaled_name(self):
        from repro.workloads.job import split_scaled_name

        assert split_scaled_name("SDSC95x2") == ("SDSC95", 2.0)
        assert split_scaled_name("CTCx1.5") == ("CTC", 1.5)
        assert split_scaled_name("proxy") == ("proxy", 1.0)
        assert split_scaled_name("matrix") == ("matrix", 1.0)
        assert split_scaled_name("xenon") == ("xenon", 1.0)
        assert split_scaled_name("x2") == ("x2", 1.0)  # no base before the x

    def test_trace_derives_base_name_from_name(self):
        trace = Trace([make_job()], total_nodes=8, name="SDSC95x2")
        assert trace.base_name == "SDSC95"
        assert trace.scale == 2.0

    def test_x_containing_name_not_mangled(self):
        trace = Trace([make_job()], total_nodes=8, name="proxy-cluster")
        assert trace.base_name == "proxy-cluster"
        assert trace.scale == 1.0

    def test_explicit_stamp_wins_over_parsing(self):
        trace = Trace(
            [make_job()], total_nodes=8, name="weird x2 label",
            base_name="weird", scale=3.0,
        )
        assert trace.base_name == "weird"
        assert trace.scale == 3.0

    def test_map_and_filter_propagate_identity(self):
        trace = Trace(
            [make_job()], total_nodes=8, name="SDSC95x2",
            base_name="SDSC95", scale=2.0,
        )
        assert trace.map(lambda j: j).base_name == "SDSC95"
        assert trace.filter(lambda j: True).scale == 2.0

    def test_compress_stamps_identity_not_parse(self):
        from repro.workloads.transform import compress_interarrival

        jobs = [make_job(job_id=i, submit_time=100.0 * i) for i in range(3)]
        trace = Trace(jobs, total_nodes=8, name="flux")
        compressed = compress_interarrival(trace, 2)
        assert compressed.name == "fluxx2"
        assert compressed.base_name == "flux"  # rpartition would say "flux" too,
        assert compressed.scale == 2.0         # but only because it's stamped

    def test_tuned_predictor_resolves_compressed_trace(self):
        """make_predictor must key tuned templates on base_name."""
        from repro.core.registry import make_predictor
        from repro.workloads.archive import load_paper_workload
        from repro.workloads.transform import compress_interarrival

        trace = compress_interarrival(load_paper_workload("SDSC95", n_jobs=40), 2)
        assert trace.base_name == "SDSC95"
        predictor = make_predictor("smith-tuned", trace)
        assert predictor is not None
