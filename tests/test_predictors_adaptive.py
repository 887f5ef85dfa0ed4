"""Tests for the online-learning predictors (predictors.adaptive)."""

from __future__ import annotations

import math

import pytest

from repro.predictors.adaptive import (
    DecayedMeanPredictor,
    OnlineMeanPredictor,
    OnlineRegressionPredictor,
    _DecayedMoments,
)
from repro.predictors.base import warm_start
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template, default_templates
from repro.workloads.job import Trace
from tests.conftest import make_job

UE = Template(characteristics=("u", "e"))
U = Template(characteristics=("u",))


class TestValidation:
    def test_empty_template_set_rejected(self):
        with pytest.raises(ValueError):
            OnlineMeanPredictor([])


class TestOnlineMean:
    def test_no_history_predicts_none(self):
        p = OnlineMeanPredictor([U])
        assert p.predict(make_job()) is None

    def test_one_point_is_not_enough(self):
        p = OnlineMeanPredictor([U])
        p.on_finish(make_job(run_time=100.0), 0.0)
        assert p.predict(make_job()) is None

    def test_category_mean_after_two_points(self):
        p = OnlineMeanPredictor([U])
        p.on_finish(make_job(user="alice", run_time=100.0), 0.0)
        p.on_finish(make_job(user="alice", run_time=300.0), 0.0)
        pred = p.predict(make_job(user="alice"))
        assert pred.estimate == pytest.approx(200.0)
        assert pred.interval > 0.0
        assert pred.source == f"online-mean:{U.describe()}"

    def test_uncovered_job_served_from_global_pool(self):
        p = OnlineMeanPredictor([U])
        p.on_finish(make_job(user="alice", run_time=100.0), 0.0)
        p.on_finish(make_job(user="bob", run_time=300.0), 0.0)
        # carol has no (u) category yet; the global pool answers.
        pred = p.predict(make_job(user="carol"))
        assert pred.estimate == pytest.approx(200.0)
        assert pred.source == "online-mean:global"

    def test_epoch_bumps_once_per_completion(self):
        p = OnlineMeanPredictor([U, UE])
        assert p.history_epoch == 0
        p.on_finish(make_job(), 0.0)
        p.on_finish(make_job(), 0.0)
        assert p.history_epoch == 2
        assert p.updates == 2

    def test_relative_template_scales_by_job_maximum(self):
        p = OnlineMeanPredictor([Template(characteristics=("u",), relative=True)])
        p.on_finish(make_job(user="a", run_time=100.0, max_run_time=200.0), 0.0)
        p.on_finish(make_job(user="a", run_time=300.0, max_run_time=600.0), 0.0)
        # Both completions ran half their maximum.
        pred = p.predict(make_job(user="a", max_run_time=1000.0))
        assert pred.estimate == pytest.approx(500.0)

    def test_smallest_interval_template_wins(self):
        p = OnlineMeanPredictor([Template(), U])
        # (u)=alice is tight (identical times); the global template is wide.
        for rt in (100.0, 100.0):
            p.on_finish(make_job(user="alice", run_time=rt), 0.0)
        for rt in (10.0, 5000.0):
            p.on_finish(make_job(user="bob", run_time=rt), 0.0)
        pred = p.predict(make_job(user="alice"))
        assert pred.estimate == pytest.approx(100.0)
        assert pred.source == f"online-mean:{U.describe()}"

    def test_matches_smith_over_same_templates(self, anl_trace):
        """Streaming moments == Smith's stored-point means, bit for bit,
        for unbounded mean templates at elapsed 0."""
        templates = default_templates(anl_trace.available_fields)
        jobs = list(anl_trace)
        smith = warm_start(SmithPredictor(templates), jobs[:300])
        online = warm_start(OnlineMeanPredictor(templates), jobs[:300])
        checked = 0
        for probe in jobs[300:360]:
            ps = smith.predict(probe, 0.0, probe.submit_time)
            po = online.predict(probe, 0.0, probe.submit_time)
            if ps is None:
                continue
            checked += 1
            assert po is not None
            assert po.estimate == pytest.approx(ps.estimate, rel=1e-9)
            assert po.interval == pytest.approx(ps.interval, rel=1e-9)
        assert checked > 10

    def test_for_trace_uses_trace_fields(self):
        jobs = [make_job(user="a", queue=None, max_run_time=100.0) for _ in range(3)]
        trace = Trace(jobs, total_nodes=16, name="t")
        p = OnlineMeanPredictor.for_trace(trace)
        assert any(t.relative for t in p.templates)


class TestOnlineRegression:
    def test_learns_exact_linear_trend_in_log_nodes(self):
        p = OnlineRegressionPredictor([U])
        # run_time = 50 + 100 * log1p(nodes), noiselessly.
        for nodes in (1, 2, 4, 8, 16, 32):
            p.on_finish(
                make_job(user="a", nodes=nodes,
                         run_time=50.0 + 100.0 * math.log1p(nodes)),
                0.0,
            )
        pred = p.predict(make_job(user="a", nodes=64))
        assert pred.estimate == pytest.approx(50.0 + 100.0 * math.log1p(64), rel=1e-4)
        # Only the ridge seed's prior residuals widen the interval.
        assert pred.interval < 0.005 * pred.estimate

    def test_needs_three_points(self):
        p = OnlineRegressionPredictor([U])
        p.on_finish(make_job(user="a", nodes=2, run_time=100.0), 0.0)
        p.on_finish(make_job(user="a", nodes=8, run_time=200.0), 0.0)
        assert p.predict(make_job(user="a")) is None
        p.on_finish(make_job(user="a", nodes=16, run_time=300.0), 0.0)
        assert p.predict(make_job(user="a")) is not None


class TestDecayedMean:
    def test_recency_dominates(self):
        """A regime change: old jobs ran 100s, recent ones 1000s."""
        decayed = DecayedMeanPredictor([U])
        plain = OnlineMeanPredictor([U])
        for rt in [100.0] * 40 + [1000.0] * 40:
            job = make_job(user="a", run_time=rt)
            decayed.on_finish(job, 0.0)
            plain.on_finish(job, 0.0)
        probe = make_job(user="a")
        assert decayed.predict(probe).estimate > plain.predict(probe).estimate
        assert decayed.predict(probe).estimate > 800.0

    def test_effective_sample_size(self):
        m = _DecayedMoments()
        for _ in range(5):
            m.add(10.0)
        assert m.n_eff == pytest.approx(5.0, abs=0.05)
        d = _DecayedMoments()
        for _ in range(1000):
            d.add(10.0)
        # The effective history saturates at (1 + 0.95) / (1 - 0.95) = 39
        # jobs no matter the count.
        assert d.n_eff == pytest.approx(39.0)
