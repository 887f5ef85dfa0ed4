"""Tests for simple predictors and the PointEstimator adapter."""

from __future__ import annotations

import pytest

from repro.predictors.base import LINKS, PointEstimator, Prediction
from repro.predictors.simple import ActualRuntimePredictor, MaxRuntimePredictor
from repro.workloads.job import Trace
from tests.conftest import make_job


class TestPrediction:
    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            Prediction(estimate=10.0, interval=-1.0)


class TestActual:
    def test_oracle(self):
        p = ActualRuntimePredictor()
        job = make_job(run_time=123.0)
        pred = p.predict(job)
        assert pred.estimate == 123.0
        assert pred.interval == 0.0


class TestMaxRuntime:
    def test_user_supplied_max(self):
        p = MaxRuntimePredictor()
        pred = p.predict(make_job(max_run_time=3600.0))
        assert pred.estimate == 3600.0
        assert pred.source == "max:user"

    def test_from_trace_derives_queue_maxima(self):
        """The paper's SDSC derivation: longest job per queue (§3)."""
        jobs = [
            make_job(job_id=1, queue="q16s", run_time=100.0),
            make_job(job_id=2, queue="q16s", run_time=500.0),
            make_job(job_id=3, queue="q64l", run_time=9000.0),
        ]
        trace = Trace(jobs, total_nodes=64)
        p = MaxRuntimePredictor.from_trace(trace)
        pred = p.predict(make_job(queue="q16s", max_run_time=None))
        assert pred.estimate == 500.0
        assert pred.source == "max:queue"
        pred2 = p.predict(make_job(queue="q64l", max_run_time=None))
        assert pred2.estimate == 9000.0

    def test_user_max_wins_over_queue(self):
        p = MaxRuntimePredictor({"q": 1000.0})
        pred = p.predict(make_job(queue="q", max_run_time=50.0))
        assert pred.estimate == 50.0

    def test_unknown_queue_falls_to_global(self):
        p = MaxRuntimePredictor({"q": 1000.0})
        pred = p.predict(make_job(queue="other", max_run_time=None))
        assert pred.estimate == 1000.0
        assert pred.source == "max:global"

    def test_nothing_known_returns_none(self):
        p = MaxRuntimePredictor()
        assert p.predict(make_job(queue=None, max_run_time=None)) is None

    def test_online_learning_when_not_static(self):
        p = MaxRuntimePredictor()
        p.on_finish(make_job(queue="q", run_time=700.0), 0.0)
        pred = p.predict(make_job(queue="q", max_run_time=None))
        assert pred.estimate == 700.0

    def test_static_mode_does_not_learn(self):
        p = MaxRuntimePredictor({"q": 100.0})
        p.on_finish(make_job(queue="q", run_time=900.0), 0.0)
        assert p.predict(make_job(queue="q", max_run_time=None)).estimate == 100.0


class TestPointEstimator:
    def test_uses_predictor_estimate(self):
        est = PointEstimator(ActualRuntimePredictor())
        assert est.predict(make_job(run_time=42.0), 0.0, 0.0) == 42.0

    def test_falls_back_to_max(self):
        class Never:
            name = "never"

            def predict(self, job, elapsed=0.0, now=0.0):
                return None

            def on_submit(self, job, now):
                pass

            def on_start(self, job, now):
                pass

            def on_finish(self, job, now):
                pass

        est = PointEstimator(Never())
        assert est.predict(make_job(max_run_time=999.0), 0.0, 0.0) == 999.0

    def test_falls_back_to_completed_mean(self):
        from repro.predictors.smith import SmithPredictor
        from repro.predictors.templates import Template

        est = PointEstimator(SmithPredictor([Template(characteristics=("e",))]))
        est.on_finish(make_job(run_time=100.0, executable="a"), 0.0)
        est.on_finish(make_job(run_time=300.0, executable="b"), 0.0)
        # Unknown executable, no user max: completed mean = 200.
        value = est.predict(
            make_job(executable="zzz", max_run_time=None), 0.0, 0.0
        )
        assert value == pytest.approx(200.0)

    def test_falls_back_to_default(self):
        from repro.predictors.smith import SmithPredictor
        from repro.predictors.templates import Template

        est = PointEstimator(
            SmithPredictor([Template()]), default=777.0
        )
        assert est.predict(make_job(max_run_time=None), 0.0, 0.0) == 777.0

    def test_clamps_to_elapsed(self):
        est = PointEstimator(ActualRuntimePredictor())
        assert est.predict(make_job(run_time=10.0), 500.0, 0.0) == 500.0

    def test_no_cap_by_default(self):
        est = PointEstimator(ActualRuntimePredictor())
        job = make_job(run_time=1000.0, max_run_time=600.0)
        assert est.predict(job, 0.0, 0.0) == 1000.0

    def test_invalid_default(self):
        with pytest.raises(ValueError):
            PointEstimator(ActualRuntimePredictor(), default=0.0)

    def test_forwards_lifecycle(self):
        calls = []

        class Spy(ActualRuntimePredictor):
            def on_finish(self, job, now):
                calls.append(job.job_id)

        est = PointEstimator(Spy())
        est.on_finish(make_job(job_id=7), 0.0)
        assert calls == [7]


def _chain_case(link, instrumentation=None):
    """An estimator and a job whose estimate comes from ``link``."""
    from repro.predictors.smith import SmithPredictor
    from repro.predictors.templates import Template

    est = PointEstimator(
        SmithPredictor([Template(characteristics=("e",))]),
        default=777.0,
        instrumentation=instrumentation,
    )
    if link != "fallback_default":
        for run_time in (100.0, 300.0, 400.0, 6000.0, 7000.0):
            est.on_finish(make_job(run_time=run_time, executable="a"), 0.0)
    job = {
        "predicted": make_job(executable="a", max_run_time=None),
        "fallback_max": make_job(executable="zzz", max_run_time=999.0),
        "fallback_mean": make_job(executable="zzz", max_run_time=None),
        "fallback_default": make_job(executable="zzz", max_run_time=None),
    }[link]
    return est, job


class TestFallbackChain:
    """One chain: ``resolve`` picks the link, ``predict`` only tallies it."""

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("elapsed", [0.0, 250.0, 5000.0])
    def test_resolve_returns_the_float_predict_returns(self, link, elapsed):
        est, job = _chain_case(link)
        value, got_link, rich = est.resolve(job, elapsed, 10.0)
        assert got_link == link
        assert (rich is not None) == (link == "predicted")
        assert value == est.predict(job, elapsed, 10.0)
        assert type(value) is float

    @pytest.mark.parametrize("link", LINKS)
    def test_predict_bumps_exactly_that_links_tally(self, link):
        est, job = _chain_case(link)
        before = est.obs_stats()
        est.predict(job, 0.0, 10.0)
        after = est.obs_stats()
        moved = {k: after[k] - before[k] for k in after if after[k] != before[k]}
        assert moved == {"predict_calls": 1, link: 1}
        assert est._mean_used == (link in ("fallback_mean", "fallback_default"))

    @pytest.mark.parametrize("link", LINKS)
    def test_resolve_is_side_effect_free(self, link):
        """The estimator's own state stays put (the wrapped predictor's
        ``predictor.*`` memo counters do count the calls it serves)."""

        def state(est):
            own = {k: v for k, v in est.obs_stats().items() if "." not in k}
            return own, est._mean_used, est.history_epoch

        est, job = _chain_case(link)
        before = state(est)
        for elapsed in (0.0, 250.0):
            est.resolve(job, elapsed, 10.0)
        assert state(est) == before

    def test_audit_source_labels(self):
        """``runtime_predicted`` carries the winning template or the link."""
        from repro.obs import Instrumentation, ListSink, Tracer

        sources = {}
        for link in LINKS:
            sink = ListSink()
            inst = Instrumentation(tracer=Tracer(sink), audit=True)
            est, job = _chain_case(link, instrumentation=inst)
            est.on_submit(job, 10.0)
            [event] = [e for e in sink.events if e["type"] == "runtime_predicted"]
            assert event["predicted_run_s"] == est.predict(job, 0.0, 10.0)
            sources[link] = event["source"]
        assert sources == {
            "predicted": "(e)",
            "fallback_max": "fallback_max",
            "fallback_mean": "fallback_mean",
            "fallback_default": "fallback_default",
        }

    def test_sourceless_prediction_is_labelled_predicted(self):
        from repro.obs import Instrumentation, ListSink, Tracer

        class Bare(ActualRuntimePredictor):
            def predict(self, job, elapsed=0.0, now=0.0):
                return Prediction(estimate=job.run_time, interval=0.0)

        sink = ListSink()
        inst = Instrumentation(tracer=Tracer(sink), audit=True)
        PointEstimator(Bare(), instrumentation=inst).on_submit(make_job(), 0.0)
        [event] = [e for e in sink.events if e["type"] == "runtime_predicted"]
        assert event["source"] == "predicted"


class TestBaseLifecycleHooks:
    """Pin the RuntimePredictor hook surface (uncovered-by-design no-ops).

    The base hooks are deliberate no-ops — adaptive predictors override
    them — and PointEstimator decides its pessimistic epoch bumps by
    comparing each hook against the *base* function object.  These tests
    keep both facts true: the no-ops do nothing (and are executed, not
    coverage-pragma'd away), and every override in the repo keeps the
    base signature so the identity comparison stays meaningful.
    """

    def test_base_hooks_are_no_ops(self):
        import copy

        from repro.predictors.base import RuntimePredictor

        class Bare(RuntimePredictor):
            def predict(self, job, elapsed=0.0, now=0.0):
                return None

        p = Bare()
        before = copy.deepcopy(p.__dict__)
        job = make_job()
        # Exercise the base-class hook bodies directly.
        assert RuntimePredictor.on_submit(p, job, 1.0) is None
        assert RuntimePredictor.on_start(p, job, 2.0) is None
        assert RuntimePredictor.on_finish(p, job, 3.0) is None
        assert p.__dict__ == before

    def test_unoverridden_hooks_do_not_bump_epoch(self):
        """PointEstimator's hook-identity check sees base no-ops as inert."""

        class Bare(ActualRuntimePredictor):
            pass

        est = PointEstimator(Bare())
        start_epoch = est.history_epoch
        est.on_submit(make_job(), 0.0)
        est.on_start(make_job(), 0.0)
        assert est.history_epoch == start_epoch

    def test_every_override_matches_base_signature(self):
        import inspect

        from repro.predictors.adaptive import (
            DecayedMeanPredictor,
            OnlineMeanPredictor,
            OnlineRegressionPredictor,
        )
        from repro.predictors.base import RuntimePredictor
        from repro.predictors.downey import DowneyPredictor
        from repro.predictors.gibbons import GibbonsPredictor
        from repro.predictors.smith import SmithPredictor

        classes = [
            ActualRuntimePredictor,
            MaxRuntimePredictor,
            SmithPredictor,
            GibbonsPredictor,
            DowneyPredictor,
            OnlineMeanPredictor,
            OnlineRegressionPredictor,
            DecayedMeanPredictor,
        ]
        for hook in ("on_submit", "on_start", "on_finish"):
            base_sig = inspect.signature(getattr(RuntimePredictor, hook))
            for cls in classes:
                assert inspect.signature(getattr(cls, hook)) == base_sig, (
                    f"{cls.__name__}.{hook} drifted from the base signature"
                )
