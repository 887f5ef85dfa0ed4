"""End-to-end audit-trail guarantees.

Three properties the report pipeline stands on:

1. the audited MAE equals the repo's offline evaluators
   (``replay_prediction_error`` for run times on a zero-wait replay,
   ``evaluate_wait_predictions`` for waits) within float tolerance;
2. attaching the audit never changes the schedule or the estimator's
   fallback tallies;
3. the disabled path subscribes zero audit or tracing machinery to the
   simulator's job events — the hot path is untouched, not merely
   guarded.
"""

from __future__ import annotations

import math

from repro.obs import Instrumentation, ListSink, Tracer, validate_events
from repro.predictors.base import PointEstimator
from repro.predictors.simple import ActualRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.replay import replay_prediction_error
from repro.predictors.templates import Template
from repro.scheduler.policies import BackfillPolicy, FCFSPolicy
from repro.scheduler.simulator import FrozenEstimator, Simulator
from repro.waitpred.evaluation import evaluate_wait_predictions
from repro.waitpred.predictor import WaitTimePredictor
from repro.workloads.job import Trace
from tests.conftest import make_job


def smith():
    return SmithPredictor([Template(characteristics=("u",))])


def zero_wait_trace() -> Trace:
    """Every job starts at submission: enough nodes for all of them.

    Submit and finish instants never coincide (integer submits,
    fractional run times), so the simulator's event order matches the
    replay evaluator's ``finish <= submit`` history updates exactly.
    """
    jobs = [
        make_job(
            job_id=i,
            submit_time=float(i * 100),
            run_time=50.0 + 13.7 * (i % 7),
            nodes=2,
            user=("alice", "bob", "carol")[i % 3],
        )
        for i in range(1, 41)
    ]
    return Trace(jobs, total_nodes=sum(j.nodes for j in jobs), name="zero-wait")


class TestMAEMatchesOfflineEvaluators:
    def test_runtime_audit_matches_replay_evaluator(self):
        trace = zero_wait_trace()
        inst = Instrumentation(audit=True)
        estimator = PointEstimator(smith(), instrumentation=inst)
        sim = Simulator(FCFSPolicy(), estimator, trace.total_nodes, instrumentation=inst)
        result = sim.run(trace)
        assert all(r.wait_time == 0.0 for r in result.records)

        reference = replay_prediction_error(trace, smith())
        group = inst.audit.monitor.group("run_time", "smith")
        assert group.n == reference.n_jobs == len(trace)
        assert math.isclose(group.mae, reference.mean_abs_error, rel_tol=1e-9)
        # The fallback split shows up as per-source drill-down keys.
        keys = group.snapshot()["keys"]
        assert sum(k["n"] for k in keys.values()) == group.n
        n_fallback = sum(
            k["n"] for key, k in keys.items() if key.startswith("fallback")
        )
        assert n_fallback == reference.n_fallback

    def test_wait_audit_matches_evaluate_wait_predictions(self, small_trace):
        inst = Instrumentation(audit=True)
        estimator = PointEstimator(ActualRuntimePredictor())
        sim = Simulator(
            FCFSPolicy(), estimator, small_trace.total_nodes, instrumentation=inst
        )
        obs = WaitTimePredictor(
            FCFSPolicy(),
            ActualRuntimePredictor(),
            scheduler_estimator=estimator,
            instrumentation=inst,
        )
        sim.add_observer(obs)
        result = sim.run(small_trace)

        reference = evaluate_wait_predictions(result, obs.predicted_waits)
        group = inst.audit.monitor.group("wait_time", "forward-sim")
        assert group.n == reference.n_jobs == len(result.records)
        assert math.isclose(
            group.mae, reference.mean_abs_error, rel_tol=1e-9, abs_tol=1e-9
        )


class TestAuditNeutrality:
    def test_schedule_and_tallies_unchanged_by_audit(self, anl_trace):
        est_plain = PointEstimator(smith())
        plain = Simulator(BackfillPolicy(), est_plain, anl_trace.total_nodes)
        res_plain = plain.run(anl_trace)

        inst = Instrumentation(audit=True)
        est_audited = PointEstimator(smith(), instrumentation=inst)
        audited = Simulator(
            BackfillPolicy(), est_audited, anl_trace.total_nodes,
            instrumentation=inst,
        )
        res_audited = audited.run(anl_trace)

        assert res_audited.records == res_plain.records
        # The audited estimate re-derivation must not bump the hot-path
        # fallback tallies (obs_stats feeds the metrics snapshot).
        assert est_audited.obs_stats() == est_plain.obs_stats()

    def test_audit_neutral_on_top_of_tracing(self, anl_trace):
        """Tracing changes estimator call counts (events carry estimate
        fields); adding the audit on top must not move them further."""

        def run(audit: bool):
            inst = Instrumentation(tracer=Tracer(ListSink()), audit=audit)
            est = PointEstimator(smith(), instrumentation=inst)
            sim = Simulator(
                BackfillPolicy(), est, anl_trace.total_nodes,
                instrumentation=inst,
            )
            return sim.run(anl_trace), est

        res_traced, est_traced = run(audit=False)
        res_audited, est_audited = run(audit=True)
        assert res_audited.records == res_traced.records
        assert est_audited.obs_stats() == est_traced.obs_stats()

    def test_audited_trace_validates_and_resolves(self, anl_trace):
        sink = ListSink()
        inst = Instrumentation(tracer=Tracer(sink), audit=True)
        estimator = PointEstimator(smith(), instrumentation=inst)
        sim = Simulator(
            BackfillPolicy(), estimator, anl_trace.total_nodes,
            instrumentation=inst,
        )
        sim.run(anl_trace)
        validate_events(sink.events)
        types = {e["type"] for e in sink.events}
        assert "runtime_predicted" in types
        assert "prediction_resolved" in types
        # A complete replay finishes every job: nothing stays pending.
        assert inst.audit.unresolved_runtime == 0
        assert inst.audit.unresolved_wait == 0
        assert inst.audit.monitor.group("run_time", "smith").n == len(anl_trace)


class TestZeroCostWhenDisabled:
    #: The simulator's tracing and audit subscribers.
    OBS_SUBSCRIBERS = {
        Simulator._emit_submitted,
        Simulator._emit_started,
        Simulator._emit_finished,
        Simulator._resolve_wait,
        Simulator._resolve_runtime,
        Simulator._tally_depth,
    }

    @staticmethod
    def subscribers(sim):
        return sim._on_submit + sim._on_start + sim._on_finish

    def test_plain_simulator_binds_no_audit_handlers(self):
        # A hook-less estimator (a forward simulation's) subscribes nothing.
        bare = Simulator(FCFSPolicy(), FrozenEstimator({}), 10)
        assert bare._on_submit == bare._on_start == bare._on_finish == ()
        sim = Simulator(
            FCFSPolicy(), PointEstimator(ActualRuntimePredictor()), 10
        )
        assert sim._audit is None
        # One subscriber per kind: the estimator's life-cycle hook.
        assert len(sim._on_submit) == len(sim._on_start) == len(sim._on_finish) == 1
        assert not self.OBS_SUBSCRIBERS & set(self.subscribers(sim))

    def test_plain_estimator_binds_no_audit_hook(self):
        est = PointEstimator(ActualRuntimePredictor())
        assert est._audit is None
        assert "on_submit" not in vars(est)

    def test_tracing_only_keeps_audit_unbound(self):
        inst = Instrumentation(tracer=Tracer(ListSink()))
        sim = Simulator(
            FCFSPolicy(),
            PointEstimator(ActualRuntimePredictor(), instrumentation=inst),
            10,
            instrumentation=inst,
        )
        assert sim._audit is None
        subscribed = set(self.subscribers(sim))
        assert Simulator._emit_submitted in subscribed
        assert Simulator._resolve_wait not in subscribed
        assert Simulator._resolve_runtime not in subscribed

    def test_audit_composes_with_tracing(self, small_trace):
        sink = ListSink()
        inst = Instrumentation(tracer=Tracer(sink), audit=True)
        sim = Simulator(
            FCFSPolicy(),
            PointEstimator(ActualRuntimePredictor(), instrumentation=inst),
            small_trace.total_nodes,
            instrumentation=inst,
        )
        sim.add_observer(
            WaitTimePredictor(
                FCFSPolicy(), ActualRuntimePredictor(), instrumentation=inst
            )
        )
        sim.run(small_trace)
        lifecycle = {"job_submitted", "job_started", "job_finished"}

        def neighbour(i, job_id, step):
            """The nearest life-cycle event of ``job_id`` from ``i``."""
            i += step
            while 0 <= i < len(sink.events):
                e = sink.events[i]
                if e["type"] in lifecycle and e["job_id"] == job_id:
                    return e["type"]
                i += step
            return None

        resolved = {"run_time": 0, "wait_time": 0}
        for i, e in enumerate(sink.events):
            if e["type"] != "prediction_resolved":
                continue
            resolved[e["kind"]] += 1
            if e["kind"] == "run_time":
                # Resolved by the finish, after its job_finished.
                assert neighbour(i, e["job_id"], -1) == "job_finished"
            else:
                # Resolved by the start, before its job_started closes it.
                assert neighbour(i, e["job_id"], -1) == "job_submitted"
                assert neighbour(i, e["job_id"], +1) == "job_started"
        assert resolved == {"run_time": len(small_trace), "wait_time": len(small_trace)}
