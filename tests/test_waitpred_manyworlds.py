"""Tests for the vectorized many-worlds engine and its batched profile.

The batched :class:`BatchAvailabilityProfile` must behave, world by
world, exactly like S independent scalar
:class:`AvailabilityProfile` instances fed the same releases and the
same reservation sequence: identical anchors from ``reserve``,
identical ``earliest_start`` answers, identical free-count queries, and
the same never-clears errors.  Internally the batch profile is allowed
to be a *refinement* of the scalar step function — equal-time releases
stay as zero-width twin columns — so state comparisons merge those
twins first (mirroring ``tests/test_properties_reservations.py``'s
style of checking invariants over random operation sequences).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import PointEstimator, Prediction, RuntimePredictor
from repro.scheduler.policies import BackfillPolicy, LWFPolicy
from repro.scheduler.policies.backfill import (
    AvailabilityProfile,
    BatchAvailabilityProfile,
)
from repro.scheduler.simulator import QueuedJob, RunningJob, SystemSnapshot
from repro.utils.rng import rng_from_seed
from repro.waitpred.manyworlds import (
    encode_snapshot,
    predict_starts_batch,
    sample_durations,
    scalar_starts,
    sweep_estimates,
)
from repro.workloads.job import Job


def assert_worlds_match_scalars(batch, scalars, total):
    """Each batch world's open part, twins merged, equals its scalar
    profile; columns closed before the scalar's origin hold no nodes."""
    for s, scalar in enumerate(scalars):
        c = int(batch.count[s])
        closed = batch.times[s, :c] < scalar.times[0]
        assert np.all(batch.free[s, :c][closed] == 0)
        bt = batch.times[s, :c][~closed]
        bf = batch.free[s, :c][~closed]
        dup = bt[1:] == bt[:-1]
        # A zero-width twin never reports less free than its run-last.
        assert np.all(bf[:-1][dup] >= bf[1:][dup])
        last = np.ones(len(bt), dtype=bool)
        last[:-1] = ~dup
        assert np.array_equal(bt[last], np.array(scalar.times))
        assert np.array_equal(bf[last], np.array(scalar.free))
        # Padding invariant: everything past count is (+inf, total).
        assert np.all(np.isinf(batch.times[s, c:]))
        assert np.all(batch.free[s, c:] == total)


@st.composite
def profile_scenarios(draw):
    n_worlds = draw(st.integers(1, 5))
    total = draw(st.integers(4, 48))
    # Cap at total so the [1]*n_rel fallback below can never release
    # more nodes than the machine has (total >= 4, so min() is safe).
    n_rel = draw(st.integers(0, min(5, total)))
    rel_nodes = [draw(st.integers(1, max(1, total // 3))) for _ in range(n_rel)]
    while sum(rel_nodes) > total:
        rel_nodes = [max(n // 2, 1) for n in rel_nodes]
        if sum(rel_nodes) <= n_rel:
            break
    if sum(rel_nodes) > total:
        rel_nodes = [1] * n_rel
    free0 = draw(st.integers(0, total - sum(rel_nodes)))
    start = draw(st.floats(-5.0, 5.0))
    rel_times = [
        [start + draw(st.floats(-2.0, 20.0)) for _ in range(n_rel)]
        for _ in range(n_worlds)
    ]
    if n_rel >= 2 and draw(st.booleans()):
        for row in rel_times:
            row[1] = row[0]  # exact equal-time run in every world
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["reserve", "close", "earliest"]))
        nodes = draw(st.integers(1, total))
        durs = [
            draw(st.one_of(st.just(0.0), st.floats(1e-6, 15.0)))
            for _ in range(n_worlds)
        ]
        ops.append((kind, nodes, durs))
    return n_worlds, total, free0, start, rel_times, rel_nodes, ops


@given(case=profile_scenarios())
@settings(max_examples=60, deadline=None)
def test_property_batch_profile_tracks_scalar_profiles(case):
    """Random seed + reservation sequences, closing each profile at the
    last anchor the way in-order planning does: anchors, the open state,
    and errors all match a per-world scalar profile exactly."""
    n_worlds, total, free0, start, rel_times, rel_nodes, ops = case
    batch = BatchAvailabilityProfile.from_releases(
        start, free0, total, np.asarray(rel_times), np.asarray(rel_nodes)
    )
    scalars = [
        AvailabilityProfile.from_releases(
            start, free0, total,
            [(rel_times[s][r], rel_nodes[r]) for r in range(len(rel_nodes))],
        )
        for s in range(n_worlds)
    ]
    assert_worlds_match_scalars(batch, scalars, total)
    anchor = np.full(n_worlds, float(start))  # every anchor is a breakpoint
    for kind, nodes, durs in ops:
        durs = np.asarray(durs)
        if kind == "close":
            batch.close_before(anchor)
            for s in range(n_worlds):
                scalars[s].close_before(float(anchor[s]))
            assert_worlds_match_scalars(batch, scalars, total)
            continue
        try:
            if kind == "reserve":
                got = batch.reserve(nodes, durs)
            else:
                got = batch.earliest_start(nodes, durs)
        except RuntimeError:
            # The batch raises only when some world never clears; the
            # scalar profile for such a world must agree.
            raised = 0
            for s in range(n_worlds):
                try:
                    scalars[s].earliest_start(nodes, float(durs[s]))
                except RuntimeError:
                    raised += 1
            assert raised > 0
            return
        for s in range(n_worlds):
            if kind == "reserve":
                expected = scalars[s].reserve(nodes, float(durs[s]))
            else:
                expected = scalars[s].earliest_start(nodes, float(durs[s]))
            assert got[s] == expected
        anchor = got
        assert_worlds_match_scalars(batch, scalars, total)


class TestBatchAvailabilityProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchAvailabilityProfile(0.0, 5, 4, 3)  # free > total
        with pytest.raises(ValueError):
            BatchAvailabilityProfile(0.0, -1, 4, 3)
        with pytest.raises(ValueError):
            BatchAvailabilityProfile(0.0, 2, 4, 0)  # no worlds
        with pytest.raises(ValueError):
            BatchAvailabilityProfile.from_releases(
                0.0, 2, 4, np.zeros(3), np.ones(3, dtype=np.int64)
            )  # release_times must be 2-D
        with pytest.raises(ValueError):
            BatchAvailabilityProfile.from_releases(
                0.0, 2, 4, np.zeros((2, 3)), np.ones(2, dtype=np.int64)
            )  # shape mismatch
        with pytest.raises(ValueError):
            BatchAvailabilityProfile.from_releases(
                0.0, 2, 4, np.ones((2, 1)), np.zeros(1, dtype=np.int64)
            )  # release of zero nodes
        with pytest.raises(RuntimeError):
            BatchAvailabilityProfile.from_releases(
                0.0, 2, 4, np.ones((2, 1)), np.asarray([3])
            )  # 2 free + 3 released > 4 total
        profile = BatchAvailabilityProfile(0.0, 4, 4, 2)
        with pytest.raises(ValueError):
            profile.reserve(5, np.ones(2))  # wider than the machine
        with pytest.raises(ValueError):
            profile.earliest_start(5, np.ones(2))
        with pytest.raises(ValueError):
            profile.reserve(1, np.asarray([-1.0, 1.0]))  # negative duration

    def test_nan_duration_raises_and_reserves_nothing(self):
        profile = BatchAvailabilityProfile.from_releases(
            0.0, 2, 4, np.asarray([[10.0], [10.0]]), np.asarray([2])
        )
        with pytest.raises(ValueError, match="NaN"):
            profile.reserve(1, np.asarray([np.nan, 1.0]))
        with pytest.raises(ValueError, match="NaN"):
            profile.earliest_start(3, np.nan)
        # Capacity buffers may grow, but the live state must not move.
        np.testing.assert_array_equal(profile.count, [2, 2])
        np.testing.assert_array_equal(profile.times[:, :2], [[0.0, 10.0]] * 2)
        np.testing.assert_array_equal(profile.free[:, :2], [[2, 4]] * 2)

    def test_never_clears_raises_like_scalar(self):
        profile = BatchAvailabilityProfile.from_releases(
            0.0, 1, 8, np.asarray([[5.0], [9.0]]), np.asarray([3])
        )
        scalar = AvailabilityProfile.from_releases(0.0, 1, 8, [(5.0, 3)])
        with pytest.raises(RuntimeError):
            profile.reserve(6, np.full(2, 2.0))
        with pytest.raises(RuntimeError):
            scalar.reserve(6, 2.0)

    def test_earliest_start_does_not_mutate(self):
        profile = BatchAvailabilityProfile.from_releases(
            0.0, 2, 8, np.asarray([[4.0, 7.0], [3.0, 9.0]]), np.asarray([3, 3])
        )
        count = profile.count.copy()
        w = int(count.max())
        times = profile.times[:, :w].copy()
        free = profile.free[:, :w].copy()
        profile.earliest_start(4, np.full(2, 2.0))
        # Capacity buffers may grow, but the tracked state must not move.
        assert np.array_equal(profile.count, count)
        assert np.array_equal(profile.times[:, :w], times)
        assert np.array_equal(profile.free[:, :w], free)

    def test_close_before_requires_a_breakpoint(self):
        profile = BatchAvailabilityProfile.from_releases(
            0.0, 2, 8, np.asarray([[4.0], [3.0]]), np.asarray([3])
        )
        free = profile.free.copy()
        for bad in (np.asarray([4.0, 4.0]), np.asarray([2.0, 3.0]),
                    np.asarray([-1.0, 0.0]), np.asarray([np.inf, np.inf])):
            with pytest.raises(ValueError):
                profile.close_before(bad)  # not a breakpoint in every world
        assert np.array_equal(profile.free, free)
        profile.close_before(np.asarray([4.0, 3.0]))
        assert profile.free[:, 0].tolist() == [0, 0]
        assert profile.earliest_start(1, np.full(2, 1.0)).tolist() == [4.0, 3.0]

    def test_capacity_growth_preserves_worlds(self):
        """Many reserves through a deliberately tiny initial capacity."""
        profile = BatchAvailabilityProfile(0.0, 4, 4, 3, capacity=1)
        scalars = [AvailabilityProfile(0.0, 4, 4) for _ in range(3)]
        rng = rng_from_seed(11)
        for _ in range(12):
            durs = rng.uniform(0.5, 4.0, size=3)
            got = profile.reserve(2, durs)
            for s in range(3):
                assert got[s] == scalars[s].reserve(2, float(durs[s]))
        assert_worlds_match_scalars(profile, scalars, 4)

    def test_free_at_matches_scalar(self):
        rel = np.asarray([[2.0, 2.0, 6.0], [1.0, 4.0, 6.0]])
        nodes = np.asarray([2, 1, 3])
        profile = BatchAvailabilityProfile.from_releases(0.0, 1, 8, rel, nodes)
        scalars = [
            AvailabilityProfile.from_releases(
                0.0, 1, 8, [(float(rel[s, r]), int(nodes[r])) for r in range(3)]
            )
            for s in range(2)
        ]
        for q in (0.0, 1.5, 2.0, 5.0, 7.0):
            got = profile.free_at(q)
            for s in range(2):
                assert got[s] == scalars[s].free_at(q)
        with pytest.raises(ValueError):
            profile.free_at(-1.0)  # scalar raises here too


class CountingPredictor(RuntimePredictor):
    name = "counting"
    elapsed_invariant = True

    def __init__(self):
        self.calls = 0

    def predict(self, job, elapsed=0.0, now=0.0):
        self.calls += 1
        if job.job_id % 5 == 0:
            return None  # abstain -> estimator fallback chain
        return Prediction(estimate=job.run_time, interval=0.5 * job.run_time)


def small_snapshot():
    running = Job(job_id=1, submit_time=0.0, run_time=50.0, nodes=4,
                  user="u", executable="x")
    q1 = Job(job_id=5, submit_time=5.0, run_time=30.0, nodes=6,
             user="u", executable="x")  # abstained on (id % 5 == 0)
    q2 = Job(job_id=7, submit_time=6.0, run_time=20.0, nodes=2,
             user="u", executable="x")
    return SystemSnapshot(
        now=10.0,
        running=(RunningJob(running, 0.0),),
        queued=(QueuedJob(q1), QueuedJob(q2)),
        total_nodes=8,
    )


class TestEncodeAndSample:
    def test_each_job_predicted_exactly_once(self):
        """The double-predict of the original loop is gone: one rich
        prediction per job, fallback only on abstention."""
        snap = small_snapshot()
        predictor = CountingPredictor()
        enc = encode_snapshot(snap, PointEstimator(predictor))
        # One call per covered job; only the abstaining job pays a second
        # call inside the estimator's fallback chain (the old loop paid
        # two calls for every job).
        assert predictor.calls == enc.n_jobs + 1
        assert enc.n_jobs == 3
        assert enc.n_running == 1
        assert enc.job_ids() == (1, 5, 7)
        assert enc.sigma[1] == 0.0  # abstained job has no spread

    def test_sample_durations_matches_sequential_scalar_draws(self):
        snap = small_snapshot()
        enc = encode_snapshot(snap, PointEstimator(CountingPredictor()))
        durations = sample_durations(enc, 4, rng_from_seed(3))
        rng = rng_from_seed(3)
        for s in range(4):
            for j in range(enc.n_jobs):
                sigma = enc.sigma[j]
                if sigma > 0:
                    expected = max(
                        enc.point[j] + sigma * float(rng.standard_normal()), 1e-6
                    )
                else:
                    expected = max(enc.point[j], 1e-6)
                assert durations[s, j] == expected

    def test_unknown_target_raises(self):
        snap = small_snapshot()
        enc = encode_snapshot(snap, PointEstimator(CountingPredictor()))
        durations = sample_durations(enc, 2, rng_from_seed(0))
        with pytest.raises(KeyError):
            predict_starts_batch(snap, BackfillPolicy(), enc, durations, 999)

    def test_fallback_policy_routes_through_scalar_loop(self):
        snap = small_snapshot()
        enc = encode_snapshot(snap, PointEstimator(CountingPredictor()))
        durations = sample_durations(enc, 3, rng_from_seed(1))
        batched = predict_starts_batch(snap, LWFPolicy(), enc, durations, 7)
        reference = scalar_starts(snap, LWFPolicy(), enc, durations, 7)
        assert np.array_equal(batched, reference)


@st.composite
def ramping_states(draw):
    """A Smith estimator part-way through its ramp-up, and a snapshot.

    Only executables ``a`` and ``b`` have history (possibly too little
    to predict from), so ``c`` jobs, and ``a``/``b`` jobs whose elapsed
    time outruns their history, fall through the estimator's chain.
    """
    from repro.predictors.smith import SmithPredictor
    from repro.predictors.templates import Template

    estimator = PointEstimator(
        SmithPredictor([Template(characteristics=("e",))]), default=450.0
    )
    history = draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.floats(1.0, 5_000.0)), max_size=8
    ))
    for i, (exe, run_time) in enumerate(history):
        estimator.on_finish(Job(job_id=1000 + i, submit_time=0.0,
                                run_time=run_time, nodes=1, executable=exe), 0.0)
    now = 10_000.0

    def job(job_id, submit_time, nodes):
        return Job(
            job_id=job_id, submit_time=submit_time, nodes=nodes,
            run_time=draw(st.floats(1.0, 5_000.0)),
            executable=draw(st.sampled_from("abc")),
            max_run_time=draw(st.none() | st.floats(1.0, 9_000.0)),
        )

    running = tuple(
        RunningJob(job(i, 0.0, 1), draw(st.floats(0.0, now)))
        for i in range(draw(st.integers(0, 4)))
    )
    queued = tuple(
        QueuedJob(job(100 + i, now, draw(st.integers(1, 8))))
        for i in range(draw(st.integers(1, 5)))
    )
    return estimator, SystemSnapshot(
        now=now, running=running, queued=queued, total_nodes=8
    )


@given(ramping_states())
@settings(max_examples=60, deadline=None)
def test_property_encoded_points_are_the_estimators_predictions(state):
    """``point`` is :meth:`PointEstimator.predict`; ``sigma`` comes from
    the rich prediction, 0 where the predictor abstains."""
    estimator, snap = state
    enc = encode_snapshot(snap, estimator)
    asked = [(rj.job, rj.elapsed(snap.now)) for rj in snap.running]
    asked += [(qj.job, 0.0) for qj in snap.queued]
    for i, (job, elapsed) in enumerate(asked):
        rich = estimator.predictor.predict(job, elapsed, snap.now)
        assert enc.point[i] == estimator.predict(job, elapsed, snap.now)
        assert enc.sigma[i] == (0.0 if rich is None else rich.interval / 1.645)


def test_ramping_states_include_abstentions():
    """The property above sees both abstaining and predicted jobs."""
    from hypothesis import find

    def links(state):
        estimator, snap = state
        return {
            estimator.resolve(qj.job, 0.0, snap.now)[1] for qj in snap.queued
        }

    for link in ("predicted", "fallback_max", "fallback_mean", "fallback_default"):
        find(ramping_states(), lambda state, link=link: link in links(state))


class TestSweepEstimates:
    def test_level_zero_is_deterministic_anchor(self):
        snap = small_snapshot()
        est = PointEstimator(CountingPredictor())
        points = sweep_estimates(
            snap, BackfillPolicy(), est, 7, levels=(0.0, 0.5), samples=16, seed=5
        )
        assert len(points) == 2
        base = points[0]
        assert base.level == 0.0
        assert base.spread == pytest.approx(0.0)
        assert base.std_wait == pytest.approx(0.0)
        assert base.stable_fraction == pytest.approx(1.0)
        assert points[1].level == 0.5

    def test_common_random_numbers_are_deterministic(self):
        snap = small_snapshot()
        est = PointEstimator(CountingPredictor())
        a = sweep_estimates(snap, BackfillPolicy(), est, 7, samples=12, seed=9)
        b = sweep_estimates(snap, BackfillPolicy(), est, 7, samples=12, seed=9)
        assert a == b

    def test_validation(self):
        snap = small_snapshot()
        est = PointEstimator(CountingPredictor())
        with pytest.raises(ValueError):
            sweep_estimates(snap, BackfillPolicy(), est, 7, samples=1)
        with pytest.raises(ValueError):
            sweep_estimates(
                snap, BackfillPolicy(), est, 7, levels=(-0.1,), samples=4
            )
