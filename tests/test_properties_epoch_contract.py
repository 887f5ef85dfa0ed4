"""Property suite for the estimate-epoch contract (predictors.base).

The simulator caches queued-job estimates across scheduling passes,
flushing only when ``PointEstimator.history_epoch`` moves.  That is
sound iff every predictor honors the contract: *predictions are a pure
function of (job, elapsed) while the advertised epoch is unchanged*.

The suite checks the contract behaviorally.  An :class:`EpochCache`
serves elapsed-0 predictions through the real memo
(:class:`repro.scheduler.simulator.EstimateMemo`) — memoized while the
epoch marker is unchanged, recomputed otherwise — and is driven through
randomized job lifecycle interleavings next to an identically-fed,
never-caching twin estimator.  A conforming predictor makes the two
agree bit-for-bit on every probe; the meta-test at the bottom shows the
suite has teeth by feeding it a predictor that mutates history without
bumping its epoch and watching the cache serve a stale value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.adaptive import (
    DecayedMeanPredictor,
    OnlineMeanPredictor,
    OnlineRegressionPredictor,
)
from repro.predictors.base import PointEstimator, Prediction, RuntimePredictor
from repro.predictors.gibbons import GibbonsPredictor
from repro.predictors.simple import ActualRuntimePredictor, MaxRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template, default_templates
from repro.scheduler.simulator import EstimateMemo
from tests.fakes import Epochless
from tests.test_properties_predictors import job_batches


class EpochCache:
    """An estimator served through the simulator's :class:`EstimateMemo`.

    Serves memoized elapsed-0 ``predict`` results while ``history_epoch``
    is unchanged; any movement of the marker flushes everything.
    ``None`` (no epoch) disables caching entirely.
    """

    def __init__(self, estimator: PointEstimator) -> None:
        self.estimator = estimator
        self._memo = EstimateMemo()

    @property
    def _cache(self) -> dict[int, float]:
        return self._memo.memo

    def predict(self, job, elapsed: float, now: float) -> float:
        assert elapsed == 0.0, "the memo holds elapsed-0 predictions only"
        memo = self._memo.sync(self.estimator)
        if memo is None:
            return self.estimator.predict(job, elapsed, now)
        if job.job_id not in memo:
            memo[job.job_id] = self.estimator.predict(job, elapsed, now)
        return memo[job.job_id]


_FACTORIES = {
    "actual": lambda: ActualRuntimePredictor(),
    "max": lambda: MaxRuntimePredictor({"q16s": 900.0, "q64l": 4000.0}),
    "smith": lambda: SmithPredictor(
        [Template(), Template(characteristics=("u",)),
         Template(characteristics=("u", "e"), node_range_size=8)]
    ),
    "gibbons": lambda: GibbonsPredictor(),
    "online-mean": lambda: OnlineMeanPredictor(default_templates(None)),
    "online-rls": lambda: OnlineRegressionPredictor(default_templates(None)),
    "decayed-mean": lambda: DecayedMeanPredictor(default_templates(None)),
}


@st.composite
def lifecycles(draw):
    """A batch of jobs plus a random interleaving of their lifecycles.

    Each job's submit -> start -> finish order is preserved; across jobs
    the events interleave arbitrarily — exactly the stream a replay
    produces.
    """
    batch = draw(job_batches(min_size=3, max_size=10))
    stage = [0] * len(batch)
    pending = list(range(len(batch)))
    events: list[tuple[str, int]] = []
    while pending:
        pick = draw(st.integers(0, len(pending) - 1))
        i = pending[pick]
        events.append((("submit", "start", "finish")[stage[i]], i))
        stage[i] += 1
        if stage[i] == 3:
            pending.remove(i)
    return batch, events


def _drive(name: str, batch, events) -> None:
    """Feed cached and uncached twins one stream; probes must agree."""
    cached_est = PointEstimator(_FACTORIES[name]())
    direct_est = PointEstimator(_FACTORIES[name]())
    cache = EpochCache(cached_est)
    probes = [j.with_(job_id=1000 + i) for i, j in enumerate(batch[:3])]
    clock = 0.0
    for etype, i in events:
        job = batch[i]
        clock += 1.0
        for est in (cached_est, direct_est):
            getattr(est, f"on_{etype}")(job, clock)
        for probe in probes:
            assert cache.predict(probe, 0.0, clock) == direct_est.predict(
                probe, 0.0, clock
            ), f"{name}: cached and uncached estimates diverged"


@pytest.mark.parametrize("name", sorted(_FACTORIES))
@given(lifecycle=lifecycles())
@settings(max_examples=25, deadline=None)
def test_property_epoch_contract_makes_caching_exact(name, lifecycle):
    batch, events = lifecycle
    _drive(name, batch, events)


@given(lifecycle=lifecycles())
@settings(max_examples=25, deadline=None)
def test_property_volatile_estimator_disables_caching(lifecycle):
    """An estimator advertising no epoch; the cache must pass through."""
    batch, events = lifecycle
    est = Epochless(PointEstimator(SmithPredictor([Template()])))
    cache = EpochCache(est)
    assert est.history_epoch is None
    for etype, i in events:
        est_probe = batch[i]
        getattr(est, f"on_{etype}")(batch[i], 0.0)
        assert cache.predict(est_probe, 0.0, 0.0) == est.predict(est_probe, 0.0, 0.0)
    assert cache._cache == {}


class _EpochlessLearner(RuntimePredictor):
    """Deliberately broken: learns on finish, never moves its epoch."""

    name = "broken"
    history_epoch = 0  # frozen marker despite mutable history
    elapsed_invariant = True

    def __init__(self) -> None:
        self.values: list[float] = []

    def predict(self, job, elapsed=0.0, now=0.0):
        if not self.values:
            return None
        return Prediction(sum(self.values) / len(self.values), 0.0)

    def on_finish(self, job, now):
        self.values.append(job.run_time)


def test_meta_broken_predictor_is_caught(job_factory):
    """The suite detects a contract violation: with a max-run-time probe
    (so no fallback-mean consumption masks it), the stale cache survives
    a history change and diverges from the uncached twin."""
    cached_est = PointEstimator(_EpochlessLearner())
    direct_est = PointEstimator(_EpochlessLearner())
    cache = EpochCache(cached_est)
    probe = job_factory(max_run_time=500.0)

    # Prime the cache while the learner has no history (falls to max).
    assert cache.predict(probe, 0.0, 0.0) == direct_est.predict(probe, 0.0, 0.0)

    done = job_factory(run_time=100.0)
    cached_est.on_finish(done, 1.0)
    direct_est.on_finish(done, 1.0)

    # History changed, epoch did not: the cache serves the stale maximum
    # while the honest twin serves the learned mean.
    assert direct_est.predict(probe, 0.0, 1.0) == 100.0
    assert cache.predict(probe, 0.0, 1.0) == 500.0
