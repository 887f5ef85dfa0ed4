"""Property tests for Smith's pruned smallest-interval contest.

The contest skips a ``mean`` category whose memo would miss when a lower
bound on its half-width (:meth:`Category.miss_bound`) is strictly
greater than the best half-width found so far.  Two contracts:

- the bound never exceeds the half-width the category's statistic
  (:func:`~repro.stats.ci.mean_confidence_interval` over the qualifying
  suffix) then computes, however the values cancel or round: values
  near ``1e9`` with tiny noise, all-equal values, mixed magnitudes,
  values whose squares underflow, ``k = 2`` and relative templates;
- the pruned :meth:`SmithPredictor.predict` answers exactly as a single
  pass over every category in template order (kept here, not in the
  library): the same estimate and interval bits, source, per-template
  wins and unserved count, through ``max_history`` eviction, tied run
  times holding distinct values, and duplicate templates whose
  half-widths tie exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import Prediction
from repro.predictors.category import Category
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from repro.stats.ci import mean_confidence_interval
from repro.workloads.job import Job


def _job(job_id, run_time=1.0, *, user="alice", executable="sim", nodes=4,
         max_run_time=None):
    return Job(job_id=job_id, submit_time=0.0, run_time=run_time, nodes=nodes,
               user=user, executable=executable, max_run_time=max_run_time)


# ---------------------------------------------------------------------
# (a) the bound is one-sided
# ---------------------------------------------------------------------
_samples = st.one_of(
    # Large and nearly equal: the sums cancel in the variance.
    st.lists(st.floats(1e9, 1e9 + 1e-3), min_size=2, max_size=40),
    # All equal: the variance is zero.
    st.builds(lambda v, n: [v] * n, st.floats(0.0, 1e7), st.integers(2, 30)),
    # Mixed magnitudes.
    st.lists(
        st.one_of(st.floats(0.0, 1e-3), st.floats(1.0, 1e3), st.floats(1e6, 1e12)),
        min_size=2, max_size=40,
    ),
    # Squares and deviations in the subnormal range.
    st.lists(
        st.builds(lambda m, e: m * 10.0**e, st.floats(0.0, 1.0), st.integers(-170, -150)),
        min_size=2, max_size=20,
    ),
    # Exactly two points.
    st.lists(st.floats(0.0, 1e5), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 1e5), min_size=2, max_size=60),
)


@given(
    run_times=_samples,
    relative=st.booleans(),
    maxima=st.lists(st.floats(1.0, 2e5), min_size=1, max_size=5),
    job_max=st.floats(1.0, 2e5),
    cut=st.integers(0, 60),
    confidence=st.sampled_from([0.5, 0.90, 0.95, 0.99]),
)
@settings(max_examples=400, deadline=None)
def test_property_bound_never_exceeds_half_width(
    run_times, relative, maxima, job_max, cut, confidence
):
    cat = Category(Template(characteristics=("u",), relative=relative))
    for i, rt in enumerate(run_times):
        cat.add(_job(i + 1, rt, max_run_time=maxima[i % len(maxima)]))
    # Condition on one of the stored run times (ties enter together).
    elapsed = sorted(run_times)[cut % len(run_times)]
    if elapsed <= 0.0:
        elapsed = min(rt for rt in run_times if rt > 0.0) if max(run_times) > 0 else 1.0
    query = _job(10_000, max_run_time=job_max)
    suffix = [p.value for p in cat.points if p.run_time >= elapsed]
    bound = cat.miss_bound(query, elapsed, confidence)
    if len(suffix) < 2:
        assert bound is None
        return
    assert bound is not None and bound >= 0.0
    _, hw = mean_confidence_interval(suffix, confidence)
    if relative:
        hw *= job_max
    assert bound <= hw
    # The lookup then computes, and its interval is the same half-width.
    _, interval = cat.predict(query, elapsed, confidence)
    assert interval == hw
    assert cat.miss_bound(query, elapsed, confidence) is None  # now a memo hit


def test_bound_is_tight_on_spread_values():
    cat = Category(Template(characteristics=("u",)))
    for i, rt in enumerate([100.0, 250.0, 400.0, 900.0, 1600.0, 3000.0]):
        cat.add(_job(i + 1, rt))
    query = _job(99)
    bound = cat.miss_bound(query, 200.0, 0.90)
    _, hw = cat.predict(query, 200.0, 0.90)
    assert hw * (1 - 1e-6) < bound <= hw


def test_bound_is_zero_when_the_variance_cancels():
    cat = Category(Template(characteristics=("u",)))
    for i in range(5):
        cat.add(_job(i + 1, 1e9))
    assert cat.miss_bound(_job(99), 1.0, 0.90) == 0.0


def test_bound_is_zero_when_squares_underflow():
    # Unguarded, the subnormal squares here give a bound 2% above the
    # half-width the kernel computes (8.24e-161 against 8.06e-161).
    cat = Category(Template(characteristics=("u",)))
    for i, rt in enumerate([6.7e-161, 5.2e-161]):
        cat.add(_job(i + 1, rt))
    assert cat.miss_bound(_job(99), 5.2e-161, 0.90) == 0.0
    assert cat.predict(_job(99), 5.2e-161, 0.90)[1] > 0.0


def test_no_bound_outside_conditioned_mean_misses():
    query = _job(99, max_run_time=None)
    mean = Category(Template(characteristics=("u",)))
    relative = Category(Template(characteristics=("u",), relative=True))
    linear = Category(Template(characteristics=("u",), estimator="linear"))
    for i, rt in enumerate([10.0, 20.0, 30.0]):
        mean.add(_job(i + 1, rt))
        relative.add(_job(i + 1, rt, max_run_time=60.0))
        linear.add(_job(i + 1, rt, nodes=i + 1))
    assert mean.miss_bound(query, 0.0, 0.90) is None  # unconditioned
    assert mean.miss_bound(query, 25.0, 0.90) is None  # one qualifying point
    assert relative.miss_bound(query, 5.0, 0.90) is None  # no job maximum
    assert linear.miss_bound(query, 5.0, 0.90) is None  # a regression


# ---------------------------------------------------------------------
# sorted side lists stay aligned through eviction
# ---------------------------------------------------------------------
@given(
    entries=st.lists(
        st.tuples(st.sampled_from([0.0, 5.0, 5.0, 60.0, 600.0]), st.floats(1.0, 1e3)),
        min_size=1, max_size=40,
    ),
    max_history=st.one_of(st.none(), st.integers(1, 6)),
)
@settings(max_examples=200, deadline=None)
def test_property_sorted_values_track_the_window(entries, max_history):
    cat = Category(Template(characteristics=("u",), relative=True,
                            max_history=max_history))
    for i, (rt, max_rt) in enumerate(entries):
        cat.add(_job(i + 1, rt, max_run_time=max_rt))
        assert cat._sorted_run_times == sorted(p.run_time for p in cat.points)
        assert sorted(zip(cat._sorted_run_times, cat._sorted_values)) == sorted(
            (p.run_time, p.value) for p in cat.points
        )
        # Building the suffix sums must not pin the array: the next add
        # resizes it.
        if len(cat) >= 2:
            cat.miss_bound(_job(10_000, max_run_time=1.0), 1e-9, 0.90)


# ---------------------------------------------------------------------
# (b) the pruned contest answers as the full one
# ---------------------------------------------------------------------
class UnprunedSmith(SmithPredictor):
    """Every category's statistic computed, smallest interval wins, first
    template among equals."""

    def predict(self, job, elapsed=0.0, now=0.0):
        best = None  # (interval, estimate, idx)
        for full_key in self._category_keys(job):
            cat = self._categories.get(full_key)
            if cat is None:
                continue
            result = cat.predict(job, elapsed, self.confidence)
            if result is None:
                continue
            est, hw = result
            if best is None or hw < best[0]:
                best = (hw, est, full_key[0])
        if best is None:
            self._misses += 1
            return None
        hw, est, idx = best
        self._wins[idx] += 1
        return Prediction(estimate=est, interval=hw, source=self._sources[idx])


_TEMPLATE_POOL = [
    Template(characteristics=("u",)),
    Template(characteristics=("u",)),  # a duplicate: exact half-width ties
    Template(characteristics=("e",)),
    Template(characteristics=("u", "e")),
    Template(characteristics=(), max_history=4),
    Template(characteristics=("u",), relative=True),
    Template(characteristics=("u",), relative=True, max_history=3),
    Template(characteristics=("e",), estimator="linear"),
]

_history_job = st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(["sim", "solver"]),
    st.one_of(st.sampled_from([30.0, 30.0, 120.0, 600.0]), st.floats(0.0, 1e4)),
    st.integers(1, 16),
    st.one_of(st.none(), st.floats(1.0, 2e4)),
)
_query = st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(["sim", "solver"]),
    st.one_of(
        st.just(0.0),
        st.sampled_from([15.0, 30.0, 120.0, 600.0]),
        st.floats(0.0, 1.2e4),
    ),
    st.integers(1, 16),
    st.one_of(st.none(), st.floats(1.0, 2e4)),
)
_contest_ops = st.lists(
    st.one_of(
        st.tuples(st.just("finish"), _history_job),
        st.tuples(st.just("predict"), _query),
    ),
    min_size=1,
    max_size=80,
)


def _bits(prediction):
    if prediction is None:
        return None
    return (prediction.estimate.hex(), prediction.interval.hex(), prediction.source)


@given(
    picks=st.lists(st.integers(0, len(_TEMPLATE_POOL) - 1), min_size=1, max_size=6),
    ops=_contest_ops,
    confidence=st.sampled_from([0.90, 0.95]),
)
@settings(max_examples=300, deadline=None)
def test_property_pruned_contest_matches_full_contest(picks, ops, confidence):
    templates = [_TEMPLATE_POOL[i] for i in picks]
    pruned = SmithPredictor(templates, confidence=confidence)
    full = UnprunedSmith(templates, confidence=confidence)
    job_id = 0
    for op, (user, exe, time, nodes, max_rt) in ops:
        job_id += 1
        if op == "finish":
            job = _job(job_id, time, user=user, executable=exe, nodes=nodes,
                       max_run_time=max_rt)
            pruned.on_finish(job, 0.0)
            full.on_finish(job, 0.0)
            continue
        job = _job(job_id, user=user, executable=exe, nodes=nodes, max_run_time=max_rt)
        # Twice: the second lookup meets memoised statistics and bounds.
        for _ in range(2):
            assert _bits(pruned.predict(job, time)) == _bits(full.predict(job, time))
    assert pruned.usage_stats() == full.usage_stats()
    assert pruned._misses == full._misses


# Under "e" both users share one diffuse category; alice's own
# category is tight, so at elapsed 500 the "e" miss cannot win.
_HISTORY = [("alice", "a", 1000.0), ("bob", "a", 5000.0), ("alice", "a", 1010.0),
            ("bob", "a", 9000.0), ("alice", "a", 1020.0)]


def _fed(cls):
    pred = cls([Template(characteristics=("u",)), Template(characteristics=("e",))])
    for i, (user, exe, rt) in enumerate(_HISTORY):
        pred.on_finish(_job(i + 1, rt, user=user, executable=exe), 0.0)
    return pred


def test_contest_skips_the_category_that_cannot_win():
    pred = _fed(SmithPredictor)
    query = _job(99, user="alice", executable="a")
    got = pred.predict(query, 500.0)
    assert got.source == "(u)"
    assert pred.obs_stats() == {
        "memo_hits": 0, "memo_misses": 1, "points_scanned": 3, "bound_pruned": 1,
    }
    # The bound is memoised: asking again skips without recomputing it.
    assert pred.predict(query, 500.0) == got
    assert pred.obs_stats()["bound_pruned"] == 2
    assert pred.obs_stats()["memo_hits"] == 1


@pytest.mark.parametrize("elapsed", [0.0, 500.0])
def test_contest_answer_matches_the_full_contest(elapsed):
    query = _job(99, user="alice", executable="a")
    want = _fed(UnprunedSmith).predict(query, elapsed)
    assert _bits(_fed(SmithPredictor).predict(query, elapsed)) == _bits(want)
