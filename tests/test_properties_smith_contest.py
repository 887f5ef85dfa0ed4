"""Property tests for Smith's pruned smallest-interval contest.

The contest skips a ``mean`` category whose memo would miss when a lower
bound on its half-width (:meth:`Category.miss_bound`) is strictly
greater than the best half-width found so far.  Four contracts:

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
  half-widths tie exactly;
- the one-read contest, which answers memo hits itself and keeps each
  job's resolved categories, answers as the two-phase contest that asks
  every category through ``miss_bound`` and ``Category.predict`` (kept
  here): the same bits, source and all four memo counters, for jobs
  queried again and again while categories appear around them;
- a category's insertion-order columns are its history window, through
  eviction and the lookups that read them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.base import Prediction
from repro.predictors.category import Category, DataPoint
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


# ---------------------------------------------------------------------
# (c) the one-read contest answers as the two-phase one
# ---------------------------------------------------------------------
class TwoPhaseSmith(SmithPredictor):
    """The two-phase contest as it stood before categories were resolved
    per job: cheap answers first in template order, then the mean misses
    in ``(bound, template index)`` order, each found through
    :meth:`Category.miss_bound` and answered by :meth:`Category.predict`."""

    def predict(self, job, elapsed=0.0, now=0.0):
        best = None  # (interval, idx)
        best_est = 0.0
        confidence = self.confidence
        conditioned = elapsed > 0.0
        pending = []  # (bound, idx, category)
        for full_key in self._category_keys(job):
            cat = self._categories.get(full_key)
            if cat is None:
                continue
            idx = full_key[0]
            if conditioned:
                bound = cat.miss_bound(job, elapsed, confidence)
                if bound is not None:
                    pending.append((bound, idx, cat))
                    continue
            result = cat.predict(job, elapsed, confidence)
            if result is None:
                continue
            est, hw = result
            if best is None or hw < best[0]:
                best = (hw, idx)
                best_est = est
        pending.sort()
        for pos, (bound, idx, cat) in enumerate(pending):
            if best is not None and bound > best[0]:
                self._bound_pruned += len(pending) - pos
                break
            est, hw = cat.predict(job, elapsed, confidence)
            if best is None or (hw, idx) < best:
                best = (hw, idx)
                best_est = est
        if best is None:
            self._misses += 1
            return None
        hw, idx = best
        self._wins[idx] += 1
        return Prediction(estimate=best_est, interval=hw, source=self._sources[idx])


_ONE_READ_POOL = [
    Template(characteristics=("u",)),
    Template(characteristics=("u",)),  # a duplicate: exact half-width ties
    Template(characteristics=("e",)),
    Template(characteristics=("u", "e")),
    Template(characteristics=(), max_history=3),
    Template(characteristics=("u",), relative=True),
    Template(characteristics=("e",), relative=True),
    Template(characteristics=("e",), relative=True, max_history=4),
    Template(characteristics=("u",), estimator="linear"),
    Template(characteristics=("e",), estimator="inverse", max_history=5),
    Template(characteristics=(), estimator="log", relative=True),
]

_users = st.sampled_from(["alice", "bob", "carol"])
_exes = st.sampled_from(["sim", "solver", "viz"])
_max_rt = st.one_of(st.none(), st.floats(1.0, 2e4), st.sampled_from([5.0, 50.0, 700.0]))
_run_time = st.one_of(st.sampled_from([30.0, 30.0, 120.0, 600.0]), st.floats(0.0, 1e4))
_finished = st.tuples(_users, _exes, _run_time, st.integers(1, 16), _max_rt)
# Where a query's elapsed time falls against the history run times seen
# so far: on one, between two, beyond all, at zero, or anywhere.
_elapsed = st.one_of(
    st.tuples(st.sampled_from(["at", "between", "beyond"]), st.integers(0, 80)),
    st.just(("zero", 0)),
    st.tuples(st.just("any"), st.floats(0.0, 1.2e4)),
)
_one_read_ops = st.lists(
    st.one_of(
        st.tuples(st.just("finish"), _finished),
        st.tuples(st.just("predict"), st.tuples(st.integers(0, 3), _elapsed)),
        # A live job completes and a fresh one takes its place.
        st.tuples(st.just("retire"), st.tuples(st.integers(0, 3), _finished)),
    ),
    min_size=1,
    max_size=100,
)


def _elapsed_for(spec, history):
    where, n = spec
    if where == "zero":
        return 0.0
    if where == "any":
        return n
    if not history:
        return 1.0
    times = sorted(set(history))
    if where == "beyond":
        return times[-1] + 1.0
    i = n % len(times)
    if where == "at" or i + 1 == len(times):
        return times[i]
    return (times[i] + times[i + 1]) / 2.0


@given(
    picks=st.lists(st.integers(0, len(_ONE_READ_POOL) - 1), min_size=1, max_size=7),
    live=st.lists(_finished, min_size=4, max_size=4),
    ops=_one_read_ops,
    confidence=st.sampled_from([0.90, 0.95]),
)
@settings(max_examples=300, deadline=None)
def test_property_one_read_contest_matches_two_phase(picks, live, ops, confidence):
    templates = [_ONE_READ_POOL[i] for i in picks]
    new = SmithPredictor(templates, confidence=confidence)
    old = TwoPhaseSmith(templates, confidence=confidence)
    job_id = 0

    def make(user, exe, run_time, nodes, max_rt):
        nonlocal job_id
        job_id += 1
        return _job(job_id, run_time, user=user, executable=exe, nodes=nodes,
                    max_run_time=max_rt)

    # Live jobs keep their Job object across queries, so the new contest
    # reuses (and refreshes) their resolved categories.
    pool = [make(*spec) for spec in live]
    history: list[float] = []
    for op, arg in ops:
        if op == "finish":
            job = make(*arg)
        elif op == "retire":
            slot, spec = arg
            job = pool[slot]
            pool[slot] = make(*spec)
        else:
            slot, spec = arg
            job = pool[slot]
            elapsed = _elapsed_for(spec, history)
            # Twice: the second lookup meets memoised statistics and bounds.
            for _ in range(2):
                assert _bits(new.predict(job, elapsed)) == _bits(old.predict(job, elapsed))
                assert new.obs_stats() == old.obs_stats()
            continue
        new.on_finish(job, 0.0)
        old.on_finish(job, 0.0)
        history.append(job.run_time)
    assert new.usage_stats() == old.usage_stats()
    assert new.obs_stats() == old.obs_stats()


def test_resolved_categories_refresh_when_a_missing_key_gains_one():
    templates = [Template(characteristics=()), Template(characteristics=("u",))]
    pred = SmithPredictor(templates)
    for i, (user, rt) in enumerate([("bob", 100.0), ("bob", 9000.0), ("bob", 5000.0)]):
        pred.on_finish(_job(i + 1, rt, user=user), 0.0)
    carol = _job(50, user="carol")
    # Only the global category exists for carol: it answers.
    assert pred.predict(carol, 50.0).source == "()"
    # carol's own category appears, tight around 1000 s, and wins.
    for i, rt in enumerate([1000.0, 1001.0, 1002.0]):
        pred.on_finish(_job(10 + i, rt, user="carol"), 0.0)
    got = pred.predict(carol, 50.0)
    assert got.source == "(u)"
    fresh = SmithPredictor(templates)
    for job in [_job(i + 1, rt, user="bob") for i, rt in enumerate([100.0, 9000.0, 5000.0])] + [
        _job(10 + i, rt, user="carol") for i, rt in enumerate([1000.0, 1001.0, 1002.0])
    ]:
        fresh.on_finish(job, 0.0)
    assert _bits(got) == _bits(fresh.predict(_job(50, user="carol"), 50.0))


def test_a_memo_hit_answers_as_the_miss_did():
    # A relative category: the hit scales by the job's maximum and floors
    # at the elapsed time (0.25 * 50 = 12.5 < 15) as the miss did.
    pred = SmithPredictor([Template(characteristics=("u",), relative=True)])
    for i, rt in enumerate([10.0, 20.0, 30.0]):
        pred.on_finish(_job(i + 1, rt, max_run_time=100.0), 0.0)
    query = _job(99, max_run_time=50.0)
    miss = pred.predict(query, 15.0)
    assert miss.estimate == 15.0
    assert _bits(pred.predict(query, 15.0)) == _bits(miss)
    assert pred.obs_stats()["memo_hits"] == 1


def test_equal_half_widths_keep_the_first_template_across_phases():
    # alice has run only "sim", so (u) and (e) hold the same history and
    # tie exactly.  bob's query leaves (e) memoised: for alice, (e) is a
    # hit and (u), the first template, a miss that must still win.
    templates = [Template(characteristics=("u",)), Template(characteristics=("e",))]
    pred = SmithPredictor(templates)
    old = TwoPhaseSmith(templates)
    for i, rt in enumerate([100.0, 200.0, 300.0]):
        for p in (pred, old):
            p.on_finish(_job(i + 1, rt), 0.0)
    for p in (pred, old):
        p.predict(_job(50, user="bob"), 150.0)
    alice = _job(51)
    got = pred.predict(alice, 150.0)
    assert got.source == "(u)"
    assert _bits(got) == _bits(old.predict(alice, 150.0))
    assert pred.obs_stats() == old.obs_stats()


def test_a_finished_job_leaves_no_cache_entry():
    pred = SmithPredictor([Template(characteristics=("u",))])
    job = _job(1, 30.0)
    assert pred.predict(job, 10.0) is None
    pred.on_finish(job, 0.0)
    assert job.job_id not in pred._keys
    assert pred._waiting == {}


# ---------------------------------------------------------------------
# the insertion-order columns are the history window
# ---------------------------------------------------------------------
@given(
    entries=st.lists(
        st.tuples(st.sampled_from([0.0, 5.0, 5.0, 60.0, 600.0]) | st.floats(0.0, 1e4),
                  st.integers(1, 64), st.floats(1.0, 1e4)),
        min_size=1, max_size=40,
    ),
    max_history=st.one_of(st.none(), st.integers(1, 6)),
    relative=st.booleans(),
    estimator=st.sampled_from(["mean", "linear"]),
    probes=st.lists(st.floats(0.0, 700.0), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_property_columns_equal_points(entries, max_history, relative, estimator, probes):
    cat = Category(Template(characteristics=("u",), relative=relative,
                            max_history=max_history, estimator=estimator))
    window = []
    for i, (rt, nodes, max_rt) in enumerate(entries):
        cat.add(_job(i + 1, rt, nodes=nodes, max_run_time=max_rt))
        window.append(DataPoint(run_time=rt, nodes=nodes,
                                value=rt / max_rt if relative else rt))
        if max_history is not None and len(window) > max_history:
            window.pop(0)
        assert cat.points == tuple(window)
        assert len(cat) == len(window)
        assert list(cat._run_times) == [p.run_time for p in window]
        assert list(cat._values) == [p.value for p in window]
        assert list(cat._nodes) == [p.nodes for p in window]
        # Lookups read the columns in place; none may pin them, or the
        # next add could not append.
        query = _job(10_000, nodes=4, max_run_time=1.0)
        for elapsed in probes:
            cat.predict(query, elapsed)
            cat.miss_bound(query, elapsed, 0.90)
