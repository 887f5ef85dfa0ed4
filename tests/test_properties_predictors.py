"""Property-based tests on predictor and workload invariants."""

from __future__ import annotations

import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.predictors.base import PointEstimator, warm_start
from repro.predictors.category import Category, DataPoint
from repro.predictors.downey import DowneyPredictor
from repro.predictors.gibbons import GibbonsPredictor
from repro.predictors.simple import MaxRuntimePredictor
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import ESTIMATOR_KINDS, Template
from repro.stats.ci import RunningMoments, t_quantile
from repro.stats.regression import fit_inverse, fit_linear, fit_logarithmic
from repro.workloads.job import Job, Trace
from repro.workloads.swf import job_to_swf_line, parse_swf_lines

# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------
users = st.sampled_from(["alice", "bob", "carol"])
executables = st.sampled_from(["sim", "solver", "render", None])
queues = st.sampled_from(["q16s", "q64l", None])


@st.composite
def jobs(draw, job_id=None):
    return Job(
        job_id=draw(st.integers(1, 10**6)) if job_id is None else job_id,
        submit_time=draw(st.floats(0, 1e6)),
        run_time=draw(st.floats(0, 1e5)),
        nodes=draw(st.integers(1, 128)),
        user=draw(users),
        executable=draw(executables),
        queue=draw(queues),
        max_run_time=draw(st.one_of(st.none(), st.floats(1.0, 2e5))),
    )


@st.composite
def job_batches(draw, min_size=2, max_size=25):
    n = draw(st.integers(min_size, max_size))
    return [draw(jobs(job_id=i + 1)) for i in range(n)]


# ---------------------------------------------------------------------
# SWF round trip
# ---------------------------------------------------------------------
@given(batch=job_batches())
@settings(max_examples=60, deadline=None)
def test_property_swf_roundtrip_preserves_schedulable_fields(batch):
    batch = [j for j in batch if j.run_time >= 1.0]
    assume(batch)
    trace = Trace(batch, total_nodes=128)
    lines = [job_to_swf_line(j) for j in trace]
    back = parse_swf_lines(["; MaxNodes: 128"] + lines)
    assert len(back) == len(trace)
    # SWF stores integer seconds, which can reorder equal-after-rounding
    # submissions; match records by job id.
    by_id = {j.job_id: j for j in back}
    for orig in trace:
        rt = by_id[orig.job_id]
        assert rt.nodes == orig.nodes
        assert abs(rt.run_time - orig.run_time) <= 0.5
        assert abs(rt.submit_time - orig.submit_time) <= 0.5
        if orig.max_run_time is not None:
            assert rt.max_run_time == pytest.approx(orig.max_run_time, abs=0.5)


# ---------------------------------------------------------------------
# predictor invariants
# ---------------------------------------------------------------------
_PREDICTOR_FACTORIES = [
    lambda: SmithPredictor(
        [Template(), Template(characteristics=("u",)),
         Template(characteristics=("u", "e"), node_range_size=8)]
    ),
    lambda: GibbonsPredictor(),
    lambda: DowneyPredictor("median"),
    lambda: DowneyPredictor("average"),
]


@pytest.mark.parametrize("factory", _PREDICTOR_FACTORIES)
@given(history=job_batches(min_size=3), probe=jobs(job_id=999_999),
       elapsed=st.floats(0, 1e4))
@settings(max_examples=50, deadline=None)
def test_property_predictions_respect_elapsed_floor(factory, history, probe, elapsed):
    """Any predictor, any history: estimates are finite, positive, and
    never below the job's elapsed run time."""
    predictor = warm_start(factory(), history)
    pred = predictor.predict(probe, elapsed, 0.0)
    if pred is not None:
        assert np.isfinite(pred.estimate)
        assert pred.estimate >= elapsed - 1e-9
        assert pred.estimate >= 0.0
        assert pred.interval >= 0.0


@given(history=job_batches(min_size=3), probe=jobs(job_id=999_999))
@settings(max_examples=50, deadline=None)
def test_property_point_estimator_always_produces_a_number(history, probe):
    est = PointEstimator(
        SmithPredictor([Template(characteristics=("u", "e"))])
    )
    for job in history:
        est.on_finish(job, job.submit_time + job.run_time)
    value = est.predict(probe, 0.0, 0.0)
    assert np.isfinite(value)
    # Zero is legitimate (a history of zero-length jobs); negative never.
    assert value >= 0.0


@given(history=job_batches(min_size=4))
@settings(max_examples=40, deadline=None)
def test_property_smith_insertion_order_irrelevant_without_history_cap(history):
    """Unbounded categories are order-insensitive for mean templates."""
    probe = history[0].with_(job_id=999_999)
    a = warm_start(SmithPredictor([Template(characteristics=("u",))]), history)
    b = warm_start(
        SmithPredictor([Template(characteristics=("u",))]), list(reversed(history))
    )
    pa = a.predict(probe)
    pb = b.predict(probe)
    assert (pa is None) == (pb is None)
    if pa is not None:
        assert pa.estimate == pytest.approx(pb.estimate, rel=1e-9)


@given(history=job_batches(min_size=6), cap=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_property_history_cap_keeps_newest(history, cap):
    probe = history[-1].with_(job_id=999_999)
    capped = warm_start(
        SmithPredictor([Template(characteristics=(), max_history=cap)]), history
    )
    manual = [j.run_time for j in history][-cap:]
    pred = capped.predict(probe)
    if len(manual) >= 2 and pred is not None:
        assert pred.estimate == pytest.approx(
            max(float(np.mean(manual)), 0.0), rel=1e-9, abs=1e-6
        )


# ---------------------------------------------------------------------
# memoised category statistics == filter-and-fit, to the bit
# ---------------------------------------------------------------------
class _FilterAndFitCategory:
    """Reference oracle: a category that filters its history on every call.

    This is the straightforward reading of §2.1 — keep the points whose
    run time is at least ``elapsed``, fit them with NumPy — against which
    :class:`Category`'s memoised statistics must agree bit for bit.  The
    mean's interval is built from ``np.mean``/``np.std`` and
    :func:`t_quantile` here, not from the kernel under test.
    """

    _fitters = {"linear": fit_linear, "inverse": fit_inverse, "log": fit_logarithmic}

    def __init__(self, template: Template) -> None:
        self.template = template
        self._points: deque[DataPoint] = deque()
        self._moments = RunningMoments()

    def add(self, job: Job) -> None:
        if self.template.relative:
            value = job.run_time / job.max_run_time
        else:
            value = job.run_time
        limit = self.template.max_history
        if limit is not None and len(self._points) >= limit:
            old = self._points.popleft()
            self._moments.remove(old.value)
        self._points.append(DataPoint(run_time=job.run_time, nodes=job.nodes, value=value))
        self._moments.add(value)

    def predict(self, job: Job, elapsed: float, confidence: float):
        if self.template.relative and job.max_run_time is None:
            return None
        if elapsed > 0.0:
            pts = [p for p in self._points if p.run_time >= elapsed]
        else:
            pts = None
        kind = self.template.estimator
        if kind == "mean":
            if pts is None:
                if self._moments.count < 2:
                    return None
                est, hw = self._moments.interval(confidence)
            else:
                if len(pts) < 2:
                    return None
                values = np.array([p.value for p in pts], dtype=float)
                n = len(values)
                t = t_quantile(n - 1, 0.5 + confidence / 2.0)
                est = float(np.mean(values))
                hw = t * float(np.std(values, ddof=1)) * math.sqrt(1.0 + 1.0 / n)
        else:
            sample = list(self._points) if pts is None else pts
            if len(sample) < 3:
                return None
            xs = np.array([p.nodes for p in sample], dtype=float)
            ys = np.array([p.value for p in sample], dtype=float)
            try:
                fit = self._fitters[kind](xs, ys)
            except ValueError:
                return None
            est, hw = fit.prediction_interval(job.nodes, confidence)
        if self.template.relative:
            est *= job.max_run_time
            hw *= job.max_run_time
        est = max(est, elapsed)
        return est, max(hw, 0.0)


def _bits(result):
    """A prediction as raw float64 bytes (distinguishes -0.0, keeps None)."""
    if result is None:
        return None
    return tuple(struct.pack("<d", float(v)) for v in result)


# Few distinct run times and node counts, so duplicates, ties at the
# ``>=`` boundary and degenerate regression designs all occur.
_run_times = st.one_of(
    st.sampled_from([0.0, 1.0, 30.0, 30.0, 120.5, 600.0, 3600.0]),
    st.floats(0.0, 1e5, allow_nan=False),
)
_elapsed = st.one_of(
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("stored"), st.integers(0, 40)),  # == a stored run time
    st.tuples(st.just("above"), st.just(0)),  # above every stored run time
    st.tuples(st.just("free"), st.floats(0.0, 2e5, allow_nan=False)),
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), _run_times, st.sampled_from([1, 2, 4, 4, 16, 64]),
            st.floats(1.0, 2e5),
        ),
        st.tuples(
            st.just("predict"), _elapsed, st.integers(1, 64),
            st.one_of(st.none(), st.floats(1.0, 2e5)),
            st.sampled_from([0.90, 0.95]),
        ),
    ),
    min_size=1,
    max_size=60,
)


@given(
    kind=st.sampled_from(ESTIMATOR_KINDS),
    relative=st.booleans(),
    max_history=st.one_of(st.none(), st.integers(1, 8)),
    ops=_ops,
)
@settings(max_examples=300, deadline=None)
def test_property_memoised_category_matches_filter_and_fit(
    kind, relative, max_history, ops
):
    template = Template(
        characteristics=("u",), max_history=max_history,
        relative=relative, estimator=kind,
    )
    cat = Category(template)
    ref = _FilterAndFitCategory(template)
    stored: list[float] = []
    for op in ops:
        if op[0] == "add":
            _, run_time, nodes, max_rt = op
            job = Job(job_id=len(stored) + 1, submit_time=0.0, run_time=run_time,
                      nodes=nodes, user="alice", max_run_time=max_rt)
            cat.add(job)
            ref.add(job)
            stored.append(run_time)
            continue
        _, (mode, arg), nodes, max_rt, confidence = op
        window = [p.run_time for p in ref._points]
        if mode == "zero" or not window:
            elapsed = 0.0
        elif mode == "stored":
            elapsed = window[arg % len(window)]
        elif mode == "above":
            elapsed = max(window) + 1.0
        else:
            elapsed = arg
        job = Job(job_id=10_000, submit_time=0.0, run_time=1.0, nodes=nodes,
                  user="alice", max_run_time=max_rt)
        # Twice: the second call is served from the memo.
        want = _bits(ref.predict(job, elapsed, confidence))
        assert _bits(cat.predict(job, elapsed, confidence)) == want
        assert _bits(cat.predict(job, elapsed, confidence)) == want


def test_memo_counts_hits_misses_and_scanned_points():
    cat = Category(Template(characteristics=("u",)))
    for rt in (10.0, 20.0, 30.0, 40.0):
        cat.add(Job(job_id=int(rt), submit_time=0.0, run_time=rt, nodes=1, user="u"))
    job = Job(job_id=99, submit_time=0.0, run_time=1.0, nodes=1, user="u")
    cat.predict(job, 5.0)   # k=4: miss, scans the 4 points
    cat.predict(job, 10.0)  # k=4 again (10.0 qualifies): hit
    cat.predict(job, 15.0)  # k=3: miss
    cat.predict(job, 0.0)   # elapsed 0 reads the running moments: no lookup
    assert (cat.memo_hits, cat.memo_misses, cat.points_scanned) == (1, 2, 8)
    cat.add(Job(job_id=50, submit_time=0.0, run_time=50.0, nodes=1, user="u"))
    cat.predict(job, 10.0)  # the add cleared the memo
    assert (cat.memo_hits, cat.memo_misses) == (1, 3)
    # Unconditioned regression lookups (the audit's re-derivation) are
    # memoised but not counted.
    reg = Category(Template(characteristics=("u",), estimator="linear"))
    for rt in (10.0, 20.0, 30.0):
        reg.add(Job(job_id=int(rt), submit_time=0.0, run_time=rt, nodes=int(rt), user="u"))
    reg.predict(job, 0.0)
    reg.predict(job, 0.0)
    assert (reg.memo_hits, reg.memo_misses, reg.points_scanned) == (0, 0, 0)


# ---------------------------------------------------------------------
# Smith's per-job category-key cache
# ---------------------------------------------------------------------
def _smith_with_history():
    pred = SmithPredictor(
        [Template(characteristics=("u",)), Template(characteristics=("e",))]
    )
    for i, (user, exe, rt) in enumerate(
        [("alice", "sim", 100.0), ("alice", "sim", 120.0), ("alice", "sim", 110.0),
         ("bob", "solver", 5000.0), ("bob", "solver", 5200.0), ("bob", "solver", 4900.0)]
    ):
        pred.on_finish(
            Job(job_id=i + 1, submit_time=0.0, run_time=rt, nodes=4, user=user,
                executable=exe),
            0.0,
        )
    return pred


def test_smith_job_id_reuse_with_a_different_job_is_not_served_stale_keys():
    pred = _smith_with_history()
    first = Job(job_id=77, submit_time=0.0, run_time=1.0, nodes=4, user="alice",
                executable="sim")
    second = first.with_(user="bob", executable="solver")
    p1 = pred.predict(first)
    p2 = pred.predict(second)
    assert p1.estimate < 200.0
    assert p2 == _smith_with_history().predict(second)
    assert p2.estimate > 4000.0


@given(history=job_batches(min_size=3, max_size=20))
@settings(max_examples=40, deadline=None)
def test_property_smith_key_cache_empty_after_every_job_finishes(history):
    pred = SmithPredictor(
        [Template(characteristics=("u",)), Template(characteristics=("u", "e")),
         Template(characteristics=(), relative=True)]
    )
    for job in history:
        pred.predict(job)
        pred.predict(job, elapsed=job.run_time / 2)
    for job in history:
        pred.on_finish(job, job.submit_time + job.run_time)
    assert pred._keys == {}


def test_point_estimator_surfaces_smith_memo_counters():
    est = PointEstimator(_smith_with_history())
    job = Job(job_id=77, submit_time=0.0, run_time=1.0, nodes=4, user="alice",
              executable="sim")
    est.predict(job, 105.0, 0.0)
    est.predict(job, 105.0, 0.0)
    stats = est.obs_stats()
    assert stats["predictor.memo_misses"] == 2  # one per template
    assert stats["predictor.memo_hits"] == 2
    assert stats["predictor.points_scanned"] == 6
    assert not any(
        k.startswith("predictor.")
        for k in PointEstimator(MaxRuntimePredictor()).obs_stats()
    )
