"""Tests for repro.workloads.synthetic: generator structure and calibration.

The generator draws with array calls; :func:`_scalar_generate_trace`
below is the one-job-at-a-time loop it replaced, kept here as the
reference it must match to the bit, and the four full-scale paper
traces are pinned by SHA-256.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rng import rng_from_seed, spawn_rng
from repro.utils.timeutils import DAY, HOUR, MINUTE
from repro.workloads.archive import PAPER_WORKLOADS, load_paper_workload
from repro.workloads.job import Job, Trace
from repro.workloads.stats import offered_load
from repro.workloads.synthetic import (
    QueueSpec,
    SyntheticWorkloadSpec,
    generate_trace,
    make_paragon_queues,
)


def _spec(**kw) -> SyntheticWorkloadSpec:
    base = dict(
        name="test",
        total_nodes=64,
        n_jobs=600,
        mean_run_time=60 * MINUTE,
        offered_load=0.5,
        n_users=20,
    )
    base.update(kw)
    return SyntheticWorkloadSpec(**base)


class TestSpecValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            _spec(n_jobs=0)

    def test_rejects_silly_load(self):
        with pytest.raises(ValueError):
            _spec(offered_load=2.0)

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            _spec(mean_run_time=-1.0)

    def test_rejects_repeat_prob_one(self):
        with pytest.raises(ValueError):
            _spec(repeat_prob=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_run_time", math.inf),
            ("mean_run_time", math.nan),
            ("min_run_time", math.nan),
            ("min_run_time", -1.0),
            ("machine_time_limit", math.inf),
            ("mean_apps_per_user", 0.5),
            ("mean_apps_per_user", math.nan),
            ("n_users", 0),
            ("total_nodes", 0),
            ("recency_window", -1),
            ("interactive_fraction", 1.5),
            ("interactive_fraction", -0.1),
            ("interactive_fraction", math.nan),
            ("max_overestimate_range", (0.0, 8.0)),
            ("max_overestimate_range", (-1.0, 8.0)),
            ("max_overestimate_range", (3.0, 2.0)),
            ("max_overestimate_range", (1.2, math.inf)),
            ("max_round_to", 0.0),
        ],
    )
    def test_rejects_bad_value_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            _spec(**{field: value})

    def test_accepts_edge_values(self):
        _spec(
            mean_apps_per_user=1.0,
            recency_window=0,
            interactive_fraction=1.0,
            min_run_time=0.0,
            max_overestimate_range=(2.0, 2.0),
        )


class TestGeneration:
    def test_deterministic(self):
        spec = _spec()
        a = generate_trace(spec, seed=7)
        b = generate_trace(spec, seed=7)
        assert [j.submit_time for j in a] == [j.submit_time for j in b]
        assert [j.run_time for j in a] == [j.run_time for j in b]
        assert [j.user for j in a] == [j.user for j in b]

    def test_seed_changes_output(self):
        spec = _spec()
        a = generate_trace(spec, seed=1)
        b = generate_trace(spec, seed=2)
        assert [j.run_time for j in a] != [j.run_time for j in b]

    def test_job_count_and_override(self):
        spec = _spec()
        assert len(generate_trace(spec, seed=0)) == 600
        assert len(generate_trace(spec, seed=0, n_jobs=50)) == 50

    def test_nodes_within_machine(self):
        trace = generate_trace(_spec(), seed=0)
        assert all(1 <= j.nodes <= 64 for j in trace)

    def test_mean_run_time_near_target(self):
        trace = generate_trace(_spec(n_jobs=3000), seed=0)
        mean = np.mean([j.run_time for j in trace])
        # Clipping pulls the mean somewhat below target; require the ballpark.
        assert 0.7 * 60 * MINUTE <= mean <= 1.3 * 60 * MINUTE

    def test_offered_load_near_target(self):
        trace = generate_trace(_spec(n_jobs=3000), seed=1)
        assert offered_load(trace) == pytest.approx(0.5, abs=0.12)

    def test_repeated_app_runs_have_similar_run_times(self):
        """The structural property history predictors rely on."""
        trace = generate_trace(_spec(n_jobs=2000, has_executable=True), seed=3)
        by_app: dict[str, list[float]] = {}
        for j in trace:
            by_app.setdefault(j.executable, []).append(j.run_time)
        big = [v for v in by_app.values() if len(v) >= 10]
        assert big, "expected repeatedly-run applications"
        # Within-app spread must be well below the trace-wide spread.
        within = np.mean([np.std(np.log(v)) for v in big])
        overall = np.std(np.log([j.run_time for j in trace]))
        assert within < 0.75 * overall

    def test_max_run_time_bounds_run_time(self):
        trace = generate_trace(_spec(has_max_run_time=True), seed=0)
        for j in trace:
            assert j.max_run_time is not None
            assert j.max_run_time >= j.run_time

    def test_no_max_run_time_when_disabled(self):
        trace = generate_trace(_spec(has_max_run_time=False), seed=0)
        assert all(j.max_run_time is None for j in trace)

    def test_types_assigned(self):
        trace = generate_trace(
            _spec(
                job_types=("batch", "interactive"),
                interactive_type="interactive",
                interactive_fraction=0.3,
            ),
            seed=0,
        )
        kinds = {j.job_type for j in trace}
        assert kinds == {"batch", "interactive"}
        inter = [j for j in trace if j.job_type == "interactive"]
        batch = [j for j in trace if j.job_type == "batch"]
        assert np.mean([j.run_time for j in inter]) < np.mean(
            [j.run_time for j in batch]
        )

    def test_queue_limits_respected(self):
        queues = make_paragon_queues(64)
        trace = generate_trace(_spec(queues=queues), seed=0)
        by_name = {q.name: q for q in queues}
        for j in trace:
            q = by_name[j.queue]
            assert j.nodes <= q.max_nodes
            assert j.run_time <= q.max_run_time + 1e-6

    def test_submit_times_sorted_nonnegative(self):
        trace = generate_trace(_spec(), seed=0)
        times = [j.submit_time for j in trace]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_script_field(self):
        trace = generate_trace(_spec(has_script=True), seed=0)
        assert all(j.script and j.script.endswith(".ll") for j in trace)

    def test_arguments_only_with_flag(self):
        with_args = generate_trace(
            _spec(has_executable=True, has_arguments=True), seed=0
        )
        assert any(j.arguments for j in with_args)
        without = generate_trace(_spec(has_executable=True), seed=0)
        assert all(j.arguments is None for j in without)


class TestParagonQueues:
    def test_queue_count_in_paper_range(self):
        queues = make_paragon_queues(400)
        assert 29 <= len(queues) <= 35

    def test_names_unique(self):
        queues = make_paragon_queues(400)
        assert len({q.name for q in queues}) == len(queues)

    def test_admits(self):
        q = QueueSpec("q16m", 16, 4 * HOUR)
        assert q.admits(16, 4 * HOUR)
        assert not q.admits(17, 1.0)
        assert not q.admits(1, 5 * HOUR)

    def test_covers_machine(self):
        queues = make_paragon_queues(400)
        assert max(q.max_nodes for q in queues) == 400


# ---------------------------------------------------------------------
# The array draws against the one-job-at-a-time reference
# ---------------------------------------------------------------------
def _scalar_power_of_two_nodes(rng, total_nodes):
    max_exp = int(math.floor(math.log2(total_nodes)))
    exps = np.arange(0, max_exp + 1)
    w = 0.75**exps
    w[2 ** exps >= total_nodes // 2] *= 0.35
    w /= w.sum()
    return int(2 ** rng.choice(exps, p=w))


def _scalar_build_apps(spec, user, rng):
    count = 1 + rng.geometric(1.0 / spec.mean_apps_per_user)
    apps = []
    base_mu = math.log(spec.mean_run_time) - 0.5 * spec.runtime_sigma**2
    for i in range(count):
        log_mu = rng.normal(base_mu, spec.app_spread_sigma)
        args = ()
        if spec.has_arguments:
            args = tuple(
                f"-in data{rng.integers(0, 5)} -iter {int(2 ** rng.integers(4, 10))}"
                for _ in range(int(rng.integers(1, 4)))
            )
        apps.append(
            dict(
                name=f"{user}_app{i}",
                log_mu=log_mu,
                sigma=spec.runtime_sigma * float(rng.uniform(0.6, 1.4)),
                preferred_nodes=_scalar_power_of_two_nodes(rng, spec.total_nodes),
                arguments=args,
                job_class=(
                    str(rng.choice(spec.job_classes)) if spec.job_classes else None
                ),
                network_adaptor=(
                    str(rng.choice(spec.network_adaptors))
                    if spec.network_adaptors
                    else None
                ),
                script=f"{user}_job{i}.ll" if spec.has_script else None,
            )
        )
    return apps


def _scalar_diurnal_arrivals(n, span, amplitude, weekend_factor, rng):
    if span <= 0:
        return np.zeros(n)
    grid = np.linspace(0.0, span, max(2048, int(span / (10 * MINUTE)) + 1))
    intensity = 1.0 + amplitude * np.sin(2.0 * math.pi * grid / DAY)
    day_index = np.floor(grid / DAY).astype(int) % 7
    weekend = (day_index == 5) | (day_index == 6)
    intensity = np.where(weekend, intensity * weekend_factor, intensity)
    cum = np.concatenate([[0.0], np.cumsum((intensity[1:] + intensity[:-1]) / 2.0)])
    cum /= cum[-1]
    u = np.sort(rng.uniform(0.0, 1.0, size=n))
    return np.interp(u, cum, grid)


def _scalar_generate_trace(spec, *, seed=0, n_jobs=None):
    """The generator as it drew before array draws: one job at a time."""
    n = int(n_jobs if n_jobs is not None else spec.n_jobs)
    rng = rng_from_seed(seed)
    (
        rng_users, rng_apps, rng_seq, rng_rt, rng_nodes, rng_max, rng_arrive, rng_type,
    ) = spawn_rng(rng, count=8)

    users = [f"user{i:03d}" for i in range(spec.n_users)]
    ranks = np.arange(1, spec.n_users + 1, dtype=float)
    w = ranks**-1.1
    rng_users.shuffle(w)
    user_weights = w / w.sum()
    apps_by_user = {u: _scalar_build_apps(spec, u, rng_apps) for u in users}

    chosen = []
    recent = deque(maxlen=spec.recency_window)
    user_idx = rng_seq.choice(spec.n_users, size=n, p=user_weights)
    repeat_draw = rng_seq.uniform(size=n)
    for i in range(n):
        if recent and repeat_draw[i] < spec.repeat_prob:
            u, app = recent[int(rng_seq.integers(0, len(recent)))]
        else:
            u = users[int(user_idx[i])]
            pool = apps_by_user[u]
            app = pool[int(rng_seq.integers(0, len(pool)))]
        recent.append((u, app))
        jtype = None
        if spec.job_types:
            if (
                spec.interactive_type is not None
                and rng_type.uniform() < spec.interactive_fraction
            ):
                jtype = spec.interactive_type
            else:
                others = [t for t in spec.job_types if t != spec.interactive_type]
                jtype = str(rng_type.choice(others)) if others else spec.job_types[0]
        chosen.append((u, app, jtype))

    raw_rt = np.empty(n)
    nodes = np.empty(n, dtype=int)
    for i, (_, app, jtype) in enumerate(chosen):
        rt = float(rng_rt.lognormal(app["log_mu"], app["sigma"]))
        nd = app["preferred_nodes"]
        u = rng_nodes.uniform()
        if u < 0.15:
            nd = max(1, nd // 2)
        elif u > 0.92:
            nd = nd * 2
        nd = max(1, min(spec.total_nodes, nd))
        if jtype is not None and jtype == spec.interactive_type:
            rt *= 0.08
            nd = min(nd, max(1, spec.total_nodes // 16))
        raw_rt[i] = rt
        nodes[i] = nd

    scale = spec.mean_run_time / float(raw_rt.mean())
    run_times = np.clip(raw_rt * scale, spec.min_run_time, spec.machine_time_limit)

    queue_names = [None] * n
    if spec.queues:
        sorted_queues = sorted(spec.queues, key=lambda q: (q.max_nodes, q.max_run_time))
        for i in range(n):
            fitting = [q for q in sorted_queues if q.max_nodes >= nodes[i]]
            if not fitting:
                fitting = [max(sorted_queues, key=lambda q: q.max_nodes)]
                nodes[i] = min(nodes[i], fitting[0].max_nodes)
            admitting = [q for q in fitting if q.max_run_time >= run_times[i]]
            if admitting:
                q = admitting[0]
                if len(admitting) > 1 and rng_max.uniform() < 0.2:
                    q = admitting[int(rng_max.integers(1, len(admitting)))]
            else:
                q = max(fitting, key=lambda qq: qq.max_run_time)
                run_times[i] = min(run_times[i], q.max_run_time)
            queue_names[i] = q.name

    max_rts = [None] * n
    if spec.has_max_run_time:
        lo, hi = spec.max_overestimate_range
        for i in range(n):
            if rng_max.uniform() < 0.25:
                m = spec.machine_time_limit
            else:
                factor = float(np.exp(rng_max.uniform(math.log(lo), math.log(hi))))
                value = run_times[i] * factor
                m = math.ceil(value / spec.max_round_to) * spec.max_round_to
            max_rts[i] = float(min(max(m, run_times[i]), spec.machine_time_limit))

    total_work = float((run_times * nodes).sum())
    span = total_work / (spec.offered_load * spec.total_nodes)
    arrivals = _scalar_diurnal_arrivals(
        n, span, spec.diurnal_amplitude, spec.weekend_factor, rng_arrive
    )

    jobs = []
    for i, (u, app, jtype) in enumerate(chosen):
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=float(arrivals[i]),
                run_time=float(run_times[i]),
                nodes=int(nodes[i]),
                user=u if spec.has_user else None,
                job_type=jtype,
                queue=queue_names[i],
                job_class=app["job_class"],
                script=app["script"],
                executable=app["name"] if spec.has_executable else None,
                arguments=(
                    app["arguments"][int(rng_seq.integers(0, len(app["arguments"])))]
                    if spec.has_arguments and app["arguments"]
                    else None
                ),
                network_adaptor=app["network_adaptor"],
                max_run_time=max_rts[i],
            )
        )
    return Trace(jobs, total_nodes=spec.total_nodes, name=spec.name)


_FIELDS = [f.name for f in dataclasses.fields(Job)]


def _rows(trace) -> list[tuple]:
    """Every field of every job with its type; floats as ``float.hex``."""
    return [
        tuple(
            (type(v).__name__, v.hex() if isinstance(v, float) else v)
            for v in (getattr(job, name) for name in _FIELDS)
        )
        for job in trace
    ]


def _digest(trace) -> str:
    h = hashlib.sha256(f"{trace.name} {trace.total_nodes}\n".encode())
    for row in _rows(trace):
        h.update(f"{row}\n".encode())
    return h.hexdigest()


# (job types, interactive type): none; one, two or three types without
# an interactive one; an interactive type with 0, 1 or >= 2 other types,
# and one that is not among the types.
_TYPE_SETS = [
    ((), None),
    (("batch",), None),
    (("batch", "pvm3"), None),
    (("serial", "parallel", "pvm3"), None),
    (("interactive",), "interactive"),
    (("batch", "interactive"), "interactive"),
    (("batch", "interactive", "pvm3"), "interactive"),
    (("batch",), "interactive"),
    (("batch", "pvm3"), "interactive"),
]

_queues = st.lists(
    st.builds(
        QueueSpec,
        name=st.sampled_from(["qa", "qb", "qc", "qd"]),
        max_nodes=st.integers(1, 64),
        max_run_time=st.sampled_from([30 * MINUTE, HOUR, 4 * HOUR, 12 * HOUR]),
    ),
    min_size=1,
    max_size=6,
).map(tuple)


@st.composite
def _specs(draw):
    total_nodes = draw(st.sampled_from([1, 3, 16, 80, 400, 512]))
    job_types, interactive_type = draw(st.sampled_from(_TYPE_SETS))
    lo = draw(st.floats(1.0, 4.0))
    queues = draw(
        st.one_of(st.just(()), st.just(make_paragon_queues(total_nodes)), _queues)
    )
    return SyntheticWorkloadSpec(
        name="prop",
        total_nodes=total_nodes,
        n_jobs=100,
        mean_run_time=draw(st.floats(60.0, 20 * HOUR)),
        offered_load=draw(st.floats(0.1, 1.2)),
        n_users=draw(st.integers(1, 12)),
        mean_apps_per_user=draw(st.floats(1.0, 5.0)),
        repeat_prob=draw(st.floats(0.0, 0.95)),
        recency_window=draw(st.integers(0, 80)),
        min_run_time=draw(st.sampled_from([0.0, 30.0, 600.0])),
        job_types=job_types,
        interactive_type=interactive_type,
        interactive_fraction=draw(st.floats(0.0, 1.0)),
        job_classes=draw(st.sampled_from([(), ("DSI",), ("DSI", "PIOFS")])),
        network_adaptors=draw(st.sampled_from([(), ("css0",), ("css0", "en0")])),
        has_executable=draw(st.booleans()),
        has_arguments=draw(st.booleans()),
        has_script=draw(st.booleans()),
        has_user=draw(st.booleans()),
        has_max_run_time=draw(st.booleans()),
        max_overestimate_range=(lo, lo * draw(st.floats(1.0, 4.0))),
        # 2**-60 is below one ulp of any run time: m keeps every bit of
        # run_time * factor, so the factor's own bits are compared.
        max_round_to=draw(st.sampled_from([2.0**-60, 1.0, 15 * MINUTE])),
        machine_time_limit=draw(st.sampled_from([HOUR, 12 * HOUR, 24 * HOUR])),
        queues=queues,
    )


#: SHA-256 of :func:`_digest` over each full-scale paper trace at its
#: default seed.
_TRACE_SHA256 = {
    "ANL": "329a3b32460efcb231d2d1bb1fc7da0b7094ee5a2bbafa587798b1e834ce883f",
    "CTC": "ce506b2695022b38a110acb758370cc1fd7e623129533035200433b7b364842d",
    "SDSC95": "87401497837ed9c6f5396dd1496bbca1ab309e938dca1155b01a4be05552c8b9",
    "SDSC96": "250e96adf1f5e6862f378bcd1c4f7f9103aed474a89e373da7d9bba1451c50ec",
}

# Queues and maxima both draw from one stream; ANL- and CTC-like types.
_MIXED = _spec(
    n_jobs=300,
    queues=make_paragon_queues(64),
    has_max_run_time=True,
    job_types=("batch", "interactive", "pvm3"),
    interactive_type="interactive",
    interactive_fraction=0.3,
    job_classes=("DSI", "PIOFS"),
    network_adaptors=("css0", "en0"),
    has_executable=True,
    has_arguments=True,
    has_script=True,
)


class TestArrayDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=_specs(),
        n=st.one_of(st.integers(1, 4), st.integers(1, 150)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(spec=_MIXED, n=1, seed=0)
    @example(spec=_MIXED, n=300, seed=7)
    @example(spec=_spec(recency_window=1, repeat_prob=0.9), n=40, seed=3)
    def test_property_matches_scalar_generator(self, spec, n, seed):
        expected = _rows(_scalar_generate_trace(spec, seed=seed, n_jobs=n))
        assert _rows(generate_trace(spec, seed=seed, n_jobs=n)) == expected

    @pytest.mark.parametrize("name", sorted(_TRACE_SHA256))
    def test_full_scale_paper_trace_bytes(self, name):
        trace = load_paper_workload(name)
        assert len(trace) == PAPER_WORKLOADS[name].n_jobs
        assert _digest(trace) == _TRACE_SHA256[name]
