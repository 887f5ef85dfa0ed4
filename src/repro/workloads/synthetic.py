"""Seeded synthetic workload generator.

The real ANL/CTC/SDSC accounting traces are not redistributable here, so
the reproduction generates synthetic traces with the *structural*
properties the paper's techniques exploit:

- a **user population** with Zipf-like activity (a few heavy users);
- per-user **application pools** — repeated runs of the same executable
  draw from a common lognormal run-time family, which is exactly the
  regularity history-based predictors (Smith, Gibbons) key on;
- **temporal locality**: users resubmit the same application in bursts;
- **power-of-two node requests** correlated with the application;
- loose, rounded **user-supplied maximum run times** (for the workloads
  that record them) — the paper's EASY-style baseline predictor;
- **queues** with node/time limits (for the SDSC-style workloads), which
  Downey's predictor categorizes on and from which per-queue maxima are
  derived;
- **diurnal arrivals** calibrated so the trace offers a target load.

Everything is driven by independent child streams of a single seed, so a
``(spec, seed, n_jobs)`` triple always produces the identical trace.

The generator draws its per-job values with array calls, yet makes the
same trace, to the bit, as a loop that draws one job at a time.  The rule
that keeps the bits: every value comes from the same ``Generator`` method
with the same per-element arguments, in the same order in its own child
stream, through the method's array-argument or ``size=`` form.  A value
is never recomputed in Python from a raw ``random()`` draw: C may fuse
``low + range * d`` into one FMA step on some hosts, so a recomputed
value could differ there.  A bounded ``integers`` draw whose range holds
one value consumes nothing, in either form, so a one-way choice needs no
call at all.  Two streams keep a per-job loop, because which method a
job calls next depends on its previous draw: the queue picks, and the
job types when an interactive type sits beside two or more others.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import rng_from_seed, spawn_rng
from repro.utils.timeutils import DAY, HOUR, MINUTE
from repro.workloads.job import Job, Trace

__all__ = [
    "QueueSpec",
    "SyntheticWorkloadSpec",
    "generate_trace",
    "make_paragon_queues",
]


@dataclass(frozen=True)
class QueueSpec:
    """A submission queue with node and wall-time limits."""

    name: str
    max_nodes: int
    max_run_time: float

    def admits(self, nodes: int, run_time: float) -> bool:
        return nodes <= self.max_nodes and run_time <= self.max_run_time


@dataclass(frozen=True)
class SyntheticWorkloadSpec:
    """Parameters of one synthetic workload.

    ``mean_run_time`` is the target trace-wide mean in seconds (Table 1 of
    the paper reports minutes); ``offered_load`` is total work divided by
    machine capacity over the submission span and is calibrated to the
    utilizations of Tables 10-15.
    """

    name: str
    total_nodes: int
    n_jobs: int
    mean_run_time: float
    offered_load: float
    n_users: int = 120
    mean_apps_per_user: float = 4.0
    runtime_sigma: float = 0.55
    app_spread_sigma: float = 1.1
    repeat_prob: float = 0.40
    recency_window: int = 64
    min_run_time: float = 30.0
    diurnal_amplitude: float = 0.85
    weekend_factor: float = 0.45
    job_types: tuple[str, ...] = ()
    interactive_type: str | None = None
    interactive_fraction: float = 0.0
    job_classes: tuple[str, ...] = ()
    network_adaptors: tuple[str, ...] = ()
    has_executable: bool = False
    has_arguments: bool = False
    has_script: bool = False
    has_user: bool = True
    has_max_run_time: bool = False
    max_overestimate_range: tuple[float, float] = (1.2, 8.0)
    max_round_to: float = 15 * MINUTE
    machine_time_limit: float = 24 * HOUR
    queues: tuple[QueueSpec, ...] = ()

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and inf without a function call;
        # each bad value fails here, naming its field, not deep inside
        # NumPy or math when a trace is generated.
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.total_nodes < 1:
            raise ValueError(f"total_nodes must be >= 1, got {self.total_nodes}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if not 0 < self.offered_load < 1.5:
            raise ValueError(f"offered_load out of range: {self.offered_load}")
        if not 0.0 < self.mean_run_time < math.inf:
            raise ValueError(
                f"mean_run_time must be positive and finite, got {self.mean_run_time}"
            )
        if not 0.0 <= self.min_run_time < math.inf:
            raise ValueError(
                f"min_run_time must be finite and >= 0, got {self.min_run_time}"
            )
        if not 0.0 < self.machine_time_limit < math.inf:
            raise ValueError(
                "machine_time_limit must be positive and finite, "
                f"got {self.machine_time_limit}"
            )
        if not 1.0 <= self.mean_apps_per_user < math.inf:
            raise ValueError(
                "mean_apps_per_user must be finite and >= 1, "
                f"got {self.mean_apps_per_user}"
            )
        if not 0 <= self.repeat_prob < 1:
            raise ValueError("repeat_prob must be in [0, 1)")
        if self.recency_window < 0:
            raise ValueError(f"recency_window must be >= 0, got {self.recency_window}")
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ValueError(
                f"interactive_fraction must be in [0, 1], got {self.interactive_fraction}"
            )
        lo, hi = self.max_overestimate_range
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(
                "max_overestimate_range must be (lo, hi) with 0 < lo <= hi < inf, "
                f"got {self.max_overestimate_range}"
            )
        if not 0.0 < self.max_round_to < math.inf:
            raise ValueError(
                f"max_round_to must be positive and finite, got {self.max_round_to}"
            )


@dataclass
class _App:
    """One application owned by one user: a run-time family plus shape."""

    user: str
    name: str
    log_mu: float
    sigma: float
    preferred_nodes: int
    arguments: tuple[str, ...]
    job_class: str | None
    network_adaptor: str | None
    script: str | None


def make_paragon_queues(total_nodes: int) -> tuple[QueueSpec, ...]:
    """Queues in the style of the SDSC Paragon: node class × time class.

    Produces ~30 queues named like ``q16m`` (16-node class, medium time),
    matching the paper's description of 29-35 queues with per-queue
    resource limits.
    """
    queues: list[QueueSpec] = []
    node_class = 1
    while node_class <= total_nodes:
        for tag, limit in (("s", 1 * HOUR), ("m", 4 * HOUR), ("l", 12 * HOUR)):
            queues.append(QueueSpec(f"q{node_class}{tag}", node_class, limit))
        node_class *= 2
        if node_class > total_nodes and node_class // 2 < total_nodes:
            node_class = total_nodes
    return tuple(queues)


def _zipf_weights(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity weights over ``n`` items, randomly permuted."""
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks**-s
    rng.shuffle(w)
    return w / w.sum()


def _node_weights(total_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents and weights of a power-of-two node request.

    The request is biased toward small jobs, and the bias steepens in
    the top quarter of the machine: requests for half the machine or
    more exist but are rare, as in the archive traces — otherwise FCFS
    head-of-line blocking dominates every simulation instead of being
    the moderate penalty the paper reports.
    """
    max_exp = int(math.floor(math.log2(total_nodes)))
    exps = np.arange(0, max_exp + 1)
    w = 0.75**exps
    # Extra damping for jobs needing >= half the machine.
    w[2 ** exps >= total_nodes // 2] *= 0.35
    w /= w.sum()
    return exps, w


def _build_apps(
    spec: SyntheticWorkloadSpec,
    user: str,
    rng: np.random.Generator,
    node_weights: tuple[np.ndarray, np.ndarray],
) -> list[_App]:
    count = 1 + rng.geometric(1.0 / spec.mean_apps_per_user)
    apps: list[_App] = []
    base_mu = math.log(spec.mean_run_time) - 0.5 * spec.runtime_sigma**2
    exps, weights = node_weights
    for i in range(count):
        log_mu = rng.normal(base_mu, spec.app_spread_sigma)
        args: tuple[str, ...] = ()
        if spec.has_arguments:
            args = tuple(
                f"-in data{rng.integers(0, 5)} -iter {int(2 ** rng.integers(4, 10))}"
                for _ in range(int(rng.integers(1, 4)))
            )
        apps.append(
            _App(
                user=user,
                name=f"{user}_app{i}",
                log_mu=log_mu,
                sigma=spec.runtime_sigma * float(rng.uniform(0.6, 1.4)),
                preferred_nodes=int(2 ** rng.choice(exps, p=weights)),
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


def _diurnal_arrivals(
    n: int,
    span: float,
    amplitude: float,
    weekend_factor: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``n`` sorted arrival times over [0, span] with daily/weekly cycles.

    Intensity is ``(1 + A·sin(2πt/DAY)) · w(t)`` with ``w`` the weekend
    damping; arrivals are drawn by inverse transform on the cumulative
    intensity evaluated on a fine grid.  Deep overnight/weekend lulls let
    the queue drain periodically, as the real traces do — without them
    work-ordered policies starve wide jobs indefinitely.
    """
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


def generate_trace(
    spec: SyntheticWorkloadSpec,
    *,
    seed: int | np.random.Generator = 0,
    n_jobs: int | None = None,
) -> Trace:
    """Generate a deterministic synthetic trace for ``spec``.

    ``n_jobs`` overrides ``spec.n_jobs`` (used by scaled-down benchmark
    runs); all structural parameters are kept, and the arrival span is
    re-derived so the offered load is preserved at any size.
    """
    n = int(n_jobs if n_jobs is not None else spec.n_jobs)
    if n < 1:
        raise ValueError("n_jobs must be >= 1")
    rng = rng_from_seed(seed)
    (
        rng_users,
        rng_apps,
        rng_seq,
        rng_rt,
        rng_nodes,
        rng_max,
        rng_arrive,
        rng_type,
    ) = spawn_rng(rng, count=8)

    users = [f"user{i:03d}" for i in range(spec.n_users)]
    user_weights = _zipf_weights(spec.n_users, 1.1, rng_users)
    node_weights = _node_weights(spec.total_nodes)
    pools = [_build_apps(spec, u, rng_apps, node_weights) for u in users]
    # Every app in one list, users in order; a user's pool is a slice.
    apps = [app for pool in pools for app in pool]
    pool_sizes = np.array([len(pool) for pool in pools])
    pool_starts = np.cumsum(pool_sizes) - pool_sizes

    # --- choose (user, app) for each job with temporal locality ----------
    # Job i repeats one of the min(i, recency_window) jobs before it, or
    # runs an app of its freshly drawn user.  Either way it makes one
    # integers draw whose bound is known up front.
    index = np.arange(n)
    user_idx = rng_seq.choice(spec.n_users, size=n, p=user_weights)
    repeat_draw = rng_seq.uniform(size=n)
    window = np.minimum(index, spec.recency_window)
    repeat = (window > 0) & (repeat_draw < spec.repeat_prob)
    picks = rng_seq.integers(0, np.where(repeat, window, pool_sizes[user_idx]))
    # A repeat runs the app of the job ``window - pick`` places back;
    # follow those links, each step doubling the distance jumped, to the
    # fresh job at the root of its chain.
    root = np.where(repeat, index - window + picks, index)
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    app_idx = (pool_starts[user_idx] + picks)[root]
    job_apps = [apps[a] for a in app_idx.tolist()]

    # --- job types --------------------------------------------------------
    job_types: list[str | None] = [None] * n
    interactive = np.zeros(n, dtype=bool)
    if spec.job_types:
        others = [t for t in spec.job_types if t != spec.interactive_type]
        if spec.interactive_type is None:
            job_types = [
                others[k] for k in rng_type.integers(0, len(others), size=n).tolist()
            ]
        elif len(others) <= 1:
            # The other type, if any, is a one-way choice: no draw.
            interactive = rng_type.uniform(size=n) < spec.interactive_fraction
            if not others:  # every type is the interactive one
                interactive[:] = True
            job_types = [
                spec.interactive_type if x else others[0] for x in interactive.tolist()
            ]
        else:
            for i in range(n):
                if rng_type.uniform() < spec.interactive_fraction:
                    interactive[i] = True
                    job_types[i] = spec.interactive_type
                else:
                    job_types[i] = others[int(rng_type.integers(0, len(others)))]

    # --- raw run times and node counts ------------------------------------
    raw_rt = rng_rt.lognormal(
        np.array([app.log_mu for app in apps])[app_idx],
        np.array([app.sigma for app in apps])[app_idx],
    )
    nodes = np.array([app.preferred_nodes for app in apps])[app_idx]
    # Users mostly rerun at the same width, occasionally halve or double.
    u = rng_nodes.uniform(size=n)
    nodes = np.where(u < 0.15, np.maximum(1, nodes // 2), np.where(u > 0.92, nodes * 2, nodes))
    nodes = np.maximum(1, np.minimum(spec.total_nodes, nodes))
    raw_rt[interactive] *= 0.08  # interactive jobs are short
    nodes[interactive] = np.minimum(nodes[interactive], max(1, spec.total_nodes // 16))

    # --- scale to the target mean run time, then clip ------------------
    scale = spec.mean_run_time / float(raw_rt.mean())
    run_times = np.clip(raw_rt * scale, spec.min_run_time, spec.machine_time_limit)

    # --- queue assignment (clips run time to the queue limit) ----------
    queue_names: list[str | None] = [None] * n
    if spec.queues:
        sorted_queues = sorted(spec.queues, key=lambda q: (q.max_nodes, q.max_run_time))
        widest = max(sorted_queues, key=lambda q: q.max_nodes)
        limits = sorted({q.max_run_time for q in sorted_queues})
        # The queues a job may use depend only on its node count, and
        # those that admit its run time only on the limits it is under.
        fitting_by_nodes: dict[int, tuple[list[QueueSpec], int]] = {}
        admitting_by_class: dict[tuple[int, int], list[QueueSpec]] = {}
        node_list = nodes.tolist()
        rt_list = run_times.tolist()
        for i in range(n):
            nd = node_list[i]
            fit = fitting_by_nodes.get(nd)
            if fit is None:
                fitting = [q for q in sorted_queues if q.max_nodes >= nd]
                fit = fitting_by_nodes[nd] = (
                    (fitting, nd) if fitting else ([widest], min(nd, widest.max_nodes))
                )
            fitting, node_list[i] = fit
            key = (nd, bisect_left(limits, rt_list[i]))
            admitting = admitting_by_class.get(key)
            if admitting is None:
                admitting = admitting_by_class[key] = [
                    q for q in fitting if q.max_run_time >= rt_list[i]
                ]
            # Prefer the tightest time class that admits the job; users
            # occasionally pick a looser queue than needed.
            if admitting:
                q = admitting[0]
                if len(admitting) > 1 and rng_max.uniform() < 0.2:
                    q = admitting[int(rng_max.integers(1, len(admitting)))]
            else:
                q = max(fitting, key=lambda qq: qq.max_run_time)
                rt_list[i] = min(rt_list[i], q.max_run_time)
            queue_names[i] = q.name
        nodes = np.array(node_list)
        run_times = np.array(rt_list)

    # --- user-supplied maximum run times --------------------------------
    max_rts: list[float | None] = [None] * n
    if spec.has_max_run_time:
        lo, hi = spec.max_overestimate_range
        # Each job draws a uniform; below 0.25 its user is lazy and
        # requests the machine limit, else the next draw is the log of a
        # careful user's overestimate factor.  The first pass finds which
        # draws are factors; the second replays the stream to make them.
        state = rng_max.bit_generator.state
        draws = rng_max.uniform(size=2 * n).tolist()
        factor_at: list[int] = []  # each job's factor draw, or -1
        pos = 0
        for _ in range(n):
            if draws[pos] < 0.25:
                factor_at.append(-1)
                pos += 1
            else:
                factor_at.append(pos + 1)
                pos += 2
        rng_max.bit_generator.state = state
        logs = rng_max.uniform(math.log(lo), math.log(hi), size=pos)
        factor_idx = np.array(factor_at)
        careful = factor_idx >= 0
        factor = np.exp(logs[factor_idx[careful]])
        m = np.full(n, spec.machine_time_limit)
        m[careful] = (
            np.ceil(run_times[careful] * factor / spec.max_round_to) * spec.max_round_to
        )
        max_rts = np.minimum(np.maximum(m, run_times), spec.machine_time_limit).tolist()

    # --- arrivals calibrated to the offered load ------------------------
    total_work = float((run_times * nodes).sum())
    span = total_work / (spec.offered_load * spec.total_nodes)
    arrivals = _diurnal_arrivals(
        n, span, spec.diurnal_amplitude, spec.weekend_factor, rng_arrive
    )

    arguments: list[str | None] = [None] * n
    if spec.has_arguments:
        # Every app has one to three argument strings.
        arg_picks = rng_seq.integers(0, [len(app.arguments) for app in job_apps])
        arguments = [app.arguments[k] for app, k in zip(job_apps, arg_picks.tolist())]

    submit_list, rt_list, node_list = arrivals.tolist(), run_times.tolist(), nodes.tolist()
    # Positional, in Job's field order: job_id, submit_time, run_time,
    # nodes, user, job_type, queue, job_class, script, executable,
    # arguments, network_adaptor, max_run_time.
    jobs = [
        Job(
            i + 1,
            submit_list[i],
            rt_list[i],
            node_list[i],
            app.user if spec.has_user else None,
            job_types[i],
            queue_names[i],
            app.job_class,
            app.script,
            app.name if spec.has_executable else None,
            arguments[i],
            app.network_adaptor,
            max_rts[i],
        )
        for i, app in enumerate(job_apps)
    ]
    return Trace(
        jobs,
        total_nodes=spec.total_nodes,
        name=spec.name,
        base_name=spec.name,
        scale=1.0,
    )
