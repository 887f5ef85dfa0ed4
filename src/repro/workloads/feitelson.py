"""The Feitelson workload model — an independent synthetic generator.

The paper grounds its similarity premise in Feitelson & Nitzberg's
characterization of production parallel workloads (ref. [5]): jobs come
in **repeated runs** of the same program, node requests cluster on
**powers of two** with a harmonic-ish size distribution, and run times
are heavy-tailed with a mild positive correlation to job size.
Feitelson's 1996 model distills those observations into a generative
recipe, reimplemented here.

Having a second, independently-derived generator matters for the
reproduction: the shape claims asserted in ``benchmarks/`` should hold
on *any* workload with the observed structure, not just on
:mod:`repro.workloads.synthetic`'s particular construction.
``benchmarks/bench_robustness_feitelson.py`` re-checks the headline
shapes on this model.

Model components:

1. **Sizes** — powers of two up to the machine size carry most of the
   probability (harmonic weights ``1/rank``); with probability
   ``_OTHER_SIZE_PROB`` the size is perturbed off the power of two.
2. **Run times** — a three-stage hyper-exponential whose stage means
   scale mildly with job size (the observed size/run-time correlation).
3. **Repeated runs** — each generated "program" is submitted
   ``r ~ Zipf(_REPEAT_ALPHA)`` times (at most ``_MAX_REPEATS``),
   successive runs separated by exponential think times; reruns share
   user/executable identity and jitter log-normally (σ
   ``_RERUN_JITTER``) around the program's base run time.
4. **Arrivals** — program start times form a Poisson process spanned to
   hit a target offered load.
5. **Maxima** — each job's user maximum is its run time times a
   log-uniform factor in ``_MAX_RUN_TIME_FACTOR``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import rng_from_seed, spawn_rng
from repro.utils.timeutils import HOUR, MINUTE
from repro.workloads.job import Job, Trace

__all__ = ["feitelson_trace"]

_REPEAT_ALPHA = 2.5
_MAX_REPEATS = 30
_OTHER_SIZE_PROB = 0.2
_RERUN_JITTER = 0.20
_MAX_RUN_TIME_FACTOR = (1.5, 6.0)


def _harmonic_size(rng: np.random.Generator, total_nodes: int) -> int:
    max_exp = int(math.floor(math.log2(total_nodes)))
    ranks = np.arange(1, max_exp + 2, dtype=float)
    w = 1.0 / ranks
    w /= w.sum()
    exp = int(rng.choice(max_exp + 1, p=w))
    size = 2**exp
    if size >= 4 and rng.uniform() < _OTHER_SIZE_PROB:
        # Perturb off the power of two, as real workloads do.
        size = int(rng.integers(size // 2 + 1, size))
    return max(1, min(size, total_nodes))


def _hyperexponential_runtime(
    rng: np.random.Generator, size: int, mean_scale: float
) -> float:
    # Three stages: short debug runs, medium production runs, long runs.
    stage_probs = (0.45, 0.40, 0.15)
    stage_means = (4 * MINUTE, 40 * MINUTE, 4 * HOUR)
    stage = int(rng.choice(3, p=stage_probs))
    # Mild positive size correlation: mean grows ~ size^0.25.
    mean = stage_means[stage] * mean_scale * (size**0.25)
    return float(rng.exponential(mean))


def feitelson_trace(
    *,
    n_jobs: int,
    total_nodes: int,
    offered_load: float = 0.6,
    seed: int | np.random.Generator = 0,
) -> Trace:
    """Generate a Feitelson-model trace of ``n_jobs`` jobs.

    Deterministic in ``seed``.  ``offered_load`` spans the Poisson
    program arrivals so work / (capacity × span) hits the target.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if not 0 < offered_load < 1.5:
        raise ValueError(f"offered_load out of range: {offered_load}")
    rng = rng_from_seed(seed)
    rng_prog, rng_size, rng_rt, rng_rep, rng_arr = spawn_rng(rng, count=5)

    # --- programs with repeated runs -----------------------------------
    runs: list[tuple[int, str, str, int, float]] = []  # (prog, user, app, size, rt)
    prog = 0
    while len(runs) < n_jobs:
        user = f"user{int(rng_prog.integers(0, max(n_jobs // 40, 8))):03d}"
        app = f"{user}_prog{prog}"
        size = _harmonic_size(rng_size, total_nodes)
        base_rt = _hyperexponential_runtime(rng_rt, size, 1.0)
        repeats = min(int(rng_rep.zipf(_REPEAT_ALPHA)), _MAX_REPEATS)
        for _ in range(repeats):
            rt = base_rt * float(
                np.exp(rng_rt.normal(0.0, _RERUN_JITTER))
            )
            runs.append((prog, user, app, size, max(rt, 15.0)))
            if len(runs) >= n_jobs:
                break
        prog += 1

    # --- arrivals --------------------------------------------------------
    total_work = sum(size * rt for _, _, _, size, rt in runs)
    span = total_work / (offered_load * total_nodes)
    # Program start times Poisson over the span; reruns follow the
    # previous run's submission by an exponential think time.
    by_prog: dict[int, list[int]] = {}
    for idx, (p, *_rest) in enumerate(runs):
        by_prog.setdefault(p, []).append(idx)
    submit = np.zeros(len(runs))
    n_programs = len(by_prog)
    prog_starts = np.sort(rng_arr.uniform(0.0, span, size=n_programs))
    for starts, (p, idxs) in zip(prog_starts, sorted(by_prog.items())):
        t = float(starts)
        for idx in idxs:
            submit[idx] = t
            _, _, _, _, rt = runs[idx]
            t += rt + float(rng_arr.exponential(rt * 0.5 + 5 * MINUTE))

    lo, hi = _MAX_RUN_TIME_FACTOR
    jobs = []
    for i, (p, user, app, size, rt) in enumerate(runs):
        factor = float(np.exp(rng_rep.uniform(math.log(lo), math.log(hi))))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=float(submit[i]),
                run_time=rt,
                nodes=size,
                user=user,
                executable=app,
                max_run_time=max(rt * factor, rt),
            )
        )
    trace = Trace(jobs, total_nodes=total_nodes, name="feitelson")
    trace.available_fields = frozenset({"u", "e", "n"})
    return trace
