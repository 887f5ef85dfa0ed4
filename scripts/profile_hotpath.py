#!/usr/bin/env python
"""Profile one replay of a paper workload through the simulator hot path.

Replays ``--workload`` under ``--policy`` with the scheduler running on
user maxima (``max`` estimator, the paper's §3 configuration), reports
throughput counters from the engine itself (events processed, scheduling
passes) and, with ``--profile``, the cProfile top functions by
cumulative time.  ``--engine reference`` profiles the pre-overhaul
:class:`ReferenceSimulator` instead, which is how the before/after
numbers in the hot-path PR were produced.

Examples::

    PYTHONPATH=src python scripts/profile_hotpath.py --workload ANL --policy backfill --jobs 3000 --profile
    PYTHONPATH=src python scripts/profile_hotpath.py --workload CTC --policy lwf --jobs 0 --json
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time

from repro.core.registry import make_policy, make_predictor
from repro.obs import Instrumentation, format_histogram
from repro.predictors.base import PointEstimator
from repro.scheduler.reference import (
    ReferenceBackfillPolicy,
    ReferenceFCFSPolicy,
    ReferenceLWFPolicy,
    ReferenceSimulator,
)
from repro.scheduler.simulator import Simulator
from repro.workloads.archive import PAPER_WORKLOADS, load_paper_workload

REFERENCE_POLICIES = {
    "fcfs": ReferenceFCFSPolicy,
    "lwf": ReferenceLWFPolicy,
    "backfill": ReferenceBackfillPolicy,
}


def build(args):
    trace = load_paper_workload(
        args.workload, n_jobs=None if args.jobs <= 0 else args.jobs
    )
    estimator = PointEstimator(make_predictor(args.predictor, trace))
    if args.engine == "reference":
        policy = REFERENCE_POLICIES[args.policy]()
        sim = ReferenceSimulator(policy, estimator, trace.total_nodes)
    else:
        policy = make_policy(args.policy)
        # detail mode: per-pass wall timing into the pass-duration
        # histogram plus estimate-cache hit counting — this script exists
        # to look inside the hot path, so pay for the extra visibility.
        sim = Simulator(
            policy,
            estimator,
            trace.total_nodes,
            instrumentation=Instrumentation(detail=True),
        )
    return trace, sim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ANL", choices=sorted(PAPER_WORKLOADS))
    parser.add_argument(
        "--policy", default="backfill", choices=("fcfs", "lwf", "backfill", "easy")
    )
    parser.add_argument(
        "--predictor",
        default="max",
        help="scheduler estimator (registry name; default: max, per paper §3)",
    )
    parser.add_argument(
        "--engine",
        default="optimized",
        choices=("optimized", "reference"),
        help="reference = pre-overhaul engine (no EASY support)",
    )
    parser.add_argument(
        "--jobs", type=int, default=3000, help="jobs to replay (0 = full trace)"
    )
    parser.add_argument(
        "--profile", action="store_true", help="print cProfile top functions"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="profile rows to print (with --profile)"
    )
    parser.add_argument(
        "--json", action="store_true", help="print measurements as one JSON object"
    )
    args = parser.parse_args(argv)
    if args.engine == "reference" and args.policy == "easy":
        parser.error("the reference engine has no EASY policy")

    trace, sim = build(args)

    profiler = cProfile.Profile() if args.profile else None
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = sim.run(trace)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - t0

    snapshot = sim.metrics_snapshot()
    events = snapshot["counters"]["sim.events_processed"]
    passes = snapshot["counters"]["sim.schedule_passes"]
    stats = {
        "workload": args.workload,
        "policy": args.policy,
        "engine": args.engine,
        "predictor": args.predictor,
        "jobs": len(result.records),
        "total_nodes": trace.total_nodes,
        "wall_s": wall,
        "events_processed": events,
        "events_per_s": events / wall if wall > 0 else float("inf"),
        "schedule_passes": passes,
        "pass_cost_us": wall / max(passes, 1) * 1e6,
        "utilization_percent": result.utilization_percent,
        "mean_wait_min": result.mean_wait_minutes,
        "metrics": snapshot,
    }

    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"{stats['workload']} / {stats['policy']} / {stats['engine']} engine: "
            f"{stats['jobs']} jobs on {stats['total_nodes']} nodes"
        )
        print(
            f"  wall {wall:.3f}s | {stats['events_per_s']:.0f} events/s | "
            f"{stats['schedule_passes']} passes | {stats['pass_cost_us']:.1f} us/pass"
        )
        print(
            f"  utilization {stats['utilization_percent']:.1f}% | "
            f"mean wait {stats['mean_wait_min']:.1f} min"
        )
        pass_hist = snapshot["histograms"].get("sim.pass_duration_seconds")
        if pass_hist is not None and pass_hist["count"] > 0:
            print()
            print(
                format_histogram(
                    pass_hist, title="scheduling-pass wall duration (s)"
                )
            )

    if profiler is not None:
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(
            args.top
        )
        print(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
