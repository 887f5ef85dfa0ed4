"""Shared machinery for the per-table benchmark harness.

Each ``bench_tableNN_*.py`` regenerates one table of the paper at a
reduced, laptop-friendly scale and prints the measured rows next to the
paper's published rows.  Scale is controlled by ``REPRO_BENCH_JOBS``
(jobs per workload, default 1000); the full paper sizes (Table 1) run by
setting it to 0.

Absolute numbers are not expected to match — the traces are synthetic
stand-ins — but the shape assertions in each bench (and the side-by-side
print-out) verify the paper's qualitative findings.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.experiment import (
    SchedulingCell,
    WaitTimeCell,
    run_scheduling_table,
    run_wait_time_table,
)
from repro.core.paper_reference import paper_table
from repro.core.tables import format_table
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Trace

__all__ = [
    "bench_jobs",
    "bench_parallel",
    "bench_trace",
    "bench_traces",
    "wait_time_rows",
    "scheduling_rows",
    "print_paper_table",
    "run_once",
    "emit_bench_json",
    "cell_metrics",
    "WORKLOAD_ORDER",
]

WORKLOAD_ORDER = ("ANL", "CTC", "SDSC95", "SDSC96")


def bench_jobs() -> int | None:
    """Jobs per workload for benches; ``None`` means full paper size."""
    raw = int(os.environ.get("REPRO_BENCH_JOBS", "1000"))
    return None if raw <= 0 else raw


def bench_parallel() -> int:
    """Worker processes for the table drivers (``REPRO_BENCH_PARALLEL``).

    Default 1 keeps every bench on the serial path; ``0`` means one
    worker per CPU (see :mod:`repro.core.parallel`).
    """
    raw = int(os.environ.get("REPRO_BENCH_PARALLEL", "1"))
    return (os.cpu_count() or 1) if raw <= 0 else raw


@lru_cache(maxsize=None)
def bench_trace(name: str) -> Trace:
    return load_paper_workload(name, n_jobs=bench_jobs())


def bench_traces() -> list[Trace]:
    return [bench_trace(name) for name in WORKLOAD_ORDER]


def wait_time_rows(predictor: str, algorithms: Sequence[str]) -> list[WaitTimeCell]:
    return run_wait_time_table(
        predictor,
        workloads=bench_traces(),
        algorithms=algorithms,
        max_workers=bench_parallel(),
    )


def scheduling_rows(predictor: str) -> list[SchedulingCell]:
    return run_scheduling_table(
        predictor, workloads=bench_traces(), max_workers=bench_parallel()
    )


def run_once(benchmark, fn, *args, **kwargs):
    """One timed invocation through pytest-benchmark.

    Every bench in this suite runs its workload exactly once — replays
    are deterministic and expensive, so repeat rounds only add wall
    clock.  This wraps the ``pedantic(rounds=1, iterations=1)``
    incantation and returns ``fn``'s result.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit_bench_json(
    payload: dict,
    *,
    metrics: dict | None = None,
    env_var: str = "REPRO_BENCH_JSON",
) -> None:
    """Write a bench's measurements as JSON, merged into ``$env_var``.

    When the environment variable names a file, the payload is merged
    into its existing contents (so the tests of one bench module can
    each contribute a section); otherwise the JSON goes to stdout.
    ``metrics`` attaches a registry snapshot (see ``repro.obs``) under
    the ``"metrics"`` key so perf numbers travel with the counter state
    that produced them.
    """
    payload = dict(payload, bench_jobs=bench_jobs())
    if metrics is not None:
        payload["metrics"] = metrics
    path = os.environ.get(env_var)
    if path:
        existing = {}
        if os.path.exists(path):
            with open(path) as fh:
                try:
                    existing = json.load(fh)
                except ValueError:
                    existing = {}
        existing.update(payload)
        with open(path, "w") as fh:
            json.dump(existing, fh, indent=2)
    else:
        print(json.dumps(payload))


def cell_metrics(cells: Iterable[WaitTimeCell] | Iterable[SchedulingCell]) -> dict:
    """Merge the registry snapshots attached to experiment cells."""
    from repro.obs import merge_snapshots

    return merge_snapshots(*(c.metrics for c in cells if c.metrics is not None))


def print_paper_table(cells: Iterable[object]) -> None:
    """Print one paper table's measured rows beside the published ones."""
    title, rows = paper_table(cells)
    print()
    print(format_table(rows, title=title))
