"""Trace transformations.

The paper's Section 4 experiment compresses the interarrival times of the
two SDSC workloads by a factor of two to raise the offered load and test
whether the Smith predictor's advantage grows when scheduling becomes
"hard".  :func:`compress_interarrival` implements that transformation;
:func:`head` and :func:`filter_jobs` are the obvious companions used by
tests and scaled-down benchmark runs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.workloads.job import Job, Trace

__all__ = ["compress_interarrival", "head", "filter_jobs", "shift", "merge"]


def compress_interarrival(trace: Trace, factor: float, *, name: str | None = None) -> Trace:
    """Divide all interarrival gaps by ``factor`` (>1 raises offered load).

    Submission times are rescaled about the first submission:
    ``t' = t0 + (t - t0) / factor``.  Run times and node counts are
    untouched, so total work is preserved while the submission span
    shrinks by ``factor``.
    """
    if not 0.0 < factor < math.inf:
        raise ValueError(f"factor must be positive and finite, got {factor}")
    if len(trace) == 0:
        return trace
    t0 = trace[0].submit_time
    out = trace.map(
        lambda j: j.with_(submit_time=t0 + (j.submit_time - t0) / factor),
        name=name or f"{trace.name}x{factor:g}",
    )
    # The variant keeps the source's workload identity: lookups keyed by
    # workload (tuned templates, paper references) must not parse the
    # display name, which may itself contain an "x".
    out.base_name = trace.base_name
    out.scale = trace.scale * factor
    if trace.provenance is not None:
        out.provenance = dict(
            trace.provenance,
            compress=trace.provenance.get("compress", 1.0) * factor,
        )
    return out


def head(trace: Trace, n: int, *, name: str | None = None) -> Trace:
    """The first ``n`` jobs of the trace (by submission order)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Trace(
        list(trace)[:n],
        total_nodes=trace.total_nodes,
        name=name or trace.name,
        available_fields=trace.available_fields,
    )


def filter_jobs(
    trace: Trace, pred: Callable[[Job], bool], *, name: str | None = None
) -> Trace:
    """Keep only jobs satisfying ``pred``."""
    return trace.filter(pred, name=name)


def shift(trace: Trace, offset: float, *, name: str | None = None) -> Trace:
    """Shift all submission times by ``offset`` seconds (>= 0 result)."""
    if len(trace) and trace[0].submit_time + offset < 0:
        raise ValueError(
            f"offset {offset} would make the first submission negative"
        )
    return trace.map(
        lambda j: j.with_(submit_time=j.submit_time + offset),
        name=name or trace.name,
    )


def merge(
    traces: Sequence[Trace],
    *,
    total_nodes: int | None = None,
    name: str = "merged",
) -> Trace:
    """Interleave several traces into one arrival stream.

    Job ids are renumbered (per-trace offsets) to stay unique; user and
    application identities are prefixed with the source trace's name so
    similarity never leaks across sources.  ``total_nodes`` defaults to
    the maximum of the inputs (the merged stream is usually fed to a
    broker, not a single machine).
    """
    if not traces:
        raise ValueError("merge requires at least one trace")
    machine = total_nodes if total_nodes is not None else max(
        t.total_nodes for t in traces
    )
    jobs: list[Job] = []
    offset = 0
    for t in traces:
        prefix = t.name
        max_id = 0
        for j in t:
            max_id = max(max_id, j.job_id)
            jobs.append(
                j.with_(
                    job_id=j.job_id + offset,
                    user=f"{prefix}:{j.user}" if j.user is not None else None,
                    executable=(
                        f"{prefix}:{j.executable}"
                        if j.executable is not None
                        else None
                    ),
                )
            )
        offset += max_id
    return Trace(jobs, total_nodes=machine, name=name)
