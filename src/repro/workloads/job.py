"""Job records and trace containers.

A :class:`Job` carries everything the paper's Table 2 lists for any of the
four traces: identity characteristics (type, queue, class, user, script,
executable, arguments, network adaptor), the requested number of nodes,
the user-supplied maximum run time, and the ground-truth submit/run times
from the trace.  Characteristics that a particular trace does not record
are simply ``None`` — the predictors only template over fields the
workload declares available (see :mod:`repro.workloads.fields`).

Times are floats in **seconds** from the trace epoch; run times are
durations in seconds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

__all__ = ["Job", "Trace", "split_scaled_name"]

#: Scale suffixes produced by :func:`repro.workloads.transform.
#: compress_interarrival` — "SDSC95x2", "CTCx1.5".  The suffix must be a
#: plain decimal number; anything else is part of the base name.
_SCALE_SUFFIX = re.compile(r"^\d+(\.\d+)?$")


def split_scaled_name(name: str) -> tuple[str, float]:
    """Split a possibly scale-suffixed trace name into (base, factor).

    ``"SDSC95x2"`` → ``("SDSC95", 2.0)``; a name whose last ``"x"`` is
    not followed by a plain decimal number — ``"xenon"``, ``"proxy"``,
    ``"matrix"`` — is returned unchanged with factor 1.0.  Prefer the
    explicit :attr:`Trace.base_name` / :attr:`Trace.scale` attributes;
    this parser is only the fallback for hand-assembled names.
    """
    base, sep, suffix = name.rpartition("x")
    if sep and base and _SCALE_SUFFIX.match(suffix):
        return base, float(suffix)
    return name, 1.0


@dataclass(frozen=True)
class Job:
    """One request to run an application on the machine."""

    job_id: int
    submit_time: float
    run_time: float
    nodes: int
    user: str | None = None
    job_type: str | None = None
    queue: str | None = None
    job_class: str | None = None
    script: str | None = None
    executable: str | None = None
    arguments: str | None = None
    network_adaptor: str | None = None
    max_run_time: float | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"job {self.job_id}: nodes must be >= 1, got {self.nodes}")
        # Chained comparisons reject NaN and inf without a function call.
        if not 0.0 <= self.run_time < math.inf:
            raise ValueError(
                f"job {self.job_id}: run_time must be finite and >= 0, "
                f"got {self.run_time}"
            )
        if not 0.0 <= self.submit_time < math.inf:
            raise ValueError(
                f"job {self.job_id}: submit_time must be finite and >= 0, "
                f"got {self.submit_time}"
            )
        if self.max_run_time is not None and not 0.0 < self.max_run_time < math.inf:
            raise ValueError(
                f"job {self.job_id}: max_run_time must be finite and > 0, "
                f"got {self.max_run_time}"
            )

    @property
    def work(self) -> float:
        """Node-seconds actually consumed (nodes × run time)."""
        return self.nodes * self.run_time

    def with_(self, **changes) -> "Job":
        """Return a copy with the given fields replaced.

        Validated as the constructor validates; an unknown field name
        raises :class:`TypeError`.  The copy reads every field in one
        ``attrgetter`` call and builds the job positionally, about 60% of
        the cost of ``dataclasses.replace``.  It never reads
        ``__dict__``: that would give both jobs a dict object of their
        own, 64 more bytes each and slower attribute reads.
        """
        values = _field_values(self)
        if changes:
            values = list(values)
            for name, value in changes.items():
                index = _FIELD_INDEX.get(name)
                if index is None:
                    raise TypeError(f"Job has no field named {name!r}")
                values[index] = value
        return Job(*values)


_FIELD_INDEX = {f.name: i for i, f in enumerate(fields(Job))}
_field_values = attrgetter(*_FIELD_INDEX)
_submit_order = attrgetter("submit_time", "job_id")


class Trace:
    """An ordered collection of jobs plus workload metadata.

    Jobs are kept sorted by ``(submit_time, job_id)``; the constructor
    sorts defensively so generators and parsers need not.
    ``total_nodes`` is the size of the machine the trace was recorded on
    (after any correction — the paper shrinks ANL from 120 to 80 nodes to
    compensate for the missing third of its trace).

    ``base_name``/``scale`` identify the underlying workload when the
    trace is a transformed variant ("SDSC95x2" → base "SDSC95", scale 2):
    generators and :func:`repro.workloads.transform.compress_interarrival`
    stamp them explicitly, and lookups keyed by workload (tuned template
    sets, paper references) should use ``base_name`` rather than parsing
    the display name.  When not given they are derived from ``name`` via
    :func:`split_scaled_name`.  ``provenance``, when set by
    :func:`repro.workloads.archive.load_paper_workload`, records the
    ``(workload, n_jobs, seed, compress)`` recipe that regenerates the
    trace bit-for-bit — content-changing transforms drop it.
    """

    def __init__(
        self,
        jobs: Iterable[Job],
        *,
        total_nodes: int,
        name: str = "trace",
        available_fields: frozenset[str] | None = None,
        base_name: str | None = None,
        scale: float | None = None,
    ) -> None:
        if total_nodes < 1:
            raise ValueError(f"total_nodes must be >= 1, got {total_nodes}")
        self._jobs: list[Job] = sorted(jobs, key=_submit_order)
        seen: set[int] = set()
        for j in self._jobs:
            if j.job_id in seen:
                raise ValueError(f"duplicate job_id {j.job_id} in trace")
            seen.add(j.job_id)
            if j.nodes > total_nodes:
                raise ValueError(
                    f"job {j.job_id} requests {j.nodes} nodes on a "
                    f"{total_nodes}-node machine"
                )
        self.total_nodes = total_nodes
        self.name = name
        self.available_fields = available_fields
        if base_name is None or scale is None:
            parsed_base, parsed_scale = split_scaled_name(name)
            base_name = base_name if base_name is not None else parsed_base
            scale = scale if scale is not None else parsed_scale
        self.base_name = base_name
        self.scale = scale
        self.provenance: dict | None = None

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, idx: int) -> Job:
        return self._jobs[idx]

    @property
    def jobs(self) -> Sequence[Job]:
        return tuple(self._jobs)

    @property
    def span(self) -> float:
        """Time from first submission to last completion if run unqueued.

        A lower bound on the makespan of any non-clairvoyant schedule;
        used by :func:`repro.workloads.stats.offered_load`.
        """
        if not self._jobs:
            return 0.0
        first = self._jobs[0].submit_time
        last = max(j.submit_time + j.run_time for j in self._jobs)
        return last - first

    def map(self, fn: Callable[[Job], Job], *, name: str | None = None) -> "Trace":
        """Return a new trace with ``fn`` applied to every job."""
        return Trace(
            (fn(j) for j in self._jobs),
            total_nodes=self.total_nodes,
            name=name or self.name,
            available_fields=self.available_fields,
            base_name=self.base_name if name is None else None,
            scale=self.scale if name is None else None,
        )

    def filter(self, pred: Callable[[Job], bool], *, name: str | None = None) -> "Trace":
        """Return a new trace keeping only jobs for which ``pred`` is true."""
        return Trace(
            (j for j in self._jobs if pred(j)),
            total_nodes=self.total_nodes,
            name=name or self.name,
            available_fields=self.available_fields,
            base_name=self.base_name if name is None else None,
            scale=self.scale if name is None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, jobs={len(self._jobs)}, "
            f"total_nodes={self.total_nodes})"
        )
