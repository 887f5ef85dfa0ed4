"""Similarity templates.

A *template* (paper §2.1) names the job characteristics that make two
jobs "similar": a subset of the categorical characteristics of Table 2,
optionally the number of nodes discretized into ranges of a given size,
and bookkeeping attributes — maximum history per category, whether the
stored datum is the absolute run time or the ratio to the user's maximum
(relative), and which estimator turns a category's points into a
prediction (mean or one of three regressions).

Applying a template to a job yields the job's *category key* under that
template; jobs sharing a key are similar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.fields import CHARACTERISTICS, TEMPLATE_CHARACTERISTICS
from repro.workloads.job import Job

__all__ = ["Template", "ESTIMATOR_KINDS", "default_templates"]

#: Estimator kinds a template may request (paper §2.1: the mean plus
#: linear / inverse / logarithmic regressions on the node count).
ESTIMATOR_KINDS = ("mean", "linear", "inverse", "log")


@dataclass(frozen=True)
class Template:
    """One similarity template."""

    characteristics: tuple[str, ...] = ()
    node_range_size: int | None = None
    max_history: int | None = None
    relative: bool = False
    estimator: str = "mean"

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for c in self.characteristics:
            if c not in TEMPLATE_CHARACTERISTICS:
                raise ValueError(
                    f"unknown template characteristic {c!r}; "
                    f"expected one of {TEMPLATE_CHARACTERISTICS}"
                )
            if c in seen:
                raise ValueError(f"duplicate characteristic {c!r} in template")
            seen.add(c)
        if self.node_range_size is not None and self.node_range_size < 1:
            raise ValueError(f"node_range_size must be >= 1, got {self.node_range_size}")
        if self.max_history is not None and self.max_history < 1:
            raise ValueError(f"max_history must be >= 1, got {self.max_history}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_KINDS}"
            )

    @property
    def uses_nodes(self) -> bool:
        return self.node_range_size is not None

    def node_bin(self, nodes: int) -> int:
        """Range index of a node count: size 4 puts 1-4 in bin 0, 5-8 in 1."""
        if self.node_range_size is None:
            raise ValueError("template does not partition on nodes")
        return (nodes - 1) // self.node_range_size

    def category_key(self, job: Job) -> tuple | None:
        """The job's category under this template.

        Returns ``None`` when the job lacks a value for one of the
        template's characteristics (that trace does not record it), or —
        for relative templates — lacks a maximum run time, so the ratio
        datum cannot be formed.
        """
        if self.relative and job.max_run_time is None:
            return None
        key: list[object] = []
        for c in self.characteristics:
            value = CHARACTERISTICS[c].getter(job)
            if value is None:
                return None
            key.append(value)
        if self.node_range_size is not None:
            key.append(self.node_bin(job.nodes))
        return tuple(key)

    def describe(self) -> str:
        """Compact paper-style rendering, e.g. ``(u, e, n=4)``."""
        parts = list(self.characteristics)
        if self.node_range_size is not None:
            parts.append(f"n={self.node_range_size}")
        body = ", ".join(parts)
        suffix = []
        if self.relative:
            suffix.append("rel")
        if self.estimator != "mean":
            suffix.append(self.estimator)
        if self.max_history is not None:
            suffix.append(f"hist={self.max_history}")
        tail = f" [{', '.join(suffix)}]" if suffix else ""
        return f"({body}){tail}"


def default_templates(
    available: frozenset[str] | set[str] | None,
    *,
    has_max_run_time: bool = False,
) -> list[Template]:
    """A curated template set for a workload recording ``available`` fields.

    This stands in for the paper's offline genetic searches when a quick,
    reasonable template set is wanted: the global mean, each single
    characteristic, informative pairs, node-ranged refinements, and (when
    the trace has user maxima) relative-run-time variants — the
    ingredients the paper reports its searches discovering.  Node ranges
    are 4 nodes wide.
    """
    avail = set(available) if available is not None else set(TEMPLATE_CHARACTERISTICS)
    avail &= set(TEMPLATE_CHARACTERISTICS)
    templates: list[Template] = [Template()]
    singles = [c for c in ("u", "e", "s", "q", "c", "t") if c in avail]
    for c in singles:
        templates.append(Template(characteristics=(c,)))
    pair_candidates = [("u", "e"), ("u", "s"), ("q", "u"), ("u", "a"), ("t", "u")]
    pairs = [p for p in pair_candidates if set(p) <= avail]
    for p in pairs:
        templates.append(Template(characteristics=p))
    # Node-ranged refinements of the most specific identities available.
    for chars in ([("u",)] + [list(p) for p in pairs[:2]]):
        if set(chars) <= avail:
            templates.append(
                Template(characteristics=tuple(chars), node_range_size=4)
            )
    if has_max_run_time:
        for chars in [("u",)] + [list(p) for p in pairs[:1]]:
            if set(chars) <= avail:
                templates.append(Template(characteristics=tuple(chars), relative=True))
    # Deduplicate while preserving order.
    seen: set[Template] = set()
    out: list[Template] = []
    for t in templates:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out
