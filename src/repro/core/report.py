"""Markdown report generation: paper-vs-measured for every table.

:func:`generate_experiments_report` runs the full experiment grid at a
chosen scale and renders an EXPERIMENTS.md-style markdown document with
one section per paper table, each showing measured values beside the
published ones.  Every section's rows come from
:func:`repro.core.paper_reference.paper_table`, the builder the
benchmark harness prints too; ``repro-sched report`` writes the
document.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.experiment import run_runtime_prediction_experiment
from repro.core.paper_reference import WAIT_TIME_TABLES, paper_table
from repro.core.parallel import run_grid
from repro.core.registry import PREDICTOR_NAMES
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Trace
from repro.workloads.stats import summarize

__all__ = ["generate_experiments_report", "markdown_table"]

_WORKLOADS = ("ANL", "CTC", "SDSC95", "SDSC96")


def markdown_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavored markdown table."""
    head = "| " + " | ".join(str(h) for h in header) + " |"
    sep = "|" + "|".join("---" for _ in header) + "|"
    body = ["| " + " | ".join(str(c) for c in r) + " |" for r in rows]
    return "\n".join([head, sep, *body])


def _section(cells: Sequence[object], *notes: str) -> str:
    """One paper table as a markdown section (see :func:`paper_table`)."""
    title, rows = paper_table(cells)
    table = markdown_table(list(rows[0]), [list(r.values()) for r in rows])
    return "\n\n".join([f"## {title}", *notes, table])


def _grid_section(kind: str, predictor: str, traces: dict[str, Trace]) -> str:
    """Tables 4-15: one predictor's wait-time or scheduling grid."""
    # The paper reports no FCFS scheduling rows, and Table 4 omits FCFS
    # (an oracle's FCFS wait prediction has zero error).
    if kind == "scheduling" or predictor == "actual":
        algorithms = ("lwf", "backfill")
    else:
        algorithms = ("fcfs", "lwf", "backfill")
    cells = run_grid(
        kind,
        workloads=[traces[w] for w in _WORKLOADS],
        algorithms=algorithms,
        predictors=(predictor,),
    )
    return _section(cells)


def generate_experiments_report(
    n_jobs: int | None = 1000,
    *,
    progress: Callable[[str], None] | None = None,
) -> str:
    """Build the full EXPERIMENTS.md body at the given per-workload scale."""

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    traces = {w: load_paper_workload(w, n_jobs=n_jobs) for w in _WORKLOADS}
    scale = (
        f"{n_jobs} jobs per workload" if n_jobs else "full paper-scale workloads"
    )
    sections = [
        "# EXPERIMENTS — paper vs. measured",
        f"Generated by `repro-sched report` against the synthetic workload "
        f"stand-ins at **{scale}** (see DESIGN.md for the substitution "
        "rationale).  Absolute minutes differ from the paper — the traces "
        "are synthetic and smaller — but the *shapes* the paper claims are "
        "asserted programmatically by `benchmarks/` and visible in every "
        "section below.",
        _section([summarize(traces[w]) for w in _WORKLOADS]),
    ]
    note("table 1 done")
    for kind in ("wait-time", "scheduling"):
        for predictor in WAIT_TIME_TABLES:  # the paper's six, in table order
            sections.append(_grid_section(kind, predictor, traces))
            note(f"{kind} table for {predictor} done")
    sections.append(
        _section(
            [
                run_runtime_prediction_experiment(traces[w], predictor)
                for w in _WORKLOADS
                for predictor in PREDICTOR_NAMES
            ],
            "The paper quotes Smith's run-time prediction error at 33-73% of "
            "the mean run time, and 39-92% better than the alternatives.",
        )
    )
    note("run-time error grid done")
    sections.append(
        "\n".join(
            [
                "## Shape checklist (asserted by `benchmarks/`)",
                "",
                "- Table 4: FCFS built-in error = 0; backfill ≪ LWF built-in error.",
                "- Tables 5 vs 6: Smith cuts wait-prediction error vs user maxima"
                " on every workload.",
                "- Tables 6 vs 7-9: Smith ≤ Gibbons < Downey in aggregate.",
                "- Tables 10-15: utilization invariant to the predictor;"
                " LWF mean wait < backfill mean wait; accurate predictions help"
                " backfill most on the high-load (ANL) workload.",
                "- §4 compression: doubling SDSC load raises utilization and"
                " waits; Smith stays at least competitive.",
            ]
        )
    )
    return "\n\n".join(sections) + "\n"
