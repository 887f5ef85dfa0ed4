"""The paper's published numbers, transcribed for side-by-side reporting.

Every benchmark prints its measured rows next to these reference rows so
a reader can check the *shape* correspondence (who wins, by what rough
factor) without digging out the PDF.  Keys are (workload, algorithm).
:func:`paper_table` is the one row builder behind every printed paper
table: each measured cell's own ``as_row()`` beside the published
columns.

Units: mean errors and mean waits in minutes; percentages as integers as
printed in the paper; utilization in percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.experiment import RuntimePredictionCell, SchedulingCell, WaitTimeCell
from repro.workloads.stats import TraceSummary

__all__ = [
    "WaitTimeRef",
    "SchedulingRef",
    "TABLE4_ACTUAL",
    "TABLE5_MAX",
    "TABLE6_SMITH",
    "TABLE7_GIBBONS",
    "TABLE8_DOWNEY_AVG",
    "TABLE9_DOWNEY_MED",
    "TABLE10_ACTUAL",
    "TABLE11_MAX",
    "TABLE12_SMITH",
    "TABLE13_GIBBONS",
    "TABLE14_DOWNEY_AVG",
    "TABLE15_DOWNEY_MED",
    "WAIT_TIME_TABLES",
    "SCHEDULING_TABLES",
    "TABLE1_WORKLOADS",
    "paper_table",
]


@dataclass(frozen=True)
class WaitTimeRef:
    """One row of Tables 4-9: wait-time prediction accuracy."""

    mean_error_minutes: float
    percent_of_mean_wait: int

    def as_row(self) -> dict[str, object]:
        return {
            "Paper Mean Error (minutes)": self.mean_error_minutes,
            "Paper Percentage": self.percent_of_mean_wait,
        }


@dataclass(frozen=True)
class SchedulingRef:
    """One row of Tables 10-15: scheduling performance."""

    utilization_percent: float
    mean_wait_minutes: float

    def as_row(self) -> dict[str, object]:
        return {
            "Paper Utilization (percent)": self.utilization_percent,
            "Paper Mean Wait Time (minutes)": self.mean_wait_minutes,
        }


#: Table 1 — (nodes, requests, mean run time in minutes).
TABLE1_WORKLOADS: dict[str, tuple[int, int, float]] = {
    "ANL": (80, 7994, 97.75),
    "CTC": (512, 13217, 171.14),
    "SDSC95": (400, 22885, 108.21),
    "SDSC96": (400, 22337, 166.98),
}

# ---------------------------------------------------------------------
# Tables 4-9: wait-time prediction performance
# ---------------------------------------------------------------------
TABLE4_ACTUAL: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "LWF"): WaitTimeRef(37.14, 43),
    ("ANL", "Backfill"): WaitTimeRef(5.84, 3),
    ("CTC", "LWF"): WaitTimeRef(4.05, 39),
    ("CTC", "Backfill"): WaitTimeRef(2.62, 10),
    ("SDSC95", "LWF"): WaitTimeRef(5.83, 39),
    ("SDSC95", "Backfill"): WaitTimeRef(1.12, 4),
    ("SDSC96", "LWF"): WaitTimeRef(3.32, 42),
    ("SDSC96", "Backfill"): WaitTimeRef(0.30, 3),
}

TABLE5_MAX: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "FCFS"): WaitTimeRef(996.67, 186),
    ("ANL", "LWF"): WaitTimeRef(97.12, 112),
    ("ANL", "Backfill"): WaitTimeRef(429.05, 242),
    ("CTC", "FCFS"): WaitTimeRef(125.36, 128),
    ("CTC", "LWF"): WaitTimeRef(9.86, 94),
    ("CTC", "Backfill"): WaitTimeRef(51.16, 190),
    ("SDSC95", "FCFS"): WaitTimeRef(162.72, 295),
    ("SDSC95", "LWF"): WaitTimeRef(28.56, 191),
    ("SDSC95", "Backfill"): WaitTimeRef(93.81, 333),
    ("SDSC96", "FCFS"): WaitTimeRef(47.83, 288),
    ("SDSC96", "LWF"): WaitTimeRef(14.19, 180),
    ("SDSC96", "Backfill"): WaitTimeRef(39.66, 350),
}

TABLE6_SMITH: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "FCFS"): WaitTimeRef(161.49, 30),
    ("ANL", "LWF"): WaitTimeRef(44.75, 51),
    ("ANL", "Backfill"): WaitTimeRef(75.55, 43),
    ("CTC", "FCFS"): WaitTimeRef(30.84, 31),
    ("CTC", "LWF"): WaitTimeRef(5.74, 55),
    ("CTC", "Backfill"): WaitTimeRef(11.37, 42),
    ("SDSC95", "FCFS"): WaitTimeRef(20.34, 37),
    ("SDSC95", "LWF"): WaitTimeRef(8.72, 58),
    ("SDSC95", "Backfill"): WaitTimeRef(12.49, 44),
    ("SDSC96", "FCFS"): WaitTimeRef(9.74, 59),
    ("SDSC96", "LWF"): WaitTimeRef(4.66, 59),
    ("SDSC96", "Backfill"): WaitTimeRef(5.03, 44),
}

TABLE7_GIBBONS: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "FCFS"): WaitTimeRef(350.86, 66),
    ("ANL", "LWF"): WaitTimeRef(76.23, 91),
    ("ANL", "Backfill"): WaitTimeRef(94.01, 53),
    ("CTC", "FCFS"): WaitTimeRef(81.45, 83),
    ("CTC", "LWF"): WaitTimeRef(32.34, 309),
    ("CTC", "Backfill"): WaitTimeRef(13.57, 50),
    ("SDSC95", "FCFS"): WaitTimeRef(54.37, 99),
    ("SDSC95", "LWF"): WaitTimeRef(11.60, 78),
    ("SDSC95", "Backfill"): WaitTimeRef(20.27, 72),
    ("SDSC96", "FCFS"): WaitTimeRef(22.36, 135),
    ("SDSC96", "LWF"): WaitTimeRef(6.88, 87),
    ("SDSC96", "Backfill"): WaitTimeRef(17.31, 153),
}

TABLE8_DOWNEY_AVG: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "FCFS"): WaitTimeRef(443.45, 83),
    ("ANL", "LWF"): WaitTimeRef(232.24, 277),
    ("ANL", "Backfill"): WaitTimeRef(339.10, 191),
    ("CTC", "FCFS"): WaitTimeRef(65.22, 66),
    ("CTC", "LWF"): WaitTimeRef(14.78, 141),
    ("CTC", "Backfill"): WaitTimeRef(17.22, 64),
    ("SDSC95", "FCFS"): WaitTimeRef(187.73, 340),
    ("SDSC95", "LWF"): WaitTimeRef(35.84, 240),
    ("SDSC95", "Backfill"): WaitTimeRef(62.96, 223),
    ("SDSC96", "FCFS"): WaitTimeRef(83.62, 503),
    ("SDSC96", "LWF"): WaitTimeRef(28.42, 361),
    ("SDSC96", "Backfill"): WaitTimeRef(47.11, 415),
}

TABLE9_DOWNEY_MED: dict[tuple[str, str], WaitTimeRef] = {
    ("ANL", "FCFS"): WaitTimeRef(534.71, 100),
    ("ANL", "LWF"): WaitTimeRef(254.91, 304),
    ("ANL", "Backfill"): WaitTimeRef(410.57, 232),
    ("CTC", "FCFS"): WaitTimeRef(83.33, 85),
    ("CTC", "LWF"): WaitTimeRef(15.47, 148),
    ("CTC", "Backfill"): WaitTimeRef(19.35, 72),
    ("SDSC95", "FCFS"): WaitTimeRef(62.67, 114),
    ("SDSC95", "LWF"): WaitTimeRef(18.28, 122),
    ("SDSC95", "Backfill"): WaitTimeRef(27.52, 98),
    ("SDSC96", "FCFS"): WaitTimeRef(34.23, 206),
    ("SDSC96", "LWF"): WaitTimeRef(12.65, 161),
    ("SDSC96", "Backfill"): WaitTimeRef(20.70, 183),
}

# ---------------------------------------------------------------------
# Tables 10-15: scheduling performance
# ---------------------------------------------------------------------
TABLE10_ACTUAL: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(70.34, 61.20),
    ("ANL", "Backfill"): SchedulingRef(71.04, 142.45),
    ("CTC", "LWF"): SchedulingRef(51.28, 11.15),
    ("CTC", "Backfill"): SchedulingRef(51.28, 23.75),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 14.48),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 21.98),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 6.80),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 10.42),
}

TABLE11_MAX: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(70.70, 83.81),
    ("ANL", "Backfill"): SchedulingRef(71.04, 177.14),
    ("CTC", "LWF"): SchedulingRef(51.28, 10.48),
    ("CTC", "Backfill"): SchedulingRef(51.28, 26.86),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 14.95),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 28.20),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 7.88),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 11.34),
}

TABLE12_SMITH: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(70.28, 78.22),
    ("ANL", "Backfill"): SchedulingRef(71.04, 148.77),
    ("CTC", "LWF"): SchedulingRef(51.28, 13.40),
    ("CTC", "Backfill"): SchedulingRef(51.28, 22.54),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 16.19),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 22.17),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 7.79),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 10.10),
}

TABLE13_GIBBONS: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(70.72, 90.36),
    ("ANL", "Backfill"): SchedulingRef(71.04, 181.38),
    ("CTC", "LWF"): SchedulingRef(51.28, 11.04),
    ("CTC", "Backfill"): SchedulingRef(51.28, 27.31),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 15.99),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 24.83),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 7.51),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 10.82),
}

TABLE14_DOWNEY_AVG: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(71.04, 154.76),
    ("ANL", "Backfill"): SchedulingRef(70.88, 246.40),
    ("CTC", "LWF"): SchedulingRef(51.28, 9.87),
    ("CTC", "Backfill"): SchedulingRef(51.28, 14.45),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 16.22),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 20.37),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 7.88),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 8.25),
}

TABLE15_DOWNEY_MED: dict[tuple[str, str], SchedulingRef] = {
    ("ANL", "LWF"): SchedulingRef(71.04, 154.76),
    ("ANL", "Backfill"): SchedulingRef(71.04, 207.17),
    ("CTC", "LWF"): SchedulingRef(51.28, 11.54),
    ("CTC", "Backfill"): SchedulingRef(51.28, 16.72),
    ("SDSC95", "LWF"): SchedulingRef(41.14, 16.36),
    ("SDSC95", "Backfill"): SchedulingRef(41.14, 19.56),
    ("SDSC96", "LWF"): SchedulingRef(46.79, 7.80),
    ("SDSC96", "Backfill"): SchedulingRef(46.79, 8.02),
}

#: Tables 4-9 keyed by the predictor name the registry uses.
WAIT_TIME_TABLES: dict[str, tuple[int, dict[tuple[str, str], WaitTimeRef]]] = {
    "actual": (4, TABLE4_ACTUAL),
    "max": (5, TABLE5_MAX),
    "smith": (6, TABLE6_SMITH),
    "gibbons": (7, TABLE7_GIBBONS),
    "downey-average": (8, TABLE8_DOWNEY_AVG),
    "downey-median": (9, TABLE9_DOWNEY_MED),
}

#: Tables 10-15 keyed by predictor name.
SCHEDULING_TABLES: dict[str, tuple[int, dict[tuple[str, str], SchedulingRef]]] = {
    "actual": (10, TABLE10_ACTUAL),
    "max": (11, TABLE11_MAX),
    "smith": (12, TABLE12_SMITH),
    "gibbons": (13, TABLE13_GIBBONS),
    "downey-average": (14, TABLE14_DOWNEY_AVG),
    "downey-median": (15, TABLE15_DOWNEY_MED),
}


def _table1_paper_row(summary: TraceSummary) -> dict[str, object]:
    nodes, requests, mean_rt = TABLE1_WORKLOADS[summary.name]
    return {
        "Paper Nodes": nodes,
        "Paper Requests": requests,
        "Paper Mean Run Time (minutes)": mean_rt,
    }


def paper_table(
    cells: Iterable[TraceSummary | RuntimePredictionCell | WaitTimeCell | SchedulingCell],
) -> tuple[str, list[dict[str, object]]]:
    """Title and rows of the paper table the measured ``cells`` fill.

    ``cells`` are one table's worth of one kind: Table 1 workload
    summaries, §3 run-time prediction cells, or one predictor's Tables
    4-9 wait-time or Tables 10-15 scheduling cells.  Each row is the
    cell's own ``as_row()`` followed by the paper's published columns
    (§3 has none), so every cell must be one the paper reports.
    """
    cells = list(cells)
    first = cells[0]
    if isinstance(first, TraceSummary):
        title, paper = "Table 1 — workload characteristics", _table1_paper_row
    elif isinstance(first, RuntimePredictionCell):
        title, paper = "§3 text — run-time prediction error per predictor", lambda c: {}
    else:
        wait = isinstance(first, WaitTimeCell)
        table_no, ref = (WAIT_TIME_TABLES if wait else SCHEDULING_TABLES)[first.predictor]
        kind = "wait-time prediction" if wait else "scheduling performance"
        title = f"Table {table_no} — {kind}, predictor `{first.predictor}`"

        def paper(c):
            return ref[(c.workload, c.algorithm)].as_row()

    return title, [dict(c.as_row(), **paper(c)) for c in cells]
