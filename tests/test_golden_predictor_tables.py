"""Golden pins for every printed Tables 4-15 cell at test scale.

``test_golden_tables.py`` pins only the run-time oracle's integer cells
of Tables 4 and 10.  This module pins what the CLI prints for every
predictor the tables compare: each cell's ``as_row()`` values, i.e.
2-decimal minutes and utilization and integer percentages.  Smith's
cells depend on the bits of the Student-t quantile (the tightest
interval picks the template, paper §2.1 step 2(d)), so a change to the
interval arithmetic, the category statistics or any predictor shows up
here even when the oracle pins hold.

Both grids run once per module through ``run_grid``, serially, at 300
jobs per workload and the default seed.  A change that moves a cell
re-pins it here and lists each before -> after value in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.core.parallel import grid_cells, run_grid
from repro.workloads.archive import PAPER_WORKLOADS

N_JOBS = 300
ALGORITHMS = ("fcfs", "lwf", "backfill")
PREDICTORS = ("actual", "max", "smith", "gibbons", "downey-average", "downey-median")

#: (workload, algorithm, predictor) -> (mean error minutes, integer
#: percent of mean wait), as printed for Tables 4-9.
WAIT_TIME_ROWS = {
    ('ANL', 'fcfs', 'actual'): (0.0, 0),
    ('ANL', 'fcfs', 'max'): (509.89, 356),
    ('ANL', 'fcfs', 'smith'): (52.08, 36),
    ('ANL', 'fcfs', 'gibbons'): (54.55, 38),
    ('ANL', 'fcfs', 'downey-average'): (68.6, 48),
    ('ANL', 'fcfs', 'downey-median'): (97.55, 68),
    ('ANL', 'lwf', 'actual'): (20.79, 67),
    ('ANL', 'lwf', 'max'): (34.53, 110),
    ('ANL', 'lwf', 'smith'): (25.91, 83),
    ('ANL', 'lwf', 'gibbons'): (29.04, 93),
    ('ANL', 'lwf', 'downey-average'): (28.34, 91),
    ('ANL', 'lwf', 'downey-median'): (28.95, 93),
    ('ANL', 'backfill', 'actual'): (4.21, 7),
    ('ANL', 'backfill', 'max'): (281.24, 483),
    ('ANL', 'backfill', 'smith'): (32.99, 57),
    ('ANL', 'backfill', 'gibbons'): (33.68, 58),
    ('ANL', 'backfill', 'downey-average'): (32.49, 56),
    ('ANL', 'backfill', 'downey-median'): (40.76, 70),
    ('CTC', 'fcfs', 'actual'): (0.0, 0),
    ('CTC', 'fcfs', 'max'): (776.63, 222),
    ('CTC', 'fcfs', 'smith'): (71.63, 20),
    ('CTC', 'fcfs', 'gibbons'): (268.39, 77),
    ('CTC', 'fcfs', 'downey-average'): (111.83, 32),
    ('CTC', 'fcfs', 'downey-median'): (250.37, 72),
    ('CTC', 'lwf', 'actual'): (14.51, 60),
    ('CTC', 'lwf', 'max'): (25.61, 105),
    ('CTC', 'lwf', 'smith'): (18.89, 78),
    ('CTC', 'lwf', 'gibbons'): (15.79, 65),
    ('CTC', 'lwf', 'downey-average'): (21.25, 87),
    ('CTC', 'lwf', 'downey-median'): (21.83, 90),
    ('CTC', 'backfill', 'actual'): (3.2, 2),
    ('CTC', 'backfill', 'max'): (178.36, 121),
    ('CTC', 'backfill', 'smith'): (57.76, 39),
    ('CTC', 'backfill', 'gibbons'): (77.68, 53),
    ('CTC', 'backfill', 'downey-average'): (86.78, 59),
    ('CTC', 'backfill', 'downey-median'): (113.31, 77),
    ('SDSC95', 'fcfs', 'actual'): (0.0, 0),
    ('SDSC95', 'fcfs', 'max'): (25.41, 99),
    ('SDSC95', 'fcfs', 'smith'): (11.37, 44),
    ('SDSC95', 'fcfs', 'gibbons'): (24.3, 95),
    ('SDSC95', 'fcfs', 'downey-average'): (24.03, 94),
    ('SDSC95', 'fcfs', 'downey-median'): (24.19, 94),
    ('SDSC95', 'lwf', 'actual'): (1.03, 34),
    ('SDSC95', 'lwf', 'max'): (2.75, 90),
    ('SDSC95', 'lwf', 'smith'): (2.21, 73),
    ('SDSC95', 'lwf', 'gibbons'): (2.96, 98),
    ('SDSC95', 'lwf', 'downey-average'): (3.04, 100),
    ('SDSC95', 'lwf', 'downey-median'): (3.04, 100),
    ('SDSC95', 'backfill', 'actual'): (0.35, 5),
    ('SDSC95', 'backfill', 'max'): (5.52, 83),
    ('SDSC95', 'backfill', 'smith'): (3.88, 58),
    ('SDSC95', 'backfill', 'gibbons'): (6.51, 98),
    ('SDSC95', 'backfill', 'downey-average'): (6.51, 98),
    ('SDSC95', 'backfill', 'downey-median'): (6.53, 98),
    ('SDSC96', 'fcfs', 'actual'): (0.0, 0),
    ('SDSC96', 'fcfs', 'max'): (105.71, 46),
    ('SDSC96', 'fcfs', 'smith'): (95.61, 42),
    ('SDSC96', 'fcfs', 'gibbons'): (83.37, 36),
    ('SDSC96', 'fcfs', 'downey-average'): (97.89, 43),
    ('SDSC96', 'fcfs', 'downey-median'): (65.99, 29),
    ('SDSC96', 'lwf', 'actual'): (7.27, 70),
    ('SDSC96', 'lwf', 'max'): (9.18, 89),
    ('SDSC96', 'lwf', 'smith'): (9.26, 90),
    ('SDSC96', 'lwf', 'gibbons'): (9.22, 89),
    ('SDSC96', 'lwf', 'downey-average'): (7.44, 72),
    ('SDSC96', 'lwf', 'downey-median'): (8.66, 84),
    ('SDSC96', 'backfill', 'actual'): (0.31, 1),
    ('SDSC96', 'backfill', 'max'): (9.12, 17),
    ('SDSC96', 'backfill', 'smith'): (24.59, 46),
    ('SDSC96', 'backfill', 'gibbons'): (35.46, 66),
    ('SDSC96', 'backfill', 'downey-average'): (28.14, 52),
    ('SDSC96', 'backfill', 'downey-median'): (25.09, 47),
}

#: (workload, algorithm, predictor) -> (utilization percent, mean wait
#: minutes), as printed for Tables 10-15.
SCHEDULING_ROWS = {
    ('ANL', 'fcfs', 'actual'): (56.52, 143.07),
    ('ANL', 'fcfs', 'max'): (56.52, 143.07),
    ('ANL', 'fcfs', 'smith'): (56.52, 143.07),
    ('ANL', 'fcfs', 'gibbons'): (56.52, 143.07),
    ('ANL', 'fcfs', 'downey-average'): (56.52, 143.07),
    ('ANL', 'fcfs', 'downey-median'): (56.52, 143.07),
    ('ANL', 'lwf', 'actual'): (59.91, 30.16),
    ('ANL', 'lwf', 'max'): (60.12, 31.25),
    ('ANL', 'lwf', 'smith'): (60.1, 32.24),
    ('ANL', 'lwf', 'gibbons'): (59.59, 31.21),
    ('ANL', 'lwf', 'downey-average'): (60.06, 33.12),
    ('ANL', 'lwf', 'downey-median'): (60.06, 33.12),
    ('ANL', 'backfill', 'actual'): (59.01, 45.81),
    ('ANL', 'backfill', 'max'): (56.2, 58.27),
    ('ANL', 'backfill', 'smith'): (51.34, 36.98),
    ('ANL', 'backfill', 'gibbons'): (57.88, 52.74),
    ('ANL', 'backfill', 'downey-average'): (55.91, 166.75),
    ('ANL', 'backfill', 'downey-median'): (59.91, 76.16),
    ('CTC', 'fcfs', 'actual'): (30.59, 350.11),
    ('CTC', 'fcfs', 'max'): (30.59, 350.11),
    ('CTC', 'fcfs', 'smith'): (30.59, 350.11),
    ('CTC', 'fcfs', 'gibbons'): (30.59, 350.11),
    ('CTC', 'fcfs', 'downey-average'): (30.59, 350.11),
    ('CTC', 'fcfs', 'downey-median'): (30.59, 350.11),
    ('CTC', 'lwf', 'actual'): (35.89, 23.31),
    ('CTC', 'lwf', 'max'): (35.89, 24.33),
    ('CTC', 'lwf', 'smith'): (35.89, 23.75),
    ('CTC', 'lwf', 'gibbons'): (35.89, 23.71),
    ('CTC', 'lwf', 'downey-average'): (35.89, 24.19),
    ('CTC', 'lwf', 'downey-median'): (35.89, 24.19),
    ('CTC', 'backfill', 'actual'): (32.7, 33.85),
    ('CTC', 'backfill', 'max'): (29.58, 147.75),
    ('CTC', 'backfill', 'smith'): (35.89, 31.25),
    ('CTC', 'backfill', 'gibbons'): (28.36, 54.63),
    ('CTC', 'backfill', 'downey-average'): (35.89, 24.96),
    ('CTC', 'backfill', 'downey-median'): (35.89, 24.7),
    ('SDSC95', 'fcfs', 'actual'): (35.42, 25.61),
    ('SDSC95', 'fcfs', 'max'): (35.42, 25.61),
    ('SDSC95', 'fcfs', 'smith'): (35.42, 25.61),
    ('SDSC95', 'fcfs', 'gibbons'): (35.42, 25.61),
    ('SDSC95', 'fcfs', 'downey-average'): (35.42, 25.61),
    ('SDSC95', 'fcfs', 'downey-median'): (35.42, 25.61),
    ('SDSC95', 'lwf', 'actual'): (35.42, 3.22),
    ('SDSC95', 'lwf', 'max'): (35.42, 3.04),
    ('SDSC95', 'lwf', 'smith'): (35.42, 3.04),
    ('SDSC95', 'lwf', 'gibbons'): (35.42, 4.69),
    ('SDSC95', 'lwf', 'downey-average'): (35.42, 4.69),
    ('SDSC95', 'lwf', 'downey-median'): (35.42, 4.69),
    ('SDSC95', 'backfill', 'actual'): (35.42, 9.38),
    ('SDSC95', 'backfill', 'max'): (35.42, 6.67),
    ('SDSC95', 'backfill', 'smith'): (35.42, 6.0),
    ('SDSC95', 'backfill', 'gibbons'): (35.42, 5.95),
    ('SDSC95', 'backfill', 'downey-average'): (35.42, 5.96),
    ('SDSC95', 'backfill', 'downey-median'): (35.42, 5.97),
    ('SDSC96', 'fcfs', 'actual'): (41.61, 228.98),
    ('SDSC96', 'fcfs', 'max'): (41.61, 228.98),
    ('SDSC96', 'fcfs', 'smith'): (41.61, 228.98),
    ('SDSC96', 'fcfs', 'gibbons'): (41.61, 228.98),
    ('SDSC96', 'fcfs', 'downey-average'): (41.61, 228.98),
    ('SDSC96', 'fcfs', 'downey-median'): (41.61, 228.98),
    ('SDSC96', 'lwf', 'actual'): (38.37, 10.32),
    ('SDSC96', 'lwf', 'max'): (38.37, 10.33),
    ('SDSC96', 'lwf', 'smith'): (38.37, 10.33),
    ('SDSC96', 'lwf', 'gibbons'): (38.37, 10.33),
    ('SDSC96', 'lwf', 'downey-average'): (38.37, 10.33),
    ('SDSC96', 'lwf', 'downey-median'): (38.37, 10.33),
    ('SDSC96', 'backfill', 'actual'): (41.61, 34.47),
    ('SDSC96', 'backfill', 'max'): (41.61, 53.66),
    ('SDSC96', 'backfill', 'smith'): (38.37, 16.57),
    ('SDSC96', 'backfill', 'gibbons'): (41.61, 44.59),
    ('SDSC96', 'backfill', 'downey-average'): (41.61, 25.66),
    ('SDSC96', 'backfill', 'downey-median'): (38.16, 51.75),
}

_PINS = {"wait-time": WAIT_TIME_ROWS, "scheduling": SCHEDULING_ROWS}
_CELLS = tuple(
    (w, a, p) for w, a, p, _ in grid_cells(tuple(PAPER_WORKLOADS), ALGORITHMS, PREDICTORS)
)


@pytest.fixture(scope="module")
def printed_rows():
    """kind -> (workload, algorithm, predictor) -> printed values."""
    rows = {}
    for kind in _PINS:
        cells = run_grid(
            kind,
            workloads=tuple(PAPER_WORKLOADS),
            algorithms=ALGORITHMS,
            predictors=PREDICTORS,
            n_jobs=N_JOBS,
            max_workers=1,
        )
        # as_row() leads with the Workload and Scheduling Algorithm labels.
        rows[kind] = {
            key: tuple(cell.as_row().values())[2:] for key, cell in zip(_CELLS, cells)
        }
    return rows


def test_pins_cover_the_grid():
    assert set(WAIT_TIME_ROWS) == set(_CELLS)
    assert set(SCHEDULING_ROWS) == set(_CELLS)


@pytest.mark.parametrize("kind", sorted(_PINS))
@pytest.mark.parametrize("workload,algorithm,predictor", _CELLS)
def test_printed_cell(printed_rows, kind, workload, algorithm, predictor):
    key = (workload, algorithm, predictor)
    assert printed_rows[kind][key] == _PINS[kind][key]
