"""Table 7 — wait-time prediction using Gibbons' run-time predictor."""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, wait_time_rows


def test_table07_wait_prediction_gibbons(benchmark):
    cells = run_once(
        benchmark, wait_time_rows, "gibbons", ("fcfs", "lwf", "backfill")
    )
    print_paper_table(cells)
    emit_bench_json(
        {"table07": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )
    # Gibbons' history-based predictions, like Smith's, must land far
    # below the max-run-time regime (Table 5's 94-350%): aggregate under
    # ~120% of mean wait.
    assert np.mean([c.percent_of_mean_wait for c in cells]) < 120.0
