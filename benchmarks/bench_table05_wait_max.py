"""Table 5 — wait-time prediction using maximum run times (EASY-style)."""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, wait_time_rows


def test_table05_wait_prediction_max(benchmark):
    cells = run_once(benchmark, wait_time_rows, "max", ("fcfs", "lwf", "backfill"))
    print_paper_table(cells)
    emit_bench_json(
        {"table05": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )

    # Maximum run times are loose overestimates: predicted waits overshoot
    # badly — the paper's errors run 94-350% of the mean wait.  Require the
    # aggregate to exceed 50% and backfill (most estimate-sensitive) to
    # exceed 100% on average.
    pct = np.array([c.percent_of_mean_wait for c in cells])
    assert pct.mean() > 50.0
    bf = [c.percent_of_mean_wait for c in cells if c.algorithm == "Backfill"]
    assert np.mean(bf) > 100.0
