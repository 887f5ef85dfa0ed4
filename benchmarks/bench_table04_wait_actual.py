"""Table 4 — wait-time prediction using actual run times.

The paper's built-in error study: even a perfect run-time oracle cannot
foresee later arrivals.  FCFS is omitted (its error is identically zero,
which bench_table05/06 exercise implicitly); LWF shows a substantial
built-in error, backfill a small one.
"""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, wait_time_rows


def test_table04_wait_prediction_actual(benchmark):
    cells = run_once(benchmark, wait_time_rows, "actual", ("lwf", "backfill"))
    print_paper_table(cells)
    emit_bench_json(
        {"table04": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )

    lwf = {c.workload: c for c in cells if c.algorithm == "LWF"}
    bf = {c.workload: c for c in cells if c.algorithm == "Backfill"}
    # Backfill's built-in error is far below LWF's on every workload
    # (paper: 3-10% vs 34-43%).
    for w in lwf:
        assert bf[w].percent_of_mean_wait < lwf[w].percent_of_mean_wait
    assert np.mean([c.percent_of_mean_wait for c in bf.values()]) < 35.0
