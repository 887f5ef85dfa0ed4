"""Table 8 — wait-time prediction using Downey's conditional average."""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, wait_time_rows


def test_table08_wait_prediction_downey_average(benchmark):
    cells = run_once(
        benchmark, wait_time_rows, "downey-average", ("fcfs", "lwf", "backfill")
    )
    print_paper_table(cells)
    emit_bench_json(
        {"table08": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )
    # All cells produced; errors finite and positive somewhere (Downey's
    # one-distribution-per-queue model cannot be exact).
    assert len(cells) == 12
    assert all(np.isfinite(c.mean_error_minutes) for c in cells)
    assert any(c.mean_error_minutes > 0 for c in cells)
