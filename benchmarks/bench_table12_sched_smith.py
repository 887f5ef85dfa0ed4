"""Table 12 — scheduling performance with the Smith predictor.

The §4 headline: feeding historical predictions into the schedulers
lowers mean waits relative to user maxima in most cells, with the
largest effect on the high-load workload's backfill.
"""

from __future__ import annotations

import numpy as np

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, scheduling_rows


def _run():
    return scheduling_rows("smith"), scheduling_rows("max")


def test_table12_scheduling_smith(benchmark):
    smith, mx = run_once(benchmark, _run)
    print_paper_table(smith)
    emit_bench_json(
        {"table12": [c.as_row() for c in smith]}, metrics=cell_metrics(smith)
    )

    mx_by_key = {(c.workload, c.algorithm): c for c in mx}
    # Utilization invariance.
    for c in smith:
        ref = mx_by_key[(c.workload, c.algorithm)]
        assert abs(c.utilization_percent - ref.utilization_percent) < 6.0
    # The paper: accurate predictions matter most on the high-load
    # workload; elsewhere sub-minute waits make comparisons noise
    # ("no prediction technique clearly outperforms ... when the offered
    # load is low").  Claim the ANL shape strictly.
    smith_anl = {c.algorithm: c for c in smith if c.workload == "ANL"}
    mx_anl = {c.algorithm: c for c in mx if c.workload == "ANL"}
    # Backfill, the estimate-sensitive algorithm, improves clearly.
    assert (
        smith_anl["Backfill"].mean_wait_minutes
        < mx_anl["Backfill"].mean_wait_minutes
    )
    # LWF only needs big-vs-small: within 15% either way.
    assert smith_anl["LWF"].mean_wait_minutes <= 1.15 * mx_anl["LWF"].mean_wait_minutes
    # Aggregate across loaded backfill cells: Smith no worse than maxima.
    loaded_ratios = [
        c.mean_wait_minutes / mx_by_key[(c.workload, c.algorithm)].mean_wait_minutes
        for c in smith
        if c.algorithm == "Backfill"
        and mx_by_key[(c.workload, c.algorithm)].mean_wait_minutes > 5.0
    ]
    assert np.mean(loaded_ratios) < 1.0
