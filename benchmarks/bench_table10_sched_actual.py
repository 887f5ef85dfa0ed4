"""Table 10 — scheduling performance with actual run times (the oracle
upper bound of §4)."""

from __future__ import annotations

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, scheduling_rows


def test_table10_scheduling_actual(benchmark):
    cells = run_once(benchmark, scheduling_rows, "actual")
    print_paper_table(cells)
    emit_bench_json(
        {"table10": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )

    lwf = {c.workload: c for c in cells if c.algorithm == "LWF"}
    bf = {c.workload: c for c in cells if c.algorithm == "Backfill"}
    for w in lwf:
        # Paper Table 10: LWF posts lower mean waits than backfill on
        # every workload, at essentially equal utilization.
        assert lwf[w].mean_wait_minutes < bf[w].mean_wait_minutes
        assert abs(lwf[w].utilization_percent - bf[w].utilization_percent) < 8.0
