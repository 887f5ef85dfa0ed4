"""Table 14 — scheduling performance with Downey's conditional average."""

from __future__ import annotations

from _common import cell_metrics, emit_bench_json, print_paper_table, run_once, scheduling_rows


def test_table14_scheduling_downey_average(benchmark):
    cells = run_once(benchmark, scheduling_rows, "downey-average")
    print_paper_table(cells)
    emit_bench_json(
        {"table14": [c.as_row() for c in cells]}, metrics=cell_metrics(cells)
    )
    assert len(cells) == 8
    for c in cells:
        assert 0.0 < c.utilization_percent <= 100.0
        assert c.mean_wait_minutes >= 0.0
