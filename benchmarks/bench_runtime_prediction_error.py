"""§3 text numbers — run-time prediction error per predictor.

The paper quotes run-time prediction errors as percentages of mean run
time (Smith 33-73%, and 39-92% better than the alternatives).  This
bench replays every predictor over every workload and prints the grid.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import run_runtime_prediction_experiment
from repro.core.registry import PREDICTOR_NAMES

from _common import bench_traces, print_paper_table


def _run():
    cells = []
    for trace in bench_traces():
        for name in PREDICTOR_NAMES:
            cells.append(run_runtime_prediction_experiment(trace, name))
    return cells


def test_runtime_prediction_error_grid(benchmark):
    cells = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_paper_table(cells)

    by = {(c.workload, c.predictor): c for c in cells}
    workloads = sorted({c.workload for c in cells})
    for w in workloads:
        assert by[(w, "actual")].mean_error_minutes == 0.0
        # Smith beats the max-run-time baseline everywhere.
        assert by[(w, "smith")].mean_error_minutes < by[(w, "max")].mean_error_minutes
    # Aggregate: Smith beats each Downey variant on average.
    for rival in ("downey-average", "downey-median"):
        smith_mean = np.mean([by[(w, "smith")].mean_error_minutes for w in workloads])
        rival_mean = np.mean([by[(w, rival)].mean_error_minutes for w in workloads])
        assert smith_mean < rival_mean
